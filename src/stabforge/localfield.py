"""Arithmetic in the towers Q_p c W_f c Q_p(zeta_{p^alpha}, zeta_{p^f-1}).

Elements are sums c_{ij} beta^j pi^i with pi-degree i < e and beta-degree
j < f, where pi = zeta_{p^alpha} - 1 is a root of the cyclotomic polynomial
Q_alpha and beta generates the unramified part.  An element stores one flat
list of the e f coefficients, integers mod p^prec, row-major: c_ij at index
i f + j, so row i (its pi^i part) is the slice [i f, (i + 1) f).  The nested
form, e rows of f, is a read-only view (FieldElem.grid) built on demand, as
are pi-adic digit sequences.

A product is one big-integer product (Kronecker substitution): each element
is packed into one int, c_ij in a fixed-width slot, wide enough that the slots
of the product are its unreduced coefficients.  A per-tower table
(FieldTower._mul_plan, built on the first multiply) then folds every slot
beta^j pi^i with j >= f or i >= e into the rest, as that slot's value times
the monomial reduced mod (g, Q_alpha), itself packed.

The order of an element x is its integer pi-level (FieldElem.pi_level): the
largest i with x in pi^i O, so a unit 1 + x lies in U_i = 1 + pi^i O and not
in U_(i+1).  p has pi-level e, so pi-level is e times the valuation normalized
by v(p) = 1.

The Galois action computed with is the Frobenius sigma, which fixes pi: the
extended group twists by w -> w^sigma only.  FieldElem.galois_act(t) is
sigma^t, one Z/p^prec-linear map per t mod f applied to each pi-row.

The residue field F_q = F_p[X]/(g), g = unramified_poly(p, f), is one
ResidueField per tower (tower.residue).  Its elements, the residue vectors
of tower elements and the digits of pi-adic expansions, are f-tuples of
digits in [0, p), lowest power of X first; X is the residue of beta and
generates F_q^x.

FieldElem and order.OrderElem share binary_power for powers and newton_inverse
for inverses.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache

from .errors import IndeterminateAtPrecision, InsufficientPrecision, NonUnit
from .intarith import check_params, mat_mul, prime_factors, split_p


def euler_phi_prime_power(p: int, alpha: int) -> int:
    return 1 if alpha == 0 else (p - 1) * p ** (alpha - 1)


def binary_power(x, k: int, one, mul=operator.mul):
    """x^k by square-and-multiply with multiply mul, starting from the lowest
    factor of x that k takes, so one is never multiplied: x^0 is one and x^1 is
    x, and x^k costs bit_length(k) - 1 squarings and popcount(k) - 1 products.
    x is inverted first when k < 0."""
    if k < 0:
        x, k = x.invert(), -k
    if not k:
        return one
    while not k & 1:
        x, k = mul(x, x), k >> 1
    out = x
    while k := k >> 1:
        x = mul(x, x)
        if k & 1:
            out = mul(out, x)
    return out


def newton_inverse(x, y0, one, steps: int, shortest: bool = False):
    """x^-1 = (1 + z + ... + z^(K-1)) y0 with z = 1 - y0 x and z^K = 0.  Newton's
    step y <- y + (1 - y x) y doubles the terms of the sum (m terms leave the
    error z^m) until the error vanishes.  Where products lower the precision,
    as the p-power shift of an order element does, each term past the least K
    costs digits: shortest then stops there, by a binary search over the
    stored z^(2^j).  Raises InsufficientPrecision when steps errors pass
    without one vanishing."""
    y, err = y0, one - y0 * x
    if err.is_zero:
        return y0
    powers = []  # (sum of 2^j terms, z^(2^j)) as Newton doubles
    while not (square := err * err).is_zero:
        if len(powers) + 2 >= steps:
            raise InsufficientPrecision("Newton iteration for the inverse did not converge")
        powers.append((y, err))
        y, err = y + err * y, square
    if not shortest:
        return y + err * y
    for s, e in reversed(powers):
        if not (longer := err * e).is_zero:
            y, err = y + err * s, longer
    return y + err * y0


def q_alpha_coeffs(p: int, alpha: int):
    """Coefficients a_0..a_e of Q_alpha(X) = ((X+1)^{p^alpha}-1)/((X+1)^{p^{alpha-1}}-1).

    a_i is the sum of binomial(p^{alpha-1} k, i) over 0 <= k < p; a_0 = p and
    the polynomial is monic of degree phi(p^alpha).
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    e = euler_phi_prime_power(p, alpha)
    step = p ** (alpha - 1)
    coeffs = [0] * (e + 1)
    for k in range(p):
        m = step * k
        for i in range(min(m, e) + 1):
            coeffs[i] += math.comb(m, i)
    return tuple(coeffs)


class ResidueField:
    """F_q = F_p[X]/(g) for a monic g of degree f over F_p.

    Elements are f-tuples of digits in [0, p), lowest power of X first.  For a
    tower, g = unramified_poly(p, f), X is the residue of beta and it generates
    F_q^x.  unramified_poly also builds one on each candidate g it tests.
    """

    def __init__(self, p: int, g):
        self.p = p
        self.g = tuple(c % p for c in g)
        self.f = len(g) - 1
        self.q = p**self.f
        self.one = self.reduce([1])
        self.x = self.reduce([0, 1])

    @staticmethod
    def vectors(p: int, f: int, start: int = 0):
        """The f-tuples v in code order: code sum v_i p^i = start, start + 1, ..."""
        for code in range(start, p**f):
            vec = []
            for _ in range(f):
                code, d = divmod(code, p)
                vec.append(d)
            yield tuple(vec)

    def reduce(self, poly):
        """The residue of an integer polynomial (lowest coefficient first) mod g."""
        p, f, g = self.p, self.f, self.g
        acc = list(poly) + [0] * (f - len(poly))
        for i in range(len(acc) - 1, f - 1, -1):
            c = acc[i] % p
            if c:
                for j in range(f):
                    acc[i - f + j] -= c * g[j]
        return tuple(c % p for c in acc[:f])

    def mul(self, a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.reduce(prod)

    def pow(self, a, k: int):
        return binary_power(a, k, self.one, self.mul)

    def is_primitive(self) -> bool:
        """g is irreducible and X generates F_q^x: the tests unramified_poly applies."""
        x, p, f, q = self.x, self.p, self.f, self.q
        if self.pow(x, q) != x or any(self.pow(x, p ** (f // r)) == x for r in prime_factors(f)):
            return False
        return all(self.pow(x, (q - 1) // r) != self.one for r in prime_factors(q - 1))

    @cached_property
    def _basis_traces(self):
        """Tr(X^i) in F_p for i < f, with Tr(a) = a + a^p + ... + a^(p^(f-1))."""
        out = []
        for cur in (self.pow(self.x, i) for i in range(self.f)):
            acc = 0
            for _ in range(self.f):
                acc += cur[0]  # the trace lies in F_p: the other digits cancel
                cur = self.pow(cur, self.p)
            out.append(acc % self.p)
        return out

    def solve_trace(self, t: int):
        """The first residue in code order with trace t.  Trace is F_p-linear and
        vanishes on X^i for i < i0, the lowest i with Tr(X^i) != 0, so that
        residue is (t / Tr(X^i0)) X^i0, or 0 when t = 0."""
        t %= self.p
        vec = [0] * self.f
        if t:
            i0, tau = next((i, c) for i, c in enumerate(self._basis_traces) if c)
            vec[i0] = t * pow(tau, -1, self.p) % self.p
        return tuple(vec)

    def solve_norm(self, t: int):
        """The first residue in code order with norm c^((q-1)/(p-1)) = t in F_p^x."""
        want = self.reduce([t])
        exp = (self.q - 1) // (self.p - 1)
        for vec in self.vectors(self.p, self.f, start=1):
            if self.pow(vec, exp) == want:
                return vec
        raise AssertionError("norm is surjective; unreachable")

    def is_power(self, vec, k: int) -> bool:
        """Is the unit vec a k-th power, for k dividing q - 1?  X generates F_q^x,
        so vec = X^e is one iff k | e iff vec^((q-1)/k) = 1."""
        return self.pow(vec, (self.q - 1) // k) == self.one


@lru_cache(maxsize=None)
def unramified_poly(p: int, f: int):
    """Deterministic defining polynomial for W_f: the lexicographically smallest
    monic polynomial of degree f over F_p that is irreducible with primitive roots.
    For f = 1 that is X - c for the smallest primitive root c.
    """
    if f == 1:
        lows = (((-c) % p,) for c in range(1, p))
    else:
        lows = (v for v in ResidueField.vectors(p, f) if v[0])
    for low in lows:
        if ResidueField(p, low + (1,)).is_primitive():
            return low + (1,)
    raise AssertionError("no primitive polynomial found")


class FieldTower:
    """Shared context: the field Q_p(zeta_{p^alpha}, zeta_{p^f-1}) at a fixed
    coefficient precision (all element coefficients live mod p^prec)."""

    def __init__(self, p: int, f: int, alpha: int, prec: int):
        check_params(p, alpha, f=f, prec=prec)
        self.p = p
        self.f = f
        self.alpha = alpha
        self.prec = prec
        self.e = euler_phi_prime_power(p, alpha)
        self.mod = p**prec
        self.unram = unramified_poly(p, f)  # length f+1, monic
        self.residue = ResidueField(p, self.unram)
        if alpha >= 1:
            self.q_coeffs = q_alpha_coeffs(p, alpha)
        else:
            self.q_coeffs = (-p, 1)  # pi = p when there is no ramification
        self._teich_cache = {}
        self._frob_cache = {}  # t mod f -> the columns of sigma^t on a pi-row (FieldElem.galois_act)

    @classmethod
    def for_pi_prec(cls, p: int, f: int, alpha: int, n_pi: int) -> "FieldTower":
        """Tower whose coefficient precision supports pi-adic work mod pi^n_pi,
        with two guard digits for exact divisions."""
        check_params(p, alpha, f=f)
        if n_pi < 1:
            raise ValueError(f"pi-adic precision must be >= 1, got {n_pi}")
        e = euler_phi_prime_power(p, alpha)
        return cls(p, f, alpha, -(-n_pi // e) + 2)

    @property
    def pi_prec(self) -> int:
        return self.e * self.prec

    @cached_property
    def _mul_plan(self):
        """The table FieldElem.__mul__ folds with, built on the first multiply.

        An element packs into one int: c_ij in slot i (2f-1) + j, each slot nb
        bytes (little-endian), so a row is its f slots (the flat list's slice
        [i f, (i + 1) f)) and then pad.  The product of two packed elements,
        size bytes long, holds in its slots the unreduced coefficients of
        beta^j pi^i, j < 2f-1 and i < 2e-1; nb bytes hold
        (2e-1)(2f-1)(m-1)^2 + m, which bounds every product slot and every slot
        of the folded sum, so no carry crosses a slot.  low is the byte offset of
        each row i < e, whose first f slots are read as they are; high pairs the
        offset of every other slot with that monomial mod (g, Q_alpha), packed
        with stride f, the flat layout (pairs whose monomial vanishes mod
        p^prec are left out).  The folded sum is thus the flat list in slots
        of nb bytes, and cells is the byte offset of each.
        """
        e, f, m = self.e, self.f, self.mod
        nb = (((2 * e - 1) * (2 * f - 1) * (m - 1) ** 2 + m).bit_length() + 7) // 8
        betas, pis = _powers_mod(self.unram, 2 * f - 1, m), _powers_mod(self.q_coeffs, 2 * e - 1, m)
        stride = (2 * f - 1) * nb
        high = []
        for i, a in enumerate(pis):
            for j, b in enumerate(betas):
                if i >= e or j >= f:
                    red = int.from_bytes(b"".join([(x * y % m).to_bytes(nb, "little") for x in a for y in b]), "little")
                    if red:
                        high.append((i * stride + j * nb, red))
        cells = range(0, e * f * nb, nb)
        return nb, bytes((f - 1) * nb), (2 * e - 1) * stride, [i * stride for i in range(e)], high, cells

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, [0] * (self.e * self.f))

    def one(self) -> "FieldElem":
        return self.from_int(1)

    def from_int(self, z: int) -> "FieldElem":
        return self.from_beta_coeffs([z])

    def from_grid(self, grid) -> "FieldElem":
        """The element with coefficients grid[i][j] (e rows of f), the nested form."""
        return FieldElem(self, [int(grid[i][j]) % self.mod for i in range(self.e) for j in range(self.f)])

    def from_beta_coeffs(self, coeffs) -> "FieldElem":
        """sum c_j beta^j, an element of the unramified part W_f."""
        if len(coeffs) > self.f:
            raise ValueError("coefficient list longer than the residue degree")
        flat = [c % self.mod for c in coeffs]
        return FieldElem(self, flat + [0] * (self.e * self.f - len(flat)))

    def pi(self) -> "FieldElem":
        """pi = X mod Q_alpha, in column 0 of the rows; for the linear Q (e = 1)
        that is the root -q_0: p at alpha = 0, -2 at p = 2, alpha = 1."""
        flat = [0] * (self.e * self.f)
        flat[:: self.f] = _powers_mod(self.q_coeffs, 2, self.mod)[1]
        return FieldElem(self, flat)

    def zeta(self) -> "FieldElem":
        """zeta_{p^alpha} = 1 + pi."""
        return self.one() + self.pi()

    def beta(self) -> "FieldElem":
        """beta = X mod g; for f = 1 that is the root -g_0."""
        return self.from_beta_coeffs(_powers_mod(self.unram, 2, self.mod)[1])

    def omega(self) -> "FieldElem":
        """Teichmueller generator of the residue field torsion (order p^f - 1)."""
        return self.teichmuller(self.beta().residue_vector())

    # -- residue-field helpers -------------------------------------------------

    def teichmuller(self, residue) -> "FieldElem":
        """Teichmueller lift of a residue-field element (tuple of f digits)."""
        residue = tuple(d % self.p for d in residue)
        if all(d == 0 for d in residue):
            return self.zero()
        hit = self._teich_cache.get(residue)
        if hit is not None:
            return hit
        x = self.from_beta_coeffs(residue)
        q = self.p**self.f
        for _ in range(self.prec + 2):  # each step fixes one more p-adic digit
            y = x**q
            if y == x:
                break
            x = y
        else:
            raise InsufficientPrecision(f"Teichmueller lift of {residue} did not converge")
        self._teich_cache[residue] = x
        return x

    def frobenius_beta(self, t: int) -> "FieldElem":
        """sigma^t(beta): the root of the defining polynomial congruent to beta^(p^t)."""
        t %= self.f
        if t == 0:
            return self.beta()
        x = self.beta() ** (self.p**t)
        gpoly = [c % self.mod for c in self.unram]
        dpoly = [(j * gpoly[j]) % self.mod for j in range(1, len(gpoly))]
        for _ in range(self.prec.bit_length() + 3):  # each step doubles the p-adic precision
            gx = _eval_poly(gpoly, x)
            if gx.is_zero:
                return x
            x = x - gx * _eval_poly(dpoly, x).invert()
        raise InsufficientPrecision(f"Newton root for the Frobenius image sigma^{t}(beta) did not converge")


def _powers_mod(monic, count: int, m: int):
    """X^k mod the monic polynomial (lowest coefficient first), for k < count,
    each as its coefficients mod m: shift by X, subtract the top times monic."""
    cur, out = [1] + [0] * (len(monic) - 2), []
    for _ in range(count):
        out.append(cur)
        top = cur[-1]
        cur = [(c - top * a) % m for c, a in zip([0] + cur[:-1], monic)]
    return out


def _eval_poly(coeffs, x: "FieldElem") -> "FieldElem":
    # Horner over integer coefficients: the defining polynomial and its derivative
    acc = x.tower.zero()
    for c in reversed(coeffs):
        acc = acc * x + c if c else acc * x
    return acc


class FieldElem:
    """An element sum_{i<e} (sum_{j<f} c_ij beta^j) pi^i, coefficients mod p^prec."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs):
        self.tower = tower
        self.coeffs = coeffs  # e f ints in [0, mod), c_ij at index i f + j

    @property
    def grid(self):
        """The coefficients as e rows of f (row i is the pi^i part), a fresh copy."""
        f = self.tower.f
        return [self.coeffs[k : k + f] for k in range(0, len(self.coeffs), f)]

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.tower is other.tower and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.tower), tuple(self.coeffs)))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def residue_vector(self):
        """The image in the residue field, as f digits in [0, p)."""
        return tuple(c % self.tower.p for c in self.coeffs[: self.tower.f])

    @property
    def is_unit(self) -> bool:
        return any(d != 0 for d in self.residue_vector())

    def __neg__(self):
        m = self.tower.mod
        return FieldElem(self.tower, [(-c) % m for c in self.coeffs])

    def __add__(self, other):
        other = self._coerce(other)
        m = self.tower.mod
        return FieldElem(self.tower, [(a + b) % m for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return -(self - other)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.tower is not self.tower:
                raise ValueError("elements from different towers")
            return other
        if isinstance(other, int):
            return self.tower.from_int(other)
        raise TypeError(f"cannot coerce {type(other)}")

    def scale(self, c: int) -> "FieldElem":
        m = self.tower.mod
        c %= m
        return FieldElem(self.tower, [(c * x) % m for x in self.coeffs])

    def __mul__(self, other):
        """The product: one big-integer product of the packed elements, then one
        fold of its slots by the tower's table (FieldTower._mul_plan).  Slots
        beta^j pi^i with j < f and i < e are read as they are; every other slot
        c adds c times that monomial reduced mod (g, Q_alpha).  g and Q_alpha
        are monic, so beta^j pi^i (j < f, i < e) is the one basis of
        (Z/p^prec)[beta, pi]/(g, Q_alpha) and the result is that ring's product."""
        if isinstance(other, int):
            return self.scale(other)
        other = self._coerce(other)
        t = self.tower
        nb, pad, size, low, high, cells = t._mul_plan
        m, row = t.mod, t.f * nb

        def pack(coeffs):
            slots = b"".join([c.to_bytes(nb, "little") for c in coeffs])
            return int.from_bytes(pad.join([slots[k : k + row] for k in range(0, len(slots), row)]), "little")

        x = pack(self.coeffs)
        prod = (x * x if other is self else x * pack(other.coeffs)).to_bytes(size, "little")
        acc = int.from_bytes(b"".join([prod[o : o + row] for o in low]), "little")
        for o, red in high:
            c = int.from_bytes(prod[o : o + nb], "little") % m
            if c:
                acc += c * red
        out = acc.to_bytes(len(cells) * nb, "little")
        return FieldElem(t, [int.from_bytes(out[k : k + nb], "little") % m for k in cells])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FieldElem":
        return binary_power(self, k, self.tower.one())

    def invert(self) -> "FieldElem":
        """Inverse of a unit by newton_inverse from the residue-field inverse;
        the error's pi-level, at least 1, doubles each step."""
        t = self.tower
        if not self.is_unit:
            raise NonUnit("only units are invertible in the ring")
        y0 = t.from_beta_coeffs(t.residue.pow(self.residue_vector(), t.residue.q - 2))
        return newton_inverse(self, y0, t.one(), t.prec.bit_length() + t.e.bit_length() + 3)

    # -- valuation and digits ---------------------------------------------------

    def pi_level(self) -> int:
        """The pi-adic order e * v(self): min over nonzero terms c_ij of i + e v_p(c).
        As i < e, that is e v for the least v_p, v, plus the first row holding a
        coefficient of v_p exactly v."""
        t = self.tower
        g = math.gcd(*self.coeffs)  # its v_p is the least one
        if not g:
            raise IndeterminateAtPrecision("all tracked digits vanish")
        v = split_p(g, t.p)[0]
        top = t.p ** (v + 1)
        return t.e * v + next(k for k, c in enumerate(self.coeffs) if c % top) // t.f

    def leading_residue(self, level: int):
        """The residue vector of self / pi^level, for level <= pi_level().

        Only row level % e reaches it.  With v = level // e, that row's
        coefficients are divisible by p^v, and p = (-p/q_0) * pi^e * w with
        w = 1 mod pi and q_0 = q_coeffs[0] (p when alpha >= 1, -p when alpha = 0).
        """
        t = self.tower
        v, i = divmod(level, t.e)
        sign, pv = (-t.p // t.q_coeffs[0]) ** v, t.p**v
        return tuple(sign * (c // pv) % t.p for c in self.coeffs[i * t.f : (i + 1) * t.f])

    def pi_valuation_at_least(self, n: int) -> bool:
        """True when v(self) >= n/e at the tracked precision (zero counts as yes)."""
        return self.is_zero or self.pi_level() >= n

    def congruent(self, other, n_pi: int) -> bool:
        """self = other mod pi^n_pi."""
        return (self - self._coerce(other)).pi_valuation_at_least(n_pi)

    def div_pi(self) -> "FieldElem":
        """Exact division by pi of an element divisible by pi.

        Uses -q_0 = pi R(pi) with q_0 = +-p and R = (Q - q_0) / X, so everything
        stays inside the ring; consumes guard precision via one exact division by p.
        """
        t = self.tower
        f, m, q = t.f, t.mod, t.q_coeffs
        if any(c % t.p for c in self.coeffs[:f]):
            raise NonUnit("element is not divisible by pi")
        d0 = [c // -q[0] for c in self.coeffs[:f]]
        # row i of the quotient is row i + 1 plus q_(i+1) d0: the top row is d0, Q being monic
        above = self.coeffs[f:] + [0] * f
        return FieldElem(t, [(c + q[k // f + 1] * d0[k % f]) % m for k, c in enumerate(above)])

    def pi_digit_expansion(self, n_pi: int):
        """Teichmueller digit vectors lambda_0..lambda_{n_pi-1} with
        x = sum lambda_i pi^i mod pi^n_pi; each digit is f residue digits."""
        t = self.tower
        if self.is_zero:
            return [tuple([0] * t.f) for _ in range(n_pi)]
        digits, y = [], self
        for _ in range(n_pi):
            r = y.residue_vector()
            digits.append(r)
            if any(r):
                y = y - t.teichmuller(r)
            y = y.div_pi()
        return digits

    @staticmethod
    def from_pi_digits(tower: FieldTower, digits) -> "FieldElem":
        acc = tower.zero()
        pi = tower.pi()
        power = tower.one()
        for d in digits:
            acc = acc + tower.teichmuller(tuple(d)) * power
            power = power * pi
        return acc

    # -- Galois ------------------------------------------------------------------

    def galois_act(self, t: int) -> "FieldElem":
        """sigma^t, the t-th power of Frobenius: a ring automorphism that fixes pi
        and sends beta to sigma^t(beta).  The elements are the ring
        (Z/p^prec)[beta, pi]/(g, Q_alpha) and sigma^t(beta) lies in row 0, so
        sigma^t maps each pi-row by one f x f matrix over Z/p^prec, whose column j
        is row 0 of sigma^t(beta)^j; it is built once per tower and t mod f."""
        tw = self.tower
        f, m = tw.f, tw.mod
        cols = tw._frob_cache.get(t % f)
        if cols is None:
            img, power = tw.frobenius_beta(t), tw.one()
            cols = [power.coeffs[:f]]
            for _ in range(1, f):
                power = power * img
                cols.append(power.coeffs[:f])
            tw._frob_cache[t % f] = cols
        return FieldElem(tw, [a % m for row in mat_mul(self.grid, cols) for a in row])

    def __repr__(self):
        f = self.tower.f
        terms = [f"{c}*b^{k % f}*pi^{k // f}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def epsilon_alpha(tower: FieldTower) -> FieldElem:
    """The unit with p * epsilon = pi^phi(p^alpha), from the Eisenstein shape of
    Q_alpha: epsilon = -1 - sum_{0<i<e} (a_i/p) pi^i (exact integer divisions)."""
    if tower.alpha < 1:
        raise ValueError("epsilon_alpha needs alpha >= 1")
    flat = [0] * (tower.e * tower.f)
    flat[:: tower.f] = [-1 % tower.mod] + [(-(a // tower.p)) % tower.mod for a in tower.q_coeffs[1 : tower.e]]
    return FieldElem(tower, flat)
