"""The maximal order W_n<S> with S^n = pu and Sw = w^sigma S.

Elements are p^shift * sum_{i<n} w_i S^i with w_i in the Witt ring W_n
(realized as the unramified tower of degree n) and a global power of p so
that inverses like (pu)^{-1} S^{n-1} stay representable.  The twisted product
folds S^n back to pu, which is central.
"""

from __future__ import annotations

from .errors import IndeterminateAtPrecision, InsufficientPrecision, NonUnit
from .intarith import check_params, prime_factors
from .localfield import FieldElem, FieldTower, binary_power, newton_inverse
from .padic import PadicInt, hensel_sqrt
from .unitclasses import normalize_unit


class OrderParams:
    """Shared context: p, n, the unit u with S^n = pu, and the working precision."""

    def __init__(self, p: int, n: int, u=1, p_prec: int = 6):
        check_params(p, n=n, p_prec=p_prec)
        self.p = p
        self.n = n
        self.p_prec = p_prec
        self.u = normalize_unit(u, p, p_prec)
        self.witt = FieldTower(p, n, 0, p_prec)

    def zero(self) -> "OrderElem":
        return OrderElem(self, 0, tuple(self.witt.zero() for _ in range(self.n)))

    def from_int(self, z: int) -> "OrderElem":
        coeffs = [self.witt.from_int(z)] + [self.witt.zero()] * (self.n - 1)
        return OrderElem(self, 0, tuple(coeffs))

    def one(self) -> "OrderElem":
        return self.from_int(1)

    def from_witt(self, w: FieldElem, s_power: int = 0) -> "OrderElem":
        coeffs = [self.witt.zero()] * self.n
        q, r = divmod(s_power, self.n)
        coeffs[r] = w.scale((self.p * self.u.val) ** q) if q else w
        return OrderElem(self, 0, tuple(coeffs))

    def from_beta_coeffs(self, coeffs) -> "OrderElem":
        """sum c_j beta^j in W_n."""
        return self.from_witt(self.witt.from_beta_coeffs(coeffs))

    def s(self) -> "OrderElem":
        return self.from_witt(self.witt.one(), 1)

    def omega(self) -> "OrderElem":
        """The Teichmueller generator of order p^n - 1."""
        return self.from_witt(self.witt.omega())

    def scalar(self, x: PadicInt) -> "OrderElem":
        return self.from_int(x.val)


class OrderElem:
    __slots__ = ("params", "shift", "coeffs")

    def __init__(self, params: OrderParams, shift: int, coeffs):
        self.params = params
        self.shift = shift
        self.coeffs = tuple(coeffs)

    # -- helpers -----------------------------------------------------------

    def _align(self, other: "OrderElem"):
        if other.params is not self.params:
            raise ValueError("elements from different orders")
        s = min(self.shift, other.shift)
        p = self.params.p

        def at(x):
            if x.shift == s:
                return x.coeffs
            fac = p ** (x.shift - s)
            return tuple(c.scale(fac) for c in x.coeffs)

        return s, at(self), at(other)

    def _coerce(self, other):
        if isinstance(other, OrderElem):
            return other
        if isinstance(other, int):
            return self.params.from_int(other)
        raise TypeError(f"cannot coerce {type(other)}")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("unhashable; compare at precision instead")

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        s, a, b = self._align(other)
        return OrderElem(self.params, s, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return OrderElem(self.params, self.shift, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElem(self.params, self.shift, tuple(c.scale(other) for c in self.coeffs))
        other = self._coerce(other)
        pa = self.params
        n = pa.n
        t = pa.witt
        pu = pa.p * pa.u.val
        acc = [t.zero() for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                term = a * b.galois_act(i)  # S^i b = b^(sigma^i) S^i
                k = i + j
                if k >= n:
                    term = term.scale(pu)
                    k -= n
                acc[k] = acc[k] + term
        return OrderElem(pa, self.shift + other.shift, tuple(acc))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        return binary_power(self, k, self.params.one())

    # -- valuation / inversion -------------------------------------------------

    def _leading(self):
        """(n*v_p(w_i)+i, i, v_p(w_i)) minimizing the valuation; None when zero."""
        best = None
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            v = c.pi_level()  # v_p: the Witt tower is unramified
            cand = (v * self.params.n + i, i, v)
            if best is None or cand < best:
                best = cand
        return best

    def s_level(self) -> int:
        """The S-adic order n * v(self): S has level 1 and p has level n."""
        lead = self._leading()
        if lead is None:
            raise IndeterminateAtPrecision("all tracked digits vanish")
        return lead[0] + self.shift * self.params.n

    def invert(self) -> "OrderElem":
        """Two-sided inverse: the shortest newton_inverse sum from the inverse of
        the leading term, whose error's S-level (at least 1) doubles each step."""
        lead = self._leading()
        if lead is None:
            raise IndeterminateAtPrecision("cannot invert zero at precision")
        _total, i, vp = lead
        pa = self.params
        w = self.coeffs[i]
        for _ in range(vp):
            w = w.div_pi()  # exact division by p in W_n
        w_inv = w.invert()
        if i:  # (w S^i)^(-1) = (pu)^(-1) sigma^(n-i)(w^(-1)) S^(n-i)
            w_inv = w_inv.galois_act(pa.n - i).scale(pow(pa.u.val, -1, pa.witt.mod))
        t_inv = OrderElem(pa, -self.shift - vp - (i > 0), pa.from_witt(w_inv, -i % pa.n).coeffs)
        return newton_inverse(self, t_inv, pa.one(), (pa.n * (pa.p_prec + 1) + 1).bit_length() + 1, shortest=True)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                parts.append(f"({c!r})*S^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"p^{self.shift} * [{body}]" if self.shift else body


# -- equality-at-precision verdicts ---------------------------------------------


def check_verdict(lhs: OrderElem, rhs: OrderElem) -> str:
    """'holds', 'fails', or 'indeterminate' for lhs == rhs at working precision."""
    diff = lhs - rhs
    if not diff.is_zero:
        return "fails"
    pa = lhs.params
    # vanishing certifies v >= p_prec + shift; a relation holds once that
    # covers 2n digits in S, where v(S) = 1/n: v >= ceil(2n / n) = 2
    if pa.p_prec + min(diff.shift, 0) >= 2:
        return "holds"
    return "indeterminate"


def order_check(x: OrderElem, d: int) -> bool:
    """x has exact multiplicative order d at working precision."""
    if x.s_level() != 0:
        return False
    verdict = check_verdict(x**d, x.params.one())
    if verdict == "fails":
        return False
    if verdict == "indeterminate":
        raise IndeterminateAtPrecision("x^d - 1 vanishes below the confidence threshold")
    return not any((x ** (d // q) - x.params.one()).is_zero for q in prime_factors(d))


# -- explicit embeddings ----------------------------------------------------------


def embed_q8(params: OrderParams):
    """The quaternion triple (i, j, k) inside the p=2, n=2 order, via the
    square root of -7 and the third root of unity."""
    if (params.p, params.n) != (2, 2) or params.u.val != 1:
        raise ValueError("Q_8 embedding needs p = 2, n = 2, u = 1")
    if params.p_prec < 4:
        raise InsufficientPrecision("need at least 4 digits for the square root of -7")
    t = params.witt
    rho = hensel_sqrt(PadicInt(2, params.p_prec, -7))
    w = t.omega()
    third = pow(3, -1, t.mod)
    third_rho = third * pow(rho.val, -1, t.mod)
    a = (t.one() + w.scale(2)).scale(third)
    b_i = (t.one() - w.scale(4)).scale(third_rho)
    b_j = -(w + t.from_int(5)).scale(third_rho)
    s = params.s()
    i = params.from_witt(a) + params.from_witt(b_i) * s
    j = params.from_witt(a) + params.from_witt(b_j) * s
    return i, j, i * j


def example049_elements(params: OrderParams):
    """The explicit maximal subgroup data at p = 3, n = 4: X, Z, zeta_3, tau."""
    if (params.p, params.n) != (3, 4) or params.u.val != 1:
        raise ValueError("this construction needs p = 3, n = 4, u = 1")
    if params.p_prec < 2:
        raise InsufficientPrecision("need at least 2 digits")
    omega = params.omega()
    x = omega * params.s()
    z = x * x
    zeta3 = -(params.one() + z) * pow(2, -1, params.witt.mod)
    tau = omega**5
    return x, z, zeta3, tau


def witt_norm(w: FieldElem) -> FieldElem:
    """Norm to Z_p: the product of the Frobenius powers sigma^t(w), t < f."""
    out = w.tower.one()
    for t in range(w.tower.f):
        out = out * w.galois_act(t)
    return out


def solve_norm_equation(tower: FieldTower, target: PadicInt) -> FieldElem:
    """A unit c of W_n with N(c) = target, lifted level by level through the
    unit filtration using surjectivity of the residue norm and trace."""
    if not target.is_unit:
        raise NonUnit("norm targets must be units")
    p, prec = tower.p, tower.prec
    c = tower.teichmuller(tower.residue.solve_norm(target.val))
    for k in range(1, prec):
        cur = witt_norm(c).coeffs[0]
        diff = (target.val - cur) % p**prec
        if diff % p**k != 0:
            raise AssertionError("lift invariant broken")
        d = diff // p**k % p
        if d == 0:
            continue
        # N(c(1 + e p^k)) = N(c)(1 + Tr(e) p^k) mod p^(k+1)
        scale = pow(cur, -1, p ** (k + 1))
        e = tower.residue.solve_trace(d * scale % p)
        c = c * (tower.one() + tower.teichmuller(e).scale(p**k))
    return c


def xi_generator(params: OrderParams, target_u=None) -> OrderElem:
    """xi = cS with xi^n = p * target_u; conjugation by xi is the Frobenius."""
    if target_u is None:
        target_u = params.u
    if not isinstance(target_u, PadicInt):
        target_u = PadicInt(params.p, params.p_prec, int(target_u))
    want = target_u * params.u.invert()
    if want == PadicInt(params.p, want.prec, 1):
        return params.s()
    c = solve_norm_equation(params.witt, want)
    return params.from_witt(c) * params.s()
