"""Finite quotients of principal-unit filtrations and power-class decisions.

The group U_1/U_N of a cyclotomic tower is a finite p-group filtered by
levels whose graded pieces are copies of the residue field.  Subgroups such
as <mu cap U_1, U_1^k> are held as saturated multiplicative echelons, and
membership is decided by greedy level-by-level reduction.  A "false" answer
is sound at any depth; a "true" answer is sound once U_N lies inside the
span, which holds at default_depth(p, alpha, k) for every k.

Every power class, in epsilon_test and is_kth_power alike, is decided by one
call: membership(x, subgroup_span(FiltrationQuotient(tower, default_depth(p,
alpha, k)), k, mu)).  Only the prime-to-p part of a unit is read off the
residue field.  is_kth_power serves as the cross-check of epsilon_test.

The engine takes no Teichmueller lift and inverts no tower element, since the
answer needs neither: level generators 1 + p^v beta^j pi^r are written as
coefficient lists, membership drops the torsion part of x by the (q-1)-th
power (prime to p, so it permutes U_1/U_depth and the span), reduction
multiplies by non-negative powers of entries, and epsilon_test divides by u
as an integer mod p^prec.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import DepthTooSmall, IndeterminateAtPrecision, InsufficientPrecision, NonUnit
from .intarith import check_params, divisors, multiplicative_order, split_p
from .localfield import FieldElem, FieldTower, epsilon_alpha, euler_phi_prime_power
from .padic import PadicInt


def default_depth(p: int, alpha: int, k: int) -> int:
    """Quotient depth at which <mu cap U_1, U_1^k> absorbs the tail U_N.

    With k = p^j * (prime to p), the graded image of U_1^(p^j) is the full
    residue field at every level above p^alpha + (j-1) phi(p^alpha): one p-th
    power map fills levels above p^alpha, and each further one shifts by the
    valuation of p.  (In particular 2^alpha + 2 does NOT close for p = 2,
    k = 4; the exhaustive check in the tests confirms the bound used here.)
    Unramified towers use the p-digit analogue.
    """
    check_params(p, alpha, k=k)
    j, _ = split_p(k, p)
    if alpha == 0:
        return 2 * j + 2 if p == 2 else j + 2
    if j == 0:
        return 3
    return p**alpha + (j - 1) * euler_phi_prime_power(p, alpha) + 2


@dataclass(frozen=True)
class FiltrationQuotient:
    """The quotient U_1/U_depth of the tower's principal units."""

    tower: FieldTower
    depth: int

    def __post_init__(self):
        if self.depth < 2:
            raise DepthTooSmall("depth must be at least 2")
        if self.tower.pi_prec < self.depth + self.tower.e:
            raise DepthTooSmall(
                f"tower precision supports pi^{self.tower.pi_prec}, need depth {self.depth} plus guard"
            )

    @classmethod
    def standard(cls, p: int, f: int, alpha: int, k: int) -> "FiltrationQuotient":
        depth = default_depth(p, alpha, k)
        tower = FieldTower.for_pi_prec(p, f, alpha, depth + 2 * euler_phi_prime_power(p, alpha))
        return cls(tower, depth)

    def level_generators(self):
        """1 + p^v beta^j pi^r for each level i = v e + r, 1 <= i < depth, and j < f.
        At level i their leading residues are c^v X^j, c the residue of p/pi^e
        (FieldElem.leading_residue): an F_p-basis of F_q, so they generate U_1/U_depth."""
        t = self.tower
        for i in range(1, self.depth):
            v, r = divmod(i, t.e)
            for j in range(t.f):
                flat = [1] + [0] * (t.e * t.f - 1)
                flat[r * t.f + j] += t.p**v  # below p^prec by the depth guard
                yield FieldElem(t, flat)


class SubgroupEchelon:
    """A saturated echelon of generators of a subgroup of U_1/U_depth.

    Entries are indexed by (level, pivot) with strictly increasing leading
    terms.  Each entry is a unit 1 mod pi stored as insert reduced it, not
    rescaled, with its leading residue vector.  Reduction multiplies only by
    non-negative powers of entries, so no inverse is ever taken.
    """

    def __init__(self, quotient: FiltrationQuotient):
        self.quotient = quotient
        self.entries: dict = {}

    def _leading(self, x: FieldElem):
        """(level, residue vector) of x - 1, or None when x = 1 mod pi^depth."""
        t = self.quotient.tower
        y = x - t.one()
        if y.is_zero:
            return None
        level = y.pi_level()
        if level >= self.quotient.depth:
            return None
        return level, y.leading_residue(level)

    def reduce(self, x: FieldElem):
        """Divide out entries greedily; returns the reduced unit (1 if member).

        Multiplying by h^(p - m) cancels the pivot digit as h^(-m) would: the
        two differ by h^p, which saturation has put in the span.
        """
        p = self.quotient.tower.p
        while True:
            lead = self._leading(x)
            if lead is None:
                return x
            level, vec = lead
            pivot = next(j for j, c in enumerate(vec) if c)
            entry = self.entries.get((level, pivot))
            if entry is None:
                return x
            h, hvec = entry
            m = vec[pivot] * pow(hvec[pivot], -1, p) % p
            x = x * h ** (p - m)

    def insert(self, x: FieldElem):
        """Add a generator, then saturate with its p-th power chain."""
        p = self.quotient.tower.p
        work = [x]
        while work:
            g = self.reduce(work.pop())
            lead = self._leading(g)
            if lead is None:
                continue
            level, vec = lead
            pivot = next(j for j, c in enumerate(vec) if c)
            self.entries[(level, pivot)] = (g, vec)
            work.append(g**p)

    def __contains__(self, x: FieldElem) -> bool:
        return self._leading(self.reduce(x)) is None

    def __len__(self):
        return len(self.entries)


def subgroup_span(quotient: FiltrationQuotient, k: int, include_mu_torsion: bool) -> SubgroupEchelon:
    """Echelon closure of <zeta_{p^alpha} if included, U_1^k> inside U_1/U_depth."""
    t = quotient.tower
    if t.alpha >= 1 and quotient.depth < default_depth(t.p, t.alpha, k):
        raise DepthTooSmall(
            f"depth {quotient.depth} below the closing depth {default_depth(t.p, t.alpha, k)}"
        )
    span = SubgroupEchelon(quotient)
    if include_mu_torsion and t.alpha >= 1:
        span.insert(t.zeta())
    for g in quotient.level_generators():
        span.insert(g**k)
    return span


def membership(x: FieldElem, span: SubgroupEchelon) -> bool:
    """Is the U_1 part w of the unit x = tau w (tau in mu_(q-1)) in the span?  x^(q-1)
    = w^(q-1), and q - 1 is prime to p, so that power permutes the p-group
    U_1/U_depth and the span: w^(q-1) is in the span exactly when w is."""
    if not x.is_unit:
        raise NonUnit("only units project to U_1")
    return x ** (x.tower.residue.q - 1) in span


def verify_depth_closure(p: int, alpha: int, k: int) -> bool:
    """Check that U_N with N = default depth lies in <mu cap U_1, U_1^k> by
    testing every level generator of levels N <= i < N + phi(p^alpha) + 1
    inside U_1/U_(N + phi(p^alpha) + 1) of the tower with f = 1."""
    n0 = default_depth(p, alpha, k)
    e = euler_phi_prime_power(p, alpha)
    deep = FiltrationQuotient(FieldTower.for_pi_prec(p, 1, alpha, n0 + 3 * e + 1), n0 + e + 1)
    span = subgroup_span(deep, k, include_mu_torsion=True)
    # f = 1: one generator per level, from level 1 up
    return all(g in span for g in itertools.islice(deep.level_generators(), n0 - 1, None))


# -- the epsilon test and r1 ------------------------------------------------------


def normalize_unit(u, p: int, prec: int) -> PadicInt:
    """u (an integer, or a PadicInt known to at least prec digits) as a unit mod p^prec."""
    if isinstance(u, PadicInt):
        if u.p != p:
            raise ValueError(f"unit literal '{u}' has prime {u.p}, expected p = {p}")
        if u.prec < prec:
            raise InsufficientPrecision(f"unit literal '{u}' has {u.prec} digits; the requested test needs {prec}")
        u = u.reduce(prec)
    else:
        u = PadicInt(p, prec, int(u))
    if not u.is_unit:
        raise NonUnit(f"u must be a unit, got {u.val} mod {p}^{prec}")
    return u


def _f0_n_alpha(p: int, n: int, alpha: int, d: int) -> int:
    """n_alpha = n / phi(p^alpha), once F_0 = C_(p^alpha d) is checked to embed at
    height n: phi(p^alpha) divides n and d divides p^n_alpha - 1 (ValueError if not)."""
    e0 = euler_phi_prime_power(p, alpha)
    if n % e0 or pow(p, n // e0, d) != 1 % d:
        raise ValueError(
            f"F_0 = C_(p^alpha d) does not embed at p = {p}, n = {n}, alpha = {alpha}, d = {d}:"
            f" phi(p^alpha) = {e0} must divide n and d must divide p^(n/{e0}) - 1"
        )
    return n // e0


def epsilon_test(p: int, n: int, alpha: int, d: int, u, r1: int) -> bool:
    """Is the class of epsilon_alpha/u trivial in Z_p(F_0)^x / <F_0, (Z_p(F_0)^x)^r1>?

    The prime-to-p part r' of r1 is decided on residue-field torsion (the
    free part of the unit group is divisible by it): epsilon_alpha = -1 mod
    pi, so the residue of epsilon/u is -1/u in F_p, tested against
    <mu_d, (F_q^x)^r'> = (F_q^x)^gcd((q-1)/d, r') in the cyclic F_q^x.  The
    p-part p^j by filtration membership against <zeta_{p^alpha}, U_1^(p^j)>.
    """
    check_params(p, n=n, d=d, r1=r1)
    if alpha < 1:
        raise ValueError("epsilon_test needs alpha >= 1")
    n_alpha = _f0_n_alpha(p, n, alpha, d)
    if euler_phi_prime_power(p, alpha) % r1:
        raise ValueError("r1 must divide phi(p^alpha)")
    j, r_prime = split_p(r1, p)
    f = multiplicative_order(p, d, n_alpha)
    # u mod p^(j+2) fixes the class: every element of 1 + p^(j+2) Z_p is a p^j-th power
    u = normalize_unit(u, p, max(3, j + 2))
    q1 = p**f - 1
    if pow(-pow(u.val, -1, p), q1 // math.gcd(q1 // d, r_prime), p) != 1:
        return False
    if j == 0:
        return True
    quotient = FiltrationQuotient.standard(p, f, alpha, p**j)
    t = quotient.tower
    x = epsilon_alpha(t).scale(pow(u.val, -1, t.mod))  # an integer's inverse mod p^prec is its tower inverse
    return membership(x, subgroup_span(quotient, p**j, include_mu_torsion=True))


def _cor115_branch(u, d: int):
    """Cor 115 at p = 2, alpha >= 2: the branch admitting r1 = 2, "u-pm1" when
    u = +-1 mod 8 or "zeta3" when 3 | d, and None when neither holds."""
    if normalize_unit(u, 2, 3).val % 8 in (1, 7):
        return "u-pm1"
    return "zeta3" if d % 3 == 0 else None


@dataclass(frozen=True)
class R1Verdict:
    admissible: tuple
    maximal: int
    branch: str


@dataclass(frozen=True)
class R2Verdict:
    admissible: tuple
    maximal: int
    branch: str
    field_counts: dict = field(default_factory=dict, compare=False)


def r1_max(p: int, n: int, alpha: int, d: int, u) -> R1Verdict:
    """Largest r1 with a valuation-1/r1 extension of F_0 x <pu>, with the
    divisor-closed admissible set and the deciding theorem branch."""
    check_params(p, alpha, n=n, d=d)
    normalize_unit(u, p, 1)
    n_alpha = _f0_n_alpha(p, n, alpha, d)
    if alpha == 0:
        return R1Verdict((1,), 1, "cor202-alpha0" if p > 2 else "alpha-le-1")
    if p == 2:
        if alpha <= 1:
            return R1Verdict((1,), 1, "alpha-le-1")
        branch = _cor115_branch(u, d)
        if branch:
            return R1Verdict((1, 2), 2, f"cor115-{branch}")
        return R1Verdict((1,), 1, "cor115-trivial")
    # p odd, alpha >= 1: the p-part is excluded (trivially for alpha = 1, by
    # the non-triviality of epsilon_alpha for alpha >= 2); prime-to-p divisors
    # of p-1 are admitted by the residue class of epsilon/u
    if d == p**n_alpha - 1:
        return R1Verdict(divisors(p - 1), p - 1, "cor202")
    admissible = tuple(r for r in divisors(p - 1) if epsilon_test(p, n, alpha, d, u, r))
    return R1Verdict(admissible, max(admissible), "thm098-residue")


def r2_admissible(p: int, n: int, alpha: int, d: int, u, r1: int) -> R2Verdict:
    """Divisors r2 admitting a degree-r2 field extension of Q_p(F_0) inside the
    algebra, via the greatest allowed divisor of n/[Q_p(F_0):Q_p]."""
    check_params(p, alpha, n=n, d=d, r1=r1)
    normalize_unit(u, p, 1)
    e0 = euler_phi_prime_power(p, alpha)
    # [Q_p(F_0):Q_p] = e0 ord_d(p) divides n exactly when F_0 embeds
    n_alpha = _f0_n_alpha(p, n, alpha, d)
    quota = n_alpha // multiplicative_order(p, d, n_alpha)
    cap = p - 1 if p > 2 else 2
    bound = math.gcd(e0, cap)
    if bound % r1:
        raise ValueError(f"r1 must divide gcd(phi(p^alpha), {cap}) = {bound}, got {r1}")
    if e0 == 1:
        coprime_to, branch = 1, "unramified"
    elif p > 2:
        coprime_to, branch = (p - 1) // r1, "thm223"
    elif _cor115_branch(u, d):
        coprime_to, branch = 2 // r1, "thm225-full"
    else:
        coprime_to, branch = 1, "thm225-restricted"
    r_f = quota
    g = math.gcd(r_f, coprime_to)
    while g > 1:
        r_f //= g
        g = math.gcd(r_f, coprime_to)
    counts = {r2: math.gcd(p**alpha, r2) * math.gcd(d, r2) for r2 in divisors(r_f)}
    return R2Verdict(divisors(r_f), r_f, branch, counts)


# -- k-th powers: the cross-check of epsilon_test -----------------------------------


def _strip_pi(x: FieldElem, m: int) -> FieldElem:
    for _ in range(m):
        x = x.div_pi()
    return x


def _unit_is_kth_power(x: FieldElem, k: int) -> bool:
    """x a unit of the tower; decide x in (O^x)^k."""
    t = x.tower
    if not t.residue.is_power(x.residue_vector(), math.gcd(k, t.p**t.f - 1)):
        return False
    if k % t.p:
        return True
    quotient = FiltrationQuotient(t, default_depth(t.p, t.alpha, k))  # DepthTooSmall if t is too shallow
    return membership(x, subgroup_span(quotient, k, include_mu_torsion=False))


def is_kth_power(x: FieldElem, k: int) -> bool:
    """Decide x in (K^x)^k for the tower's fraction field."""
    if x.is_zero:
        raise IndeterminateAtPrecision("zero at working precision")
    m = x.pi_level()
    if m % k:
        return False
    return _unit_is_kth_power(_strip_pi(x, m), k)
