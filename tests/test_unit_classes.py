import itertools
import math
import random

import pytest

from stabforge import unitclasses
from stabforge.errors import DepthTooSmall
from stabforge.intarith import divisors, multiplicative_order
from stabforge.localfield import FieldElem, FieldTower, epsilon_alpha, euler_phi_prime_power
from stabforge.unitclasses import (
    FiltrationQuotient,
    R1Verdict,
    default_depth,
    epsilon_test,
    is_kth_power,
    membership,
    r1_max,
    r2_admissible,
    subgroup_span,
    verify_depth_closure,
)


def test_span_contains_generators_and_products():
    q = FiltrationQuotient.standard(3, 1, 2, 3)
    span = subgroup_span(q, 3, include_mu_torsion=True)
    t = q.tower
    assert membership(t.zeta(), span)
    rng = random.Random(17)
    for _ in range(20):
        y = t.one()
        for _ in range(3):
            i = rng.randrange(1, q.depth)
            c = rng.randrange(1, 3)
            y = y * (t.one() + t.teichmuller((c,)) * t.pi() ** i) ** 3
        y = y * t.zeta() ** rng.randrange(9)
        assert membership(y, span)


def test_leading_digit_obstruction():
    # 1 + pi^j for j < p^alpha, j prime to p, j >= 2 is not in <mu cap U_1, U_1^p>
    q = FiltrationQuotient.standard(3, 1, 2, 3)
    span = subgroup_span(q, 3, include_mu_torsion=True)
    t = q.tower
    for j in (2, 4, 5, 7, 8):
        x = t.one() + t.pi() ** j
        assert not membership(x, span)


def test_remark_197_tail_is_absorbed():
    # every element of U_{p^alpha + 1} reduces to the identity coset
    q = FiltrationQuotient.standard(3, 1, 2, 3)
    span = subgroup_span(q, 3, include_mu_torsion=True)
    t = q.tower
    for c in (1, 2):
        x = t.one() + t.teichmuller((c,)) * t.pi() ** (3**2 + 1)
        assert membership(x, span)


def test_lemma_203_fourth_power_leading_term():
    # (1 + a pi)^4 = 1 + a^4 pi^4 mod pi^5 at level 1 for p = 2, alpha = 3
    q = FiltrationQuotient.standard(2, 1, 3, 4)
    t = q.tower
    g = (t.one() + t.pi()) ** 4
    assert g.congruent(t.one() + t.pi() ** 4, 5)


def test_depth_closure_open_question():
    # N = 2^alpha + 2 absorbs the tail for k = 4 at alpha = 3 and 4
    assert verify_depth_closure(2, 3, 4)
    assert verify_depth_closure(2, 4, 4)


@pytest.mark.parametrize("p, alpha, k", [(2, 3, 8), (2, 4, 8), (3, 2, 9), (3, 3, 9), (5, 2, 25)])
def test_depth_closure_at_higher_p_powers(p, alpha, k):
    # N = p^alpha + (j - 1) phi(p^alpha) + 2 for k = p^j with j beyond 2 (p = 2) or 1 (odd p)
    assert verify_depth_closure(p, alpha, k)


def test_depth_too_small():
    t = FieldTower.for_pi_prec(3, 1, 2, 20)
    with pytest.raises(DepthTooSmall):
        subgroup_span(FiltrationQuotient(t, 5), 3, include_mu_torsion=True)


def test_theorem_200_membership_false():
    # epsilon_alpha / u is not in <mu, cubes> for p = 3, alpha in {2, 3}
    for alpha in (2, 3):
        q = FiltrationQuotient.standard(3, 1, alpha, 3)
        span = subgroup_span(q, 3, include_mu_torsion=True)
        t = q.tower
        eps = epsilon_alpha(t)
        for u in (1, 2, 4):
            x = eps * t.from_int(u).invert()
            assert not membership(x, span)


def test_theorem_113_membership_false():
    # epsilon_alpha not in <mu, fourth powers> for p = 2, alpha in {3, 4}
    for alpha in (3, 4):
        q = FiltrationQuotient.standard(2, 1, alpha, 4)
        span = subgroup_span(q, 4, include_mu_torsion=True)
        assert not membership(epsilon_alpha(q.tower), span)


def test_membership_agrees_with_enumeration_small(monkeypatch):
    # alpha = 1, f = 1: enumerate the span subgroup of U_1/U_depth by closure
    # and compare with the echelon verdicts.  At p = 5 reduce meets pivot
    # digits other than 1 and p - 1.  The echelon never inverts.
    def no_invert(self):
        raise AssertionError("the echelon inverted an element")

    monkeypatch.setattr(FieldElem, "invert", no_invert)
    for p in (3, 5):
        q = FiltrationQuotient.standard(p, 1, 1, p)
        t = q.tower
        span = subgroup_span(q, p, include_mu_torsion=True)

        def key(x):
            return tuple(tuple(d) for d in x.pi_digit_expansion(q.depth))

        gens = [t.zeta()] + [g**p for g in q.level_generators()]
        seen = {key(t.one()): t.one()}
        frontier = [t.one()]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = cur * g
                k = key(nxt)
                if k not in seen:
                    seen[k] = nxt
                    frontier.append(nxt)
        rng = random.Random(23)
        for _ in range(40):
            x = t.one()
            for i in range(1, q.depth):
                c = rng.randrange(p)
                if c:
                    x = x * (t.one() + t.teichmuller((c,)) * t.pi() ** i)
            assert membership(x, span) == (key(x) in seen)
        for y in rng.sample(sorted(seen), min(20, len(seen))):
            assert membership(seen[y], span)
            x = seen[y] * (t.one() + t.pi() ** rng.randrange(1, q.depth))
            assert membership(x, span) == (key(x) in seen)


def project_to_principal_units(x):
    """The oracle: the U_1 part x / teich(residue of x) of a unit, by a Teichmueller
    lift and an inverse, which membership replaces by the (q-1)-th power."""
    return x * x.tower.teichmuller(x.residue_vector()).invert()


# (p, alpha, f, k) with p in {2, 3, 5, 7}, alpha in {0, 1, 2}, f in {1, 2, 3}, k in {p, p^2}
CORNERS = [(p, a, f, k) for p, a, f in itertools.product((2, 3, 5, 7), (0, 1, 2), (1, 2, 3)) for k in (p, p * p)]
# the largest corners, left out where spans are built: each span pair takes 0.2-1.6 s
SLOW_SPANS = {(7, 2, 2, 7), (7, 2, 2, 49), (7, 2, 3, 7), (7, 2, 3, 49), (5, 2, 3, 25)}


def test_membership_agrees_with_the_teichmueller_projection():
    # membership(x) decides x^(q-1) in span; the oracle projects x to U_1 and
    # tests the projection.  Units are drawn with residue other than 1 wherever
    # F_q^x is not trivial, so the torsion part is a real Teichmueller digit.
    verdicts = []
    for p, alpha, f, k in CORNERS:
        if (p, alpha, f, k) in SLOW_SPANS:
            continue
        q = FiltrationQuotient.standard(p, f, alpha, k)
        t = q.tower
        rng = random.Random(f"{p}:{alpha}:{f}:{k}")

        def unit():
            while True:
                x = FieldElem(t, [rng.randrange(t.mod) for _ in range(t.e * t.f)])
                r = x.residue_vector()
                if any(r) and (r != t.residue.one or t.residue.q == 2):
                    return x

        for mu in (False, True):
            span = subgroup_span(q, k, include_mu_torsion=mu)
            y = unit()
            tail = t.one() + t.pi() ** rng.randrange(1, q.depth)
            for x in (y, unit() * y**k, y**k * tail, y**k * t.zeta()):
                want = project_to_principal_units(x) in span
                assert membership(x, span) == want, (p, alpha, f, k, mu)
                verdicts.append(want)
    assert (len(verdicts), sum(verdicts)) == (536, 102)


def _rank_mod_p(rows, p):
    """The rank over F_p of integer row vectors, by Gaussian elimination."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col] * inv
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_level_generators_span_every_graded_piece():
    # at each level 1 <= i < depth, the f generators lie in U_i and their
    # leading residues have rank f over F_p, so they fill U_i/U_(i+1)
    for p, alpha, f, k in CORNERS:
        q = FiltrationQuotient.standard(p, f, alpha, k)
        t = q.tower
        gens = list(q.level_generators())
        assert len(gens) == (q.depth - 1) * f
        for level in range(1, q.depth):
            leads = [g - t.one() for g in gens[(level - 1) * f : level * f]]
            assert all(y.pi_level() == level for y in leads), (p, alpha, f, k, level)
            assert _rank_mod_p([y.leading_residue(level) for y in leads], p) == f, (p, alpha, f, k, level)


def test_epsilon_test_examples():
    # example: p odd, u a root of unity, r1 = p-1 is admissible (maximal F_0)
    assert epsilon_test(3, 2, 1, 2, 1, 2)
    assert epsilon_test(3, 2, 1, 2, -1, 2)
    assert epsilon_test(5, 4, 1, 4, 1, 4)
    # non-maximal F_0 can block the prime-to-p part: -1 is not in <C_3, squares>
    assert not epsilon_test(3, 2, 1, 1, 1, 2)
    # example: p = 2, alpha = 2, u = 1, r1 = 2
    assert epsilon_test(2, 2, 2, 1, 1, 2)
    # p = 3, alpha = 2, r1 = 3 is never admissible
    for u in (1, 2, 4, 5):
        assert not epsilon_test(3, 6, 2, 2, u, 3)


def test_epsilon_test_decides_the_p_part_with_one_span(monkeypatch):
    # Cor 202 at p = 3, alpha = 3, r1 = 9: epsilon/u is not a 9th power class
    # mod zeta; one span at k = 9 decides it, with no detour through k = 3
    spans = []
    real = unitclasses.subgroup_span
    monkeypatch.setattr(unitclasses, "subgroup_span", lambda q, k, **kw: spans.append(k) or real(q, k, **kw))
    for u in (1, 2):
        assert not epsilon_test(3, 18, 3, 1, u, 9)
    assert spans == [9, 9]


def _residue_test_reference(tower, d, r_prime, u):
    """The residue-field computation epsilon_test used to make: the residue of
    epsilon_alpha / u, read off the tower, against <mu_d, (F_q^x)^r'>."""
    p, q1 = tower.p, tower.p**tower.f - 1
    vec = tuple(c * pow(u, -1, p) % p for c in epsilon_alpha(tower).residue_vector())
    return tower.residue.is_power(vec, math.gcd(q1 // d, r_prime))


def test_residue_test_matches_the_residue_field_reference():
    # every d of order f (p^f <= 20000, f <= 6), r' | p - 1 and unit u mod p;
    # r1 = r' is prime to p, so epsilon_test reads only the residue
    cases = 0
    for p in (2, 3, 5, 7):
        for f in range(1, 7):
            if p**f > 20000:
                break
            tower = FieldTower(p, f, 1, 2)
            for d in divisors(p**f - 1):
                if multiplicative_order(p, d, f) != f:
                    continue
                for r_prime in divisors(p - 1):
                    for u in range(1, p):
                        want = _residue_test_reference(tower, d, r_prime, u)
                        assert epsilon_test(p, (p - 1) * f, 1, d, u, r_prime) == want, (p, f, d, r_prime, u)
                        cases += 1
    assert cases == 2093


def test_epsilon_test_p2_u_branches():
    # u = 3 mod 8 with no zeta_3 blocks r1 = 2; zeta_3 (d = 3) rescues it
    assert not epsilon_test(2, 2, 2, 1, 3, 2)
    assert epsilon_test(2, 2, 2, 1, 7, 2)
    assert epsilon_test(2, 4, 2, 3, 3, 2)


def test_epsilon_test_monotone():
    for r1 in (1, 2, 4):
        assert epsilon_test(5, 4, 1, 4, 7, r1)
    # true at r1 implies true at every divisor
    for p, n, alpha, d, u, r1 in [(3, 2, 1, 2, 2, 2), (2, 4, 2, 3, 5, 2)]:
        if epsilon_test(p, n, alpha, d, u, r1):
            for r in range(1, r1):
                if r1 % r == 0:
                    assert epsilon_test(p, n, alpha, d, u, r)


def test_r1_max_examples():
    v = r1_max(3, 2, 1, 2, 1)
    assert v.maximal == 2 and v.branch == "cor202"
    v = r1_max(2, 2, 2, 1, 3)
    assert v.maximal == 1 and v.branch == "cor115-trivial"
    v = r1_max(2, 4, 2, 3, 3)
    assert v.maximal == 2 and v.branch == "cor115-zeta3"
    v = r1_max(2, 4, 2, 3, 7)
    assert v.maximal == 2 and v.branch == "cor115-u-pm1"
    v = r1_max(3, 4, 0, 80, 1)
    assert v.maximal == 1


def test_r1_verdict_divisor_closed_and_consistent():
    cases = [(3, 2, 1, 2, 2), (3, 6, 2, 2, 4), (5, 4, 1, 4, 3), (2, 4, 2, 3, 5), (2, 2, 2, 1, 7)]
    for p, n, alpha, d, u in cases:
        v = r1_max(p, n, alpha, d, u)
        assert v.maximal in v.admissible
        for r in v.admissible:
            assert v.maximal % r == 0 or r in v.admissible
        # admissible set agrees with the epsilon test
        for r in v.admissible:
            assert epsilon_test(p, n, alpha, d, u, r)


def test_r2_examples():
    v = r2_admissible(3, 2, 1, 2, 1, 2)
    assert v.admissible == (1,) and v.field_counts[1] == 1
    v = r2_admissible(3, 12, 0, 3**4 - 1, 1, 1)  # f = 4, quota = 3
    assert v.admissible == (1, 3) and v.branch == "unramified"
    v = r2_admissible(2, 4, 2, 3, 3, 2)
    assert v.admissible == (1,)
    # p odd: the (p-1)/r1 filter strips the right primes
    v = r2_admissible(3, 12, 1, 2, 1, 1)   # deg = 2, quota = 6, coprime to 2
    assert v.maximal == 3 and v.branch == "thm223"
    v = r2_admissible(3, 12, 1, 2, 1, 2)   # coprime to 1
    assert v.maximal == 6


def brute_force_root_exists(a, m):
    """Digit-DFS oracle: does x^m = a have a root in a's tower?"""
    t = a.tower
    if a.is_zero:
        return True
    units = a.pi_level()
    if units % m:
        return False
    y = a
    for _ in range(units):
        y = y.div_pi()
    # depth beyond the Newton threshold 2 v(m x^(m-1)) for unit candidates
    vp_m = 0
    mm = m
    while mm % t.p == 0:
        mm //= t.p
        vp_m += 1
    depth = 2 * t.e * vp_m + t.e + 2
    if t.pi_prec < depth + t.e:
        raise ValueError("tower too shallow for the oracle")
    reps = [tuple(int(b) for b in _digits(c, t.p, t.f)) for c in range(t.p**t.f)]
    partial = [t.zero()]
    pi_pow = t.one()
    for level in range(depth):
        nxt = []
        for x in partial:
            for rep in reps:
                if level == 0 and all(d == 0 for d in rep):
                    continue
                cand = x + t.teichmuller(rep) * pi_pow if any(rep) else x
                if (cand**m - y).pi_valuation_at_least(level + 1):
                    nxt.append(cand)
        if not nxt:
            return False
        # keep the state space small: candidates equal mod pi^(level+1) coincide
        partial = nxt[:512]
        pi_pow = pi_pow * t.pi()
    return True


def _digits(c, p, f):
    out = []
    for _ in range(f):
        c, d = divmod(c, p)
        out.append(d)
    return out


def test_is_kth_power_basics():
    t = FieldTower.for_pi_prec(3, 1, 1, 24)
    x = t.from_int(5)
    assert is_kth_power(x * x, 2)
    assert is_kth_power((t.one() + t.pi()) ** 3, 3)
    assert not is_kth_power(t.pi(), 2)


def _order(p, d):
    """ord_d(p) by its definition, for d prime to p."""
    return next(t for t in itertools.count(1) if pow(p, t, d) == 1 % d)


def test_epsilon_test_matches_is_kth_power():
    # eps/u lies in <F_0, U^r1> iff some zeta^a w^b eps/u is an r1-th power,
    # with zeta generating mu_(p^alpha), w generating mu_d, a < gcd(r1, p^alpha)
    # and b < gcd(r1, d); every r1 > 1 dividing phi(p^alpha); every d <= d_max
    # with f = ord_d(p) <= 4, then d of order f = 8 at p = 2 and f = 7 at p = 3, 5
    cases = [
        (p, alpha, d)
        for p, alphas, d_max in [(2, (2, 3), 15), (3, (1, 2), 8), (5, (1,), 24), (7, (1,), 48)]
        for alpha, d in itertools.product(alphas, range(1, d_max + 1))
        if d % p and _order(p, d) <= 4
    ]
    cases += [(2, 2, d) for d in (17, 51, 85, 255)] + [(3, 1, 1093), (3, 1, 2186), (5, 1, 19531)]
    verdicts = []
    for p, alpha, d in cases:
        f = _order(p, d)
        e = euler_phi_prime_power(p, alpha)
        for r1 in divisors(e)[1:]:
            t = FieldTower.for_pi_prec(p, f, alpha, default_depth(p, alpha, r1) + 2 * e)
            w = t.omega() ** ((p**f - 1) // d)
            for u in (3, 5) if p == 2 else (1, p + 2):
                x = epsilon_alpha(t) * t.from_int(u).invert()
                coset = itertools.product(range(math.gcd(r1, p**alpha)), range(math.gcd(r1, d)))
                want = any(is_kth_power(t.zeta() ** a * w**b * x, r1) for a, b in coset)
                assert epsilon_test(p, e * f, alpha, d, u, r1) == want, (p, alpha, d, u, r1)
                verdicts.append(want)
    assert (len(verdicts), sum(verdicts)) == (258, 170)


@pytest.mark.parametrize("p, alpha, k", [(2, 1, 8), (2, 2, 8), (3, 1, 9)])
def test_is_kth_power_at_higher_p_powers(p, alpha, k):
    t = FieldTower.for_pi_prec(p, 1, alpha, 24)
    rng = random.Random(f"{p}:{alpha}:{k}")
    verdicts = []
    for _ in range(6):
        y = t.from_grid([[rng.randrange(1, p**4) if i == 0 else rng.randrange(p**4)] for i in range(t.e)])
        if not y.is_unit:
            continue
        for x in (y**k, y**k * (t.one() + t.pi() ** rng.randrange(1, 2 * t.e + 2)), y):
            want = brute_force_root_exists(x, k)
            assert is_kth_power(x, k) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts

