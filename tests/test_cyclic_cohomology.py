import itertools
import math
import random

import pytest

from stabforge.cohomology import (
    CohomologyGroup,
    CycModule,
    divisor_chain,
    finite_order_exponent,
    golden_suite,
    kernel_columns,
    mat_identity,
    mat_mul,
    smith_invariants,
)
from stabforge.errors import BadAction


def test_smith_invariants_basics():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    # the classical example with invariant factors 2, 2, 156
    assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_invariants([[0, 0], [0, 0]]) == []


def test_smith_vs_determinant_randomized():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = _det(a)
        inv = smith_invariants(a)
        prod = 1
        for d in inv:
            prod *= d
        if det != 0:
            assert len(inv) == n and prod == abs(det)


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    out = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        out += (-1) ** j * a[0][j] * _det(minor)
    return out


def _minor_gcd(a, i):
    """gcd of all i x i minors of a."""
    g = 0
    for rows in itertools.combinations(range(len(a)), i):
        for cols in itertools.combinations(range(len(a[0])), i):
            g = math.gcd(g, _det([[a[r][c] for c in cols] for r in rows]))
    return g


def test_smith_matches_determinantal_divisors():
    # d_1 ... d_i is the gcd of the i x i minors, and there are rank-many factors
    rng = random.Random(22)
    for _ in range(300):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(k)] for _ in range(m)]
        inv = smith_invariants(a)
        rank = max((i for i in range(1, min(m, k) + 1) if _minor_gcd(a, i)), default=0)
        assert len(inv) == rank, a
        prod = 1
        for i, d in enumerate(inv, 1):
            prod *= d
            assert prod == _minor_gcd(a, i), a


def test_kernel_columns():
    ker = kernel_columns([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert kernel_columns([[1, 0], [0, 1]]) == []


def test_divisor_chain():
    assert divisor_chain([2, 3]) == [1, 6]
    assert divisor_chain([4, 6]) == [2, 12]
    assert divisor_chain([2, 2, 156]) == [2, 2, 156]
    assert divisor_chain([1, 1]) == [1, 1]
    assert divisor_chain([12, 8, 3]) == [1, 12, 24]


def test_spec_example_215():
    # M = Z + Z/(p^n - 1), t = id + (mult by p), r = n
    p, n = 3, 2
    m = CycModule(1, (p**n - 1,), [[1, 0], [0, p]], n)
    assert m.h_odd() == CohomologyGroup(0, ())
    assert m.h_even() == CohomologyGroup(0, (n,))
    assert m.h0() == CohomologyGroup(1, (p - 1,))


def test_spec_example_trivial_action():
    # trivial action of C_r on Z/m gives H^even = Z/gcd(r, m)
    for r, mm in [(4, 6), (3, 9), (5, 7)]:
        m = CycModule(0, (mm,), [[1]], r)
        g = math.gcd(r, mm)
        assert m.h_even() == CohomologyGroup(0, (g,) if g > 1 else ())
        assert m.h_odd() == CohomologyGroup(0, (g,) if g > 1 else ())


def test_spec_example_241_matrix():
    m = CycModule(1, (4,), [[1, 0], [1, -1]], 2)
    assert m.h_odd() == CohomologyGroup(0, ())
    assert m.h_even() == CohomologyGroup(0, (2,))


def test_bad_action_rejected():
    with pytest.raises(BadAction):
        CycModule(1, (4,), [[1, 0], [0, 2]], 2)  # 2 has order > 2 mod 4... and breaks T^r
    with pytest.raises(BadAction):
        CycModule(1, (3,), [[1, 1], [0, 1]], 3)  # torsion cannot map to the free part


def test_finite_order_exponent():
    # the orders of finite-order elements of GL_a(Z): +-1, then 3, 4, 6 at a = 2, then 5, 8, 10 at a = 4
    assert [finite_order_exponent(a) for a in range(6)] == [1, 2, 12, 12, 120, 120]
    # a 2 x 2 matrix with small entries that reaches I by power 24 gets there at a divisor of 12
    for entries in itertools.product(range(-2, 3), repeat=4):
        t = [list(entries[:2]), list(entries[2:])]
        power = t
        for k in range(1, 25):
            if power == mat_identity(2):
                assert 12 % k == 0, (t, k)
                break
            power = mat_mul(power, t)


def test_golden_suite_all_match():
    report = golden_suite()
    assert len(report) >= 12
    for tag, ok, details in report:
        assert ok, f"{tag}: {details}"


def _random_finite_module(rng):
    b = rng.randint(1, 3)
    torsion = [rng.choice([2, 3, 4, 5, 8, 9, 12]) for _ in range(b)]
    # diagonal unit actions t_i with t_i^r = 1 mod d_i, plus compatible mixing
    r = rng.choice([2, 3, 4, 6])
    diag = []
    for d in torsion:
        units = [u for u in range(1, d) if _gcd(u, d) == 1 and pow(u, r, d) == 1]
        diag.append(rng.choice(units))
    t = [[diag[i] if i == j else 0 for j in range(b)] for i in range(b)]
    # add a strictly lower mixing entry where the relations allow it
    for _ in range(2):
        i, j = rng.randrange(b), rng.randrange(b)
        if i <= j:
            continue
        c = rng.randint(0, 3) * torsion[i] // _gcd(torsion[i], torsion[j])
        t[i][j] = (t[i][j] + c) % torsion[i]
    try:
        return CycModule(0, tuple(torsion), t, r)
    except BadAction:
        return None


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_herbrand_quotient_on_random_finite_modules():
    rng = random.Random(2024)
    count = 0
    while count < 100:
        m = _random_finite_module(rng)
        if m is None:
            continue
        count += 1
        assert m.h_odd().order == m.h_even().order


def test_periodicity_consistency():
    # H^even as ker(1-t)/im(N) agrees with H^2 of the explicit 3-term truncation
    # N -> (1-t) -> N read off the same matrices, so recompute via h_odd of the
    # shifted complex: swapping the roles of the maps swaps odd and even
    p, n = 3, 2
    m = CycModule(1, (p**n - 1,), [[1, 0], [0, p]], n)
    swapped = m._subquotient(m._kernel_subgroup(m._one_minus_t()), m._image_subgroup(m.norm))
    assert swapped == m.h_even()

