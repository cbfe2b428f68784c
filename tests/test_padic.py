import random

import pytest
from hypothesis import given, strategies as st

from stabforge.errors import NonUnit, NotASquare
from stabforge.padic import (
    PadicInt,
    format_literal,
    hensel_sqrt,
    parse_literal,
    teichmuller_lift,
)


def test_from_integer_examples():
    assert PadicInt(2, 4, -7).digits == (1, 0, 0, 1)  # -7 = 9 mod 16
    assert PadicInt(3, 5, 0).digits == (0, 0, 0, 0, 0)
    assert PadicInt(5, 3, 5).digits == (0, 1, 0)


def test_mul_and_invert_examples():
    minus_one = PadicInt(7, 6, -1)
    assert minus_one * minus_one == PadicInt(7, 6, 1)
    three = PadicInt(2, 4, 3)
    assert three.invert().val == 11  # 3 * 11 = 33 = 1 mod 16
    with pytest.raises(NonUnit):
        PadicInt(2, 8, 2).invert()


def test_precision_drops_to_min():
    a = PadicInt(3, 6, 10)
    b = PadicInt(3, 2, 4)
    assert (a * b).prec == 2
    assert (a + b).prec == 2


@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([2, 3, 5, 7]),
)
def test_ring_axioms(a, b, c, p):
    n = 8
    x, y, z = (PadicInt(p, n, t) for t in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x


def test_teichmuller_examples():
    assert teichmuller_lift(2, 3, 6) == PadicInt(3, 6, -1)
    assert teichmuller_lift(1, 5, 6) == PadicInt(5, 6, 1)
    w = teichmuller_lift(2, 5, 8)
    assert w.val % 5 == 2
    assert w**4 == PadicInt(5, 8, 1)
    # independent oracle: iterate x -> x^5 to its fixed point
    x = 2
    for _ in range(20):
        x = pow(x, 5, 5**8)
    assert w.val == x


def test_teichmuller_every_precision():
    for p in (2, 3, 5, 7):
        for c in range(1, p):
            for n in range(1, 8):
                w = teichmuller_lift(c, p, n)
                assert w ** (p - 1) == PadicInt(p, n, 1)
                assert w.val % p == c


def test_hensel_sqrt_minus_seven():
    u = PadicInt(2, 12, -7)
    r = hensel_sqrt(u)
    assert r * r == u


def test_hensel_sqrt_branches_and_failures():
    assert hensel_sqrt(PadicInt(3, 6, 4)).val == 2
    with pytest.raises(NotASquare):
        hensel_sqrt(PadicInt(5, 6, 2))
    with pytest.raises(NotASquare):
        hensel_sqrt(PadicInt(2, 6, 3))
    with pytest.raises(NonUnit):
        hensel_sqrt(PadicInt(5, 4, 5))


def test_hensel_sqrt_randomized_roundtrip():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 11):
        for _ in range(25):
            n = rng.randint(3, 14)
            x = PadicInt(p, n, rng.randrange(1, p**n))
            if not x.is_unit:
                continue
            sq = x * x
            r = hensel_sqrt(sq)
            assert r * r == sq
            # deterministic: smallest canonical representative
            assert r.val <= (-r).val


def test_exact_div_by_p():
    x = PadicInt(3, 5, 18)
    assert x.exact_div_by_p() == PadicInt(3, 4, 6)
    with pytest.raises(NonUnit):
        PadicInt(3, 5, 5).exact_div_by_p()


def test_literal_roundtrip():
    x = PadicInt(3, 6, 35)
    assert parse_literal(format_literal(x)) == x
    assert parse_literal("p:2 [1,0,0,1]") == PadicInt(2, 4, 9)
