import random

import pytest

from stabforge.errors import IndeterminateAtPrecision, InsufficientPrecision, UnknownName
from stabforge.order import (
    OrderElem,
    OrderParams,
    check_verdict,
    embed_q8,
    example049_elements,
    order_check,
    solve_norm_equation,
    witt_norm,
    xi_generator,
)
from stabforge.padic import PadicInt
from stabforge.relscript import base_environment, eval_expr, run_script


def params22(u=1, p_prec=6):
    return OrderParams(2, 2, u=u, p_prec=p_prec)


def test_twisted_product_basics():
    pa = params22()
    s, w = pa.s(), pa.omega()
    assert s * w == (w * w) * s  # S omega = omega^2 S at p = 2
    assert s * s == pa.from_int(2)  # S^n = p u
    x = pa.from_witt(pa.witt.omega()) + pa.s()
    assert pa.one() * x == x


def test_snw_not_commutative():
    pa = params22()
    s, w = pa.s(), pa.omega()
    assert check_verdict(s * w, w * s) == "fails"


def test_valuations():
    pa = params22()
    # S-adic levels n * v: S has level 1, p = S^2 / u has level 2
    assert pa.s().s_level() == 1
    assert (pa.omega() * pa.s()).s_level() == 1
    assert pa.from_int(2).s_level() == 2
    assert pa.s().invert().s_level() == -1
    i, j, k = embed_q8(pa)
    assert (pa.one() + i).s_level() == 1
    with pytest.raises(IndeterminateAtPrecision):
        pa.zero().s_level()


def test_valuation_additive_randomized():
    rng = random.Random(31)
    pa = OrderParams(3, 2, p_prec=5)
    t = pa.witt
    for _ in range(12):
        def rand_elem():
            coeffs = [t.from_grid([[rng.randrange(27) for _ in range(2)]]) for _ in range(2)]
            from stabforge.order import OrderElem
            return OrderElem(pa, 0, coeffs)
        x, y = rand_elem(), rand_elem()
        if x.is_zero or y.is_zero:
            continue
        assert (x * y).s_level() == x.s_level() + y.s_level()


def test_invert():
    pa = params22()
    s = pa.s()
    assert s.invert() * s == pa.one()
    assert s * s.invert() == pa.one()
    w = pa.omega()
    assert w.invert() == w * w  # torsion of order 3
    i, j, k = embed_q8(pa)
    x = pa.one() + i
    assert x.invert() * x == pa.one()


def test_invert_raises_when_newton_runs_out():
    # Newton's step bound reads p_prec; lowered after construction it stops
    # before the error vanishes at the Witt ring's precision
    pa = params22()
    x = pa.one() + pa.s()
    pa.p_prec = 0
    with pytest.raises(InsufficientPrecision, match="Newton"):
        x.invert()


def series_inverse(x):
    """Reference inverse: peel the leading term t, then sum the geometric
    series (t^-1 x)^-1 = sum (1 - t^-1 x)^k term by term, up to n(p_prec + 1) + 1
    terms, and multiply by t^-1."""
    _total, i, vp = x._leading()
    pa = x.params
    t = pa.witt
    w = x.coeffs[i]
    for _ in range(vp):
        w = w.div_pi()
    w_inv = w.invert()
    if i == 0:
        t_inv = OrderElem(pa, -x.shift - vp, (w_inv,) + tuple(t.zero() for _ in range(pa.n - 1)))
    else:
        coeffs = [t.zero()] * pa.n
        coeffs[pa.n - i] = w_inv.galois_act(pa.n - i) * t.from_int(pa.u.val).invert()
        t_inv = OrderElem(pa, -x.shift - vp - 1, tuple(coeffs))
    y = t_inv * x - pa.one()
    acc, term = pa.one(), -y
    for _ in range(pa.n * (pa.p_prec + 1) + 1):
        if term.is_zero:
            return acc * t_inv
        acc = acc + term
        term = term * (-y)
    raise AssertionError("the reference series did not converge")


def dense_operands(p, n):
    """Seeded operands of the p_prec 6 order with every coefficient drawn: a
    unit, p times a unit (shift 1), and two whose leading term is w S with w a
    unit, the first with every other coefficient divisible by p, the second
    with only the S^0 one.  For the second, 1 - t^-1 x has S-level 1 and shift
    -1: every term of the series lowers the shift, so a longer sum than the
    series' returns fewer digits."""
    pa = OrderParams(p, n, p_prec=6)
    rng = random.Random(f"dense:{p}:{n}")
    mod = p**6

    def draw(shift, lead, divisible):
        rows = [[rng.randrange(mod) * (p if i in divisible else 1) for _ in range(n)] for i in range(n)]
        rows[lead][0] = rng.randrange(1, p) + p * rng.randrange(mod // p)
        return OrderElem(pa, shift, tuple(pa.witt.from_grid([row]) for row in rows))

    return [draw(0, 0, ()), draw(1, 0, ()), draw(0, 1, range(n)), draw(0, 1, (0,))]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 4, 6, 12])
def test_invert_is_two_sided_on_dense_operands(p, n):
    for x in dense_operands(p, n)[:3]:  # the fourth keeps too few digits to decide at n >= 4
        y = x.invert()
        one = x.params.one()
        assert check_verdict(x * y, one) == check_verdict(y * x, one) == "holds"


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3) for n in (2, 4, 6)] + [(3, 12)])
def test_invert_equals_the_geometric_series(p, n):
    # the same coefficients at the same shift; at n = 12 the series takes
    # about 0.5 s, so it checks the unit operand only
    for x in dense_operands(p, n)[: 1 if n == 12 else 4]:
        y, ref = x.invert(), series_inverse(x)
        assert y.shift == ref.shift
        assert [c.coeffs for c in y.coeffs] == [c.coeffs for c in ref.coeffs]


def test_q8_holds_at_higher_precisions():
    # (1+i)^-1 in line 14 is an inverse like the fourth dense operand's: its
    # leading term is a unit times S and its S^0 coefficient is divisible by 2
    from importlib import resources

    q8 = resources.files("stabforge").joinpath("scripts/q8.rel").read_text()
    for p_prec in range(6, 13):
        assert all(r.verdict == "holds" for r in run_script(q8, params22(p_prec=p_prec))), p_prec


def test_associativity_and_centrality_randomized():
    rng = random.Random(7)
    pa = params22(p_prec=4)
    t = pa.witt
    from stabforge.order import OrderElem

    def rand_elem():
        return OrderElem(
            pa, 0, [t.from_grid([[rng.randrange(16) for _ in range(2)]]) for _ in range(2)]
        )

    pu = pa.from_int(2 * pa.u.val)
    for _ in range(10):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * pu == pu * x


def test_embed_q8_full_relations():
    pa = params22()
    i, j, k = embed_q8(pa)
    one = pa.one()
    assert check_verdict(i * i, -one) == "holds"
    assert check_verdict(j * j, -one) == "holds"
    assert check_verdict(k * k, -one) == "holds"
    assert check_verdict(i * j, k) == "holds"
    assert check_verdict(i * j, -(j * i)) == "holds"
    assert check_verdict(j * k, i) == "holds"
    assert check_verdict(k * i, j) == "holds"
    w = pa.omega()
    assert check_verdict(w ** 3, one) == "holds"
    assert check_verdict(w * w * i * w.invert() * w.invert(), -k) == "holds"
    assert check_verdict(w * j * w.invert(), -k) == "holds"
    x = one + i
    assert check_verdict(x * j * x.invert(), k) == "holds"
    assert check_verdict(x * x, i * 2) == "holds"


def test_example049_relations():
    pa = OrderParams(3, 4)
    x, z, zeta3, tau = example049_elements(pa)
    one = pa.one()
    assert check_verdict(z * z, pa.from_int(-3)) == "holds"
    assert check_verdict(zeta3 ** 3, one) == "holds"
    assert order_check(zeta3, 3)
    assert order_check(tau, 16)
    assert check_verdict(tau * zeta3 * tau.invert(), zeta3 * zeta3) == "holds"
    assert check_verdict(x * zeta3 * x.invert(), zeta3) == "holds"
    assert check_verdict(x * tau * x.invert(), tau ** 3) == "holds"


def test_order_check():
    pa = params22()
    assert order_check(pa.omega(), 3)
    assert not order_check(pa.omega(), 6)
    assert not order_check(-pa.one(), 4)
    assert order_check(-pa.one(), 2)
    # finite order forces valuation zero
    assert not order_check(pa.s(), 4)


def test_xi_generator_trivial_and_nontrivial():
    pa = params22()
    assert xi_generator(pa) == pa.s()
    xi = xi_generator(pa, -7)
    assert check_verdict(xi * xi, pa.from_int(-14)) == "holds"
    # conjugation by xi is the Frobenius on the torsion
    w = pa.omega()
    assert check_verdict(xi * w * xi.invert(), w * w) == "holds"


def test_xi_generator_various_units():
    pa = OrderParams(3, 2)
    for u in (2, 4, -1, 5):
        xi = xi_generator(pa, u)
        assert check_verdict(xi * xi, pa.from_int(3 * u)) == "holds"
        w = pa.omega()
        assert check_verdict(xi * w * xi.invert(), w ** 3) == "holds"


def test_solve_norm_equation_randomized():
    rng = random.Random(3)
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        pa = OrderParams(p, n, p_prec=5)
        for _ in range(6):
            val = rng.randrange(1, p**5)
            if val % p == 0:
                continue
            target = PadicInt(p, 5, val)
            c = solve_norm_equation(pa.witt, target)
            nrm = witt_norm(c)
            assert nrm == pa.witt.from_int(val)


def test_verify_relation_words():
    script = "check i^2 == -1\ncheck i * j * i^-1 * j == 1\ncheck S * omega * S^-1 * omega^-1 == 1"
    out = run_script(script, params22())
    assert [r.verdict for r in out] == ["holds", "holds", "fails"]
    with pytest.raises(UnknownName):
        run_script("check nope == 1", params22())


def test_script_checks():
    pa = params22()
    out = run_script("check S * S == 2\ncheck S * omega == omega^2 * S", pa)
    assert [r.verdict for r in out] == ["holds", "holds"]
    out = run_script("x := 1 + S\ncheck x^2 == 1 + 2*S + 2", pa)
    assert out[0].verdict == "holds"
    out = run_script("check S * omega == omega * S", pa)
    assert out[0].verdict == "fails"
    with pytest.raises(UnknownName):
        run_script("check nope == 1", pa)


def test_shipped_scripts():
    from importlib import resources

    q8 = resources.files("stabforge").joinpath("scripts/q8.rel").read_text()
    out = run_script(q8, params22())
    assert out and all(r.verdict == "holds" for r in out)
    e49 = resources.files("stabforge").joinpath("scripts/example049.rel").read_text()
    out = run_script(e49, OrderParams(3, 4))
    assert out and all(r.verdict == "holds" for r in out)


def test_eval_expr_precedence():
    pa = params22()
    env = base_environment(pa)
    assert eval_expr("2 + 3 * 4", env, pa) == pa.from_int(14)
    assert eval_expr("(2 + 3) * 4", env, pa) == pa.from_int(20)
    assert eval_expr("-2^2", env, pa) == pa.from_int(-4)
    assert eval_expr("3^-1 * 3", env, pa) == pa.one()


def test_eval_expr_lists_are_witt_vectors():
    pa = params22()
    env = base_environment(pa)
    assert eval_expr("[3]", env, pa) == pa.from_int(3)
    assert eval_expr("[0, 1]", env, pa) == pa.from_witt(pa.witt.beta())
    assert eval_expr("[1, -1] * S", env, pa) == pa.from_witt(pa.witt.one() - pa.witt.beta(), 1)
    with pytest.raises(ValueError, match="coefficient list longer than the residue degree"):
        eval_expr("[1, 2, 3]", env, pa)
