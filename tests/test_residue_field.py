"""ResidueField against the brute-force searches and the discrete-log table it
replaced, kept here as reference code on their own F_p[X]/(g) arithmetic."""

from stabforge.intarith import divisors
from stabforge.localfield import ResidueField, unramified_poly

PRIMES = (2, 3, 5, 7)


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _polymod(a, g, p):
    # g monic
    a, dg = list(a), len(g) - 1
    for i in range(len(a) - 1, dg - 1, -1):
        c, a[i] = a[i], 0
        for j in range(dg):
            a[i - dg + j] = (a[i - dg + j] - c * g[j]) % p
    return (a + [0] * dg)[:dg]


def _fq_pow(x, k, g, p):
    out, base = _polymod([1], g, p), list(x)
    while k:
        if k & 1:
            out = _polymod(_polymul(out, base, p), g, p)
        base = _polymod(_polymul(base, base, p), g, p)
        k >>= 1
    return out


def _candidates(p, f, start=0):
    for code in range(start, p**f):
        yield [code // p**i % p for i in range(f)]


def _brute_trace(p, g, target):
    # Tr(v) = sum_k v^(p^k), evaluated through its F_p-linearity: a search that
    # raises every candidate to p-th powers takes seconds at q = 4096
    f = len(g) - 1
    want = _polymod([target], g, p)
    basis_traces = []
    for i in range(f):
        acc, cur = [0] * f, _polymod([0] * i + [1], g, p)
        for _ in range(f):
            acc = [(x + y) % p for x, y in zip(acc, cur)]
            cur = _fq_pow(cur, p, g, p)
        basis_traces.append(acc)
    for vec in _candidates(p, f):
        acc = [sum(v * tr[j] for v, tr in zip(vec, basis_traces)) % p for j in range(f)]
        if acc == want:
            return tuple(vec)


def _brute_norm(p, g, target):
    f = len(g) - 1
    want = _polymod([target], g, p)
    for vec in _candidates(p, f, start=1):
        if _fq_pow(vec, (p**f - 1) // (p - 1), g, p) == want:
            return tuple(vec)


def _fields(bound):
    for p in PRIMES:
        f = 1
        while p**f <= bound:
            yield p, f, unramified_poly(p, f)
            f += 1


def test_trace_and_norm_solves_match_brute_force():
    for p, f, g in _fields(5000):
        field = ResidueField(p, g)
        for t in range(p):
            assert field.solve_trace(t) == _brute_trace(p, g, t), (p, f, t)
            if t:
                assert field.solve_norm(t) == _brute_norm(p, g, t), (p, f, t)


def test_is_power_matches_dlog_table():
    for p, f, g in _fields(400):
        field = ResidueField(p, g)
        q1 = p**f - 1
        dlog, cur = {}, _polymod([1], g, p)
        for e in range(q1):
            dlog[tuple(cur)] = e
            cur = _polymod(_polymul(cur, [0, 1], p), g, p)
        assert len(dlog) == q1  # X generates F_q^x
        for k in divisors(q1):
            for vec, e in dlog.items():
                assert field.is_power(vec, k) == (e % k == 0), (p, f, vec, k)
