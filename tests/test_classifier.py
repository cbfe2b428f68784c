import math

import pytest

from stabforge import classifier
from stabforge.classifier import (
    ClassificationInput,
    abelian_classes,
    hardcoded_n2_table,
    maximal_in_Gn,
    maximal_in_Sn,
    quaternionic_extension,
    scan,
)
from stabforge.errors import NotApplicable
from stabforge.localfield import euler_phi_prime_power
from stabforge.unitclasses import epsilon_test


def names(report):
    return sorted(c.name for c in report.classes for _ in range(c.count))


def test_maximal_in_sn_odd_examples():
    assert names(maximal_in_Sn(3, 4)) == sorted(["C80", "C3:C16"])
    assert names(maximal_in_Sn(5, 3)) == ["C124"]
    assert names(maximal_in_Sn(3, 2)) == sorted(["C8", "C3:C4"])
    assert names(maximal_in_Sn(3, 6)) == sorted(["C728", "C3:C52", "C9:C4"])
    assert names(maximal_in_Sn(5, 4)) == sorted(["C624", "C5:C16"])


def test_maximal_in_sn_two_examples():
    assert names(maximal_in_Sn(2, 6)) == sorted(["C126", "T24xC7"])
    assert names(maximal_in_Sn(2, 4)) == sorted(["C30", "C12", "C8"])
    # degenerate m = 1: C6 embeds in T24 and is dropped, flagged in provenance
    rep = maximal_in_Sn(2, 2)
    assert names(rep) == ["T24"]
    assert any("dedup" in c.provenance for c in rep.classes)
    assert rep.notes


def test_abelian_classes():
    rep = abelian_classes(2, 2)
    assert rep.pairs == [(0, 1), (0, 3), (1, 1), (1, 3), (2, 1)]
    rep = abelian_classes(3, 2)
    assert rep.pairs == [(0, d) for d in (1, 2, 4, 8)] + [(1, 1), (1, 2)]
    rep = abelian_classes(5, 3)  # p-1 does not divide n: alpha = 0 only
    assert all(a == 0 for a, _ in rep.pairs)


def test_abelian_classes_match_range_scan():
    # the definition: alpha = 0 or phi(p^alpha) | n, and every d <= p^(n_alpha) - 1 dividing it
    for p in (2, 3, 5, 7):
        n = 1
        while p**n <= 10**4:
            want = []
            for alpha in range(n + 2):
                e = euler_phi_prime_power(p, alpha)
                if n % e == 0:
                    top = p ** (n // e) - 1
                    want += [(alpha, d) for d in range(1, top + 1) if top % d == 0]
            rep = abelian_classes(p, n)
            assert rep.pairs == want, (p, n)
            assert [c.order for c in rep.classes] == [p**alpha * d for alpha, d in want]
            n += 1


def test_theorem_261_all_residues():
    for u in (1, 4, 7):
        rep = maximal_in_Gn(ClassificationInput(3, 2, u))
        assert names(rep) == sorted(["SD16", "C3:Q8"])
    for u in (2, 5, 8):
        rep = maximal_in_Gn(ClassificationInput(3, 2, u))
        assert names(rep) == sorted(["SD16", "C3:D8"])


def test_theorem_264_all_residues():
    expect = {
        1: ["C6:C2", "O48"],
        7: ["C3:C4", "T24:C2"],
        3: ["C3:C4", "C6:C2", "D8", "T24"],
        5: ["C3:C4", "C6:C2", "Q8", "T24"],
    }
    for u, want in expect.items():
        rep = maximal_in_Gn(ClassificationInput(2, 2, u))
        assert names(rep) == sorted(want), (u, names(rep))


def _units(p):
    return [u for u in range(1, 8 if p == 2 else p * p) if math.gcd(u, p) == 1]


def test_general_engine_matches_hardcoded_tables():
    # the n = 2 answer is the published table, each entry with the provenance
    # of the general-engine class of its order
    for p in (2, 3):
        for u in _units(p):
            engine = classifier._general_two(2, u) if p == 2 else classifier._general_odd(p, 2, u)
            provenance = {c.order: c.provenance for c in engine}
            rep = maximal_in_Gn(ClassificationInput(p, 2, u))
            table = hardcoded_n2_table(p, u)
            assert sorted(c.name for c in rep.classes) == sorted(c.name for c in table)
            assert sorted(c.order for c in rep.classes) == sorted(c.order for c in table)
            assert [c.provenance for c in rep.classes] == [provenance[c.order] for c in rep.classes]


@pytest.mark.parametrize("p", [2, 3])
def test_n2_engine_is_checked_against_the_tables(monkeypatch, p):
    # an engine that loses a class no longer matches the published table's orders
    name = "_general_two" if p == 2 else "_general_odd"
    engine = getattr(classifier, name)
    monkeypatch.setattr(classifier, name, lambda *args: engine(*args)[1:])
    for u in _units(p):
        with pytest.raises(AssertionError, match="n = 2 table"):
            maximal_in_Gn(ClassificationInput(p, 2, u))


def test_no_two_classes_share_order_and_name():
    # labels sort by (order, name) alone, so no report may hold two classes with both equal
    for p in (2, 3, 5, 7):
        for n in range(1, 13):
            reports = [maximal_in_Sn(p, n)] + [maximal_in_Gn(ClassificationInput(p, n, u)) for u in _units(p)]
            for rep in reports:
                keys = [(c.order, c.name) for c in rep.classes]
                assert len(keys) == len(set(keys)), (p, n, rep.input)


def test_quaternionic_extension():
    q = quaternionic_extension(2, 2, 1)
    assert q["exists"] and q["order"] == 48
    q = quaternionic_extension(2, 6, 3)
    assert not q["exists"]
    q = quaternionic_extension(2, 6, 7)
    assert q["exists"] and q["order"] == 48 * 3 * 7 and q["unique"]
    with pytest.raises(NotApplicable):
        quaternionic_extension(2, 4, 1)
    with pytest.raises(NotApplicable):
        quaternionic_extension(3, 2, 1)


def test_thm260_on_grid():
    for n in (2, 6):
        m = n // 2
        for u in (1, 3, 5, 7):
            q = quaternionic_extension(2, n, u)
            assert q["exists"] == (u in (1, 7))
            if q["exists"]:
                assert q["order"] == 48 * m * (2**m - 1)


def test_thm250_full_extension_branches():
    # p = 3, n = 6: k = 2; alpha = 2 extends fully iff u is a generator mod 9
    rep = maximal_in_Gn(ClassificationInput(3, 6, 4))
    alpha2 = [c for c in rep.classes if c.params and c.params[0] == 2]
    assert len(alpha2) == 1 and "thm250.3" in alpha2[0].provenance
    rep = maximal_in_Gn(ClassificationInput(3, 6, 1))
    alpha2 = [c for c in rep.classes if c.params and c.params[0] == 2]
    assert len(alpha2) == 1 and "thm250.1" in alpha2[0].provenance
    # u = -1 mod 9 is torsion times 1 mod 9: no full extension either
    rep = maximal_in_Gn(ClassificationInput(3, 6, 8))
    alpha2 = [c for c in rep.classes if c.params and c.params[0] == 2]
    assert "thm250.1" in alpha2[0].provenance


def test_epsilon_consistency_with_engine():
    # whenever the engine asserts an r1 = p-1 extension at a level, the epsilon
    # test agrees for a unit realizing the residue datum
    cases = [(3, 2, 2), (3, 4, 4), (5, 4, 7), (3, 6, 5), (11, 10, 2), (3, 14, 2)]
    for p, n, u in cases:
        rep = maximal_in_Gn(ClassificationInput(p, n, u))
        for c in rep.classes:
            if not c.params:
                continue
            alpha, r1 = c.params[0], c.params[1]
            if alpha >= 1 and r1 == p - 1:
                d = p ** (n // euler_phi_prime_power(p, alpha)) - 1
                assert epsilon_test(p, n, alpha, d, u, p - 1)


def test_order_arithmetic_bounds():
    cases = [(3, 2, 1), (3, 6, 4), (2, 6, 1), (2, 6, 3), (5, 4, 2), (2, 4, 1), (11, 10, 1), (3, 14, 1), (2, 16, 3)]
    for p, n, u in cases:
        rep = maximal_in_Gn(ClassificationInput(p, n, u))
        sn = {None: None}
        for c in rep.classes:
            if c.params and isinstance(c.params[0], int) and len(c.params) >= 3:
                alpha = c.params[0]
                na = n // euler_phi_prime_power(p, alpha)
                bound = n * (p**alpha * (p**na - 1) * (p - 1 if p > 2 else 1))
                if p == 2:
                    bound = n * (2**alpha * (2**na - 1))
                assert bound % c.order == 0, (p, n, u, c)
            if c.provenance.startswith("thm260") and c.name.startswith("(T24"):
                m = _odd_part(n)
                assert c.order == 48 * m * (2**m - 1)


def _odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def test_no_p_torsion_case():
    rep = maximal_in_Gn(ClassificationInput(5, 3, 2))
    assert names(rep) == ["C124:C3"]


def test_scan_deterministic():
    rows = list(scan([2, 3], [2], [1, 3]))
    rows2 = list(scan([2, 3], [2], [1, 3]))
    assert [(p, n, u, r.to_json()) for p, n, u, r in rows] == [
        (p, n, u, r.to_json()) for p, n, u, r in rows2
    ]
    assert rows[0][:3] == (2, 2, 1)


def test_report_json_shape():
    rep = maximal_in_Gn(ClassificationInput(2, 2, 3))
    js = rep.to_json()
    assert set(js) >= {"input", "classes"}
    for c in js["classes"]:
        assert set(c) >= {"label", "order", "provenance", "count"}
