"""Classification of maximal finite subgroups of the stabilizer group and its
extended form, as total decision procedures over (p, n, u).

The inner-group classes come from the metacyclic/quaternionic classification;
the extended classes iterate maximal abelian F_0 over the tower levels and
apply the extendability branches, consuming r1 verdicts from unitclasses.
Each class shape has one constructor: `_extension` builds the
(C_{p^alpha d}.r1):W rows of Thm 250 and Thm 259, `_t24` the T24 product rows
of Thm 032 and Thm 260.  At n = 2 the answer is the published table of
Thm 261 (p = 3) or Thm 264 (p = 2); each entry takes the provenance of the
engine class of the same order, and a call whose engine orders differ from the
table's raises.  Every emitted label carries its theorem provenance and a
multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import NotApplicable
from .intarith import check_params, divisors, split_p
from .localfield import euler_phi_prime_power
from .unitclasses import r1_max


@dataclass(frozen=True, order=True)
class GroupClassLabel:
    order: int
    name: str
    provenance: str = field(compare=False)
    count: int = field(default=1, compare=False)
    params: tuple = field(default=(), compare=False)
    note: str = field(default="", compare=False)

    def to_json(self):
        out = {
            "label": self.name,
            "order": self.order,
            "provenance": self.provenance,
            "count": self.count,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class ClassificationInput:
    p: int
    n: int
    u_mod: int  # u mod p^2 for odd p, u mod 8 for p = 2

    def __post_init__(self):
        check_params(self.p, n=self.n)
        mod = 8 if self.p == 2 else self.p**2
        object.__setattr__(self, "u_mod", self.u_mod % mod)
        if math.gcd(self.u_mod, self.p) != 1:
            raise ValueError("u must be a unit residue")


@dataclass
class ClassificationReport:
    input: dict
    classes: list
    pairs: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self):
        out = {"input": self.input, "classes": [c.to_json() for c in sorted(self.classes)]}
        if self.pairs:
            out["pairs"] = [list(t) for t in self.pairs]
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _split_n(p: int, n: int):
    """(k, m) with n = (p-1) p^(k-1) m, m prime to p; k = 0 when (p-1) does not divide n."""
    if n % (p - 1):
        return 0, n
    j, m = split_p(n // (p - 1), p)
    return j + 1, m


def _n_alpha(p: int, n: int, alpha: int) -> int:
    return n // euler_phi_prime_power(p, alpha)


def maximal_in_Sn(p: int, n: int) -> ClassificationReport:
    """Conjugacy classes of maximal finite subgroups of the stabilizer group."""
    check_params(p, n=n)
    classes = []
    notes = []
    k, m = _split_n(p, n)
    if p > 2:
        classes.append(GroupClassLabel(p**n - 1, f"C{p**n - 1}", "thm024[G0]" if k else "prop022"))
        for alpha in range(1, k + 1):
            quot = (p ** _n_alpha(p, n, alpha) - 1) * (p - 1)
            classes.append(
                GroupClassLabel(
                    p**alpha * quot, f"C{p**alpha}:C{quot}", f"thm024[G{alpha}]", params=(p**alpha, quot)
                )
            )
    else:
        for alpha in range(1, k + 1):
            if alpha == 2 and k == 2:
                if m == 1:
                    # C_6 = G_1 embeds in T_24; conjugacy classes are ordered by
                    # containment, so the cyclic class is not maximal here
                    classes = [c for c in classes if c.name != "C6"]
                    notes.append("k=2, m=1: G_1 = C_6 embeds in T_24 and is dropped (Cor 173)")
                classes.append(_t24(m, "thm032+thm165" + ("+cor173-dedup[G1=C6<T24]" if m == 1 else "")))
            else:
                order = 2**alpha * (2 ** _n_alpha(2, n, alpha) - 1)
                prov = f"thm032[G{alpha}]" if k > 1 else "prop022"
                classes.append(GroupClassLabel(order, f"C{order}", prov))
    return ClassificationReport({"p": p, "n": n}, classes, notes=notes)


def abelian_classes(p: int, n: int) -> ClassificationReport:
    """All abelian classes, indexed by pairs (alpha, d | p^(n_alpha) - 1)."""
    check_params(p, n=n)
    k, _m = _split_n(p, n)
    pairs = []
    classes = []
    for alpha in range(0, k + 1):
        for d in divisors(p ** _n_alpha(p, n, alpha) - 1):
            pairs.append((alpha, d))
            classes.append(GroupClassLabel(p**alpha * d, f"C{p**alpha * d}", f"cor212[alpha={alpha},d={d}]"))
    return ClassificationReport({"p": p, "n": n}, classes, pairs=pairs)


def _u_generates_mod_p2(p: int, u_mod: int) -> bool:
    """u outside mu(Z_p^x) x U_2: the principal part of u is not 1 mod p^2."""
    ubar = u_mod % p
    teich = pow(ubar, p, p**2)
    return (u_mod - teich) % p**2 != 0


def quaternionic_extension(p: int, n: int, u_mod: int) -> dict:
    """Existence of the order 48m(2^m-1) extension of the binary tetrahedral class."""
    if p != 2:
        raise NotApplicable("quaternionic 2-Sylow needs p = 2")
    if n % 4 != 2:
        raise NotApplicable("Q_8 embeds only when n = 2 mod 4")
    m = n // 2
    u_mod %= 8
    exists = u_mod in (1, 7)
    return {
        "exists": exists,
        "order": 48 * m * (2**m - 1) if exists else None,
        "unique": True if exists else None,
        "provenance": "thm260",
    }


def _extension(p: int, n: int, alpha: int, u_mod: int, w: int, branch: str, primed: bool, **extra):
    """The (C_{p^alpha d}.r1):W row at d = p^n_alpha - 1, r1 the largest
    admissible first index and w the order of the Galois part W (G, or G' when
    primed)."""
    d = p ** _n_alpha(p, n, alpha) - 1
    v1 = r1_max(p, n, alpha, d, u_mod)
    f0_order = p**alpha * d
    return GroupClassLabel(
        f0_order * v1.maximal * w,
        f"(C{f0_order}.{v1.maximal}):G" + "'" * primed,
        f"{branch}[alpha={alpha},r1={v1.branch}]",
        params=(alpha, v1.maximal, w),
        **extra,
    )


def _t24(m: int, provenance: str):
    """The binary tetrahedral product class T24 x C_(2^m - 1)."""
    return GroupClassLabel(
        24 * (2**m - 1), f"T24xC{2**m - 1}" if m > 1 else "T24", provenance, params=(24, 2**m - 1)
    )


def _general_odd(p: int, n: int, u_mod: int):
    k, m = _split_n(p, n)
    classes = []
    for alpha in range(0, k + 1):
        if alpha <= 1:
            classes.append(_extension(p, n, alpha, u_mod, n, "thm250.2", False))
        elif alpha == k and _u_generates_mod_p2(p, u_mod):
            classes.append(_extension(p, n, alpha, u_mod, n, "thm250.3", False))
        else:
            classes.append(_extension(p, n, alpha, u_mod, (p - 1) * m, "thm250.1", True))
    return classes


def _general_two(n: int, u_mod: int):
    classes = []
    k, m = _split_n(2, n)
    for alpha in range(1, k + 1):
        if alpha == 1:
            f0_order = 2 * (2**n - 1)
            v1 = r1_max(2, n, 1, 2**n - 1, u_mod)
            count = 1 if n % 2 else 2
            note = "" if count == 1 else "2-Sylow C2xC{2^(k-1)} vs C{2^k} (two classes)"
            classes.append(
                GroupClassLabel(
                    f0_order * n,
                    f"C{f0_order}:G",
                    f"thm259.2[alpha=1,r1={v1.branch}]",
                    count=count,
                    params=(alpha, v1.maximal, n),
                    note=note,
                )
            )
        elif alpha == 2 and k == 2:
            if u_mod in (1, 7):
                q = quaternionic_extension(2, n, u_mod)
                name = f"(T24xC{2**m - 1}):C{n}" if m > 1 else "T24:C2"
                classes.append(GroupClassLabel(q["order"], name, "thm260", params=(alpha,)))
            else:
                # w = 2m: the full Galois group of Q_2(F_0)
                note = "one of the two classes is contained in the T24 product class (Remark 265)"
                classes.append(_extension(2, n, alpha, u_mod, 2 * m, "thm259.3", False, count=2, note=note))
                classes.append(_t24(m, "thm260-nonextendable"))
        else:
            # alpha = 2 with k > 2 has no G-extension (Thm 259.3), alpha >= 3
            # never does (Thm 259.4); the odd part always extends (Thm 259.1)
            classes.append(_extension(2, n, alpha, u_mod, m, "thm259.1", True))
    return classes


# -- the hardcoded n = 2 tables ----------------------------------------------------


def _table_261(u_mod3: int):
    sd16 = GroupClassLabel(16, "SD16", "thm261")
    if u_mod3 % 3 == 1:
        return [sd16, GroupClassLabel(24, "C3:Q8", "thm261[u=1 mod 3]")]
    return [sd16, GroupClassLabel(24, "C3:D8", "thm261[u=-1 mod 3]")]


def _table_264(u_mod8: int):
    c3c4 = GroupClassLabel(12, "C3:C4", "thm264")
    c6c2 = GroupClassLabel(12, "C6:C2", "thm264")
    t24 = GroupClassLabel(24, "T24", "thm264")
    tables = {
        1: [c6c2, GroupClassLabel(48, "O48", "thm264[u=1 mod 8]")],
        7: [c3c4, GroupClassLabel(48, "T24:C2", "thm264[u=-1 mod 8]")],
        3: [c3c4, c6c2, GroupClassLabel(8, "D8", "thm264[u=3 mod 8]"), t24],
        5: [c3c4, c6c2, GroupClassLabel(8, "Q8", "thm264[u=-3 mod 8]"), t24],
    }
    return tables[u_mod8 % 8]


def _refine_n2(p: int, u_mod: int, classes):
    """The published n = 2 table (the structures depend on u through x_1^2),
    each entry with the provenance of the general-engine class of its order;
    the engine's orders must be the table's."""
    provenance = {c.order: c.provenance for c in classes}
    table = hardcoded_n2_table(p, u_mod)
    if set(provenance) != {c.order for c in table}:
        orders = sorted(provenance)
        raise AssertionError(f"engine orders {orders} differ from the n = 2 table at p = {p}, u = {u_mod}")
    return [replace(c, provenance=provenance[c.order]) for c in table]


def maximal_in_Gn(inp: ClassificationInput) -> ClassificationReport:
    """Conjugacy classes of maximal finite subgroups of the extended group."""
    p, n = inp.p, inp.n
    if p > 2 and n % (p - 1):
        # no p-torsion: the single unramified tower class
        classes = [
            GroupClassLabel((p**n - 1) * n, f"C{p**n - 1}:C{n}", "thm250.2[alpha=0]", params=(0, 1, n))
        ]
        return ClassificationReport({"p": p, "n": n, "u_mod": inp.u_mod}, classes)
    classes = _general_odd(p, n, inp.u_mod) if p > 2 else _general_two(n, inp.u_mod)
    if n == 2 and p in (2, 3):
        classes = _refine_n2(p, inp.u_mod, classes)
    return ClassificationReport({"p": p, "n": n, "u_mod": inp.u_mod}, classes)


def hardcoded_n2_table(p: int, u_mod: int):
    if p == 3:
        return sorted(_table_261(u_mod))
    if p == 2:
        return sorted(_table_264(u_mod))
    raise NotApplicable("tables exist for p in {2, 3} only")


def scan(p_values, n_values, u_values):
    """Sweep a grid and yield (p, n, u_mod, report) rows in deterministic order."""
    for p in sorted(p_values):
        for n in sorted(n_values):
            for u in sorted(u_values):
                if math.gcd(u, p) != 1:
                    continue
                yield p, n, u, maximal_in_Gn(ClassificationInput(p, n, u))
