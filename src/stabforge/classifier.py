"""Classification of maximal finite subgroups of the stabilizer group and its
extended form, as total decision procedures over (p, n, u).

The inner-group classes come from the metacyclic/quaternionic classification;
the extended classes iterate maximal abelian F_0 over the tower levels and
apply the extendability branches, consuming r1 verdicts from unitclasses.
Every class built from data is an extension (F_0 = C_{p^alpha d}).r1 by a
Galois part W of order w, and `_row` is its one constructor: it derives the
order p^alpha d r1 w and the name, and records alpha and r1.  It builds the
cyclic rows (Thm 024, Thm 032, Cor 212), the C_{p^alpha}:C_{d(p-1)} rows of
Thm 024 and, through `_extension`, the rows of Thm 250 and Thm 259.  Only the
closed forms write their orders: the T24 products (`_t24`), the Thm 260
extension, and the n = 2 tables of Thm 261 (p = 3) and Thm 264 (p = 2), held
as (order, name) data in `_N2_TABLES`.  At n = 2 each table entry takes the
provenance of the engine class of the same order, and a call whose engine
orders differ from the table's raises.  Every emitted label carries its
theorem provenance and a multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    alpha: int | None = field(default=None, compare=False)  # None on the closed forms
    r1: int | None = field(default=None, compare=False)
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
        if math.gcd(self.u_mod, self.p) != 1:
            raise ValueError(f"u_mod must be prime to p = {self.p}, got {self.u_mod} (read mod {mod})")
        object.__setattr__(self, "u_mod", self.u_mod % mod)


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


def _row(p: int, alpha: int, d: int, name: str, provenance: str, r1: int = 1, w: int = 1, **extra):
    """The (C_{p^alpha d}.r1):W row of order p^alpha d r1 w; `name` is a format
    template over F0 = p^alpha d, P = p^alpha, D = d r1, r1 and w."""
    P = p**alpha
    label = name.format(F0=P * d, P=P, D=d * r1, r1=r1, w=w)
    return GroupClassLabel(P * d * r1 * w, label, provenance, alpha=alpha, r1=r1, **extra)


def maximal_in_Sn(p: int, n: int) -> ClassificationReport:
    """Conjugacy classes of maximal finite subgroups of the stabilizer group."""
    check_params(p, n=n)
    classes = []
    notes = []
    k, m = _split_n(p, n)
    if p > 2:
        classes.append(_row(p, 0, p**n - 1, "C{F0}", "thm024[G0]" if k else "prop022"))
        for alpha in range(1, k + 1):
            d = p ** _n_alpha(p, n, alpha) - 1
            classes.append(_row(p, alpha, d, "C{P}:C{D}", f"thm024[G{alpha}]", r1=p - 1))
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
                prov = f"thm032[G{alpha}]" if k > 1 else "prop022"
                classes.append(_row(2, alpha, 2 ** _n_alpha(2, n, alpha) - 1, "C{F0}", prov))
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
            classes.append(_row(p, alpha, d, "C{F0}", f"cor212[alpha={alpha},d={d}]"))
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
    exists = u_mod % 8 in (1, 7)
    return {
        "exists": exists,
        "order": 48 * m * (2**m - 1) if exists else None,
        "unique": True if exists else None,
        "provenance": "thm260",
    }


def _extension(p: int, n: int, alpha: int, u_mod: int, w: int, branch: str, primed: bool, **extra):
    """The (C_{p^alpha d}.r1):W row at d = p^n_alpha - 1, with r1 the largest
    admissible first index and W = G (G' when primed) of order w."""
    d = p ** _n_alpha(p, n, alpha) - 1
    v1 = r1_max(p, n, alpha, d, u_mod)
    name = "(C{F0}.{r1}):G" + "'" * primed
    return _row(p, alpha, d, name, f"{branch}[alpha={alpha},r1={v1.branch}]", r1=v1.maximal, w=w, **extra)


def _t24(m: int, provenance: str):
    """The binary tetrahedral product class T24 x C_(2^m - 1)."""
    return GroupClassLabel(24 * (2**m - 1), f"T24xC{2**m - 1}" if m > 1 else "T24", provenance)


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
            # r1 divides phi(2) = 1, so the row is F_0:G
            v1 = r1_max(2, n, 1, 2**n - 1, u_mod)
            count = 1 if n % 2 else 2
            note = "" if count == 1 else "2-Sylow C2xC{2^(k-1)} vs C{2^k} (two classes)"
            prov = f"thm259.2[alpha=1,r1={v1.branch}]"
            classes.append(_row(2, 1, 2**n - 1, "C{F0}:G", prov, r1=v1.maximal, w=n, count=count, note=note))
        elif alpha == 2 and k == 2:
            q = quaternionic_extension(2, n, u_mod)
            if q["exists"]:
                name = f"(T24xC{2**m - 1}):C{n}" if m > 1 else "T24:C2"
                classes.append(GroupClassLabel(q["order"], name, q["provenance"]))
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


# -- the published n = 2 tables ---------------------------------------------------

# (order, name) per class, keyed by (p, u mod 3) for Thm 261 and (p, u mod 8)
# for Thm 264: the structures depend on u through x_1^2
_N2_TABLES = {
    (3, 1): [(16, "SD16"), (24, "C3:Q8")],
    (3, 2): [(16, "SD16"), (24, "C3:D8")],
    (2, 1): [(12, "C6:C2"), (48, "O48")],
    (2, 7): [(12, "C3:C4"), (48, "T24:C2")],
    (2, 3): [(8, "D8"), (12, "C3:C4"), (12, "C6:C2"), (24, "T24")],
    (2, 5): [(8, "Q8"), (12, "C3:C4"), (12, "C6:C2"), (24, "T24")],
}


def _refine_n2(p: int, u_mod: int, classes):
    """The published n = 2 table, each entry with the provenance of the
    general-engine class of its order; the engine's orders must be the table's."""
    provenance = {c.order: c.provenance for c in classes}
    table = hardcoded_n2_table(p, u_mod)
    if set(provenance) != {order for order, _name in table}:
        orders = sorted(provenance)
        raise AssertionError(f"engine orders {orders} differ from the n = 2 table at p = {p}, u = {u_mod}")
    return [GroupClassLabel(order, name, provenance[order]) for order, name in table]


def maximal_in_Gn(inp: ClassificationInput) -> ClassificationReport:
    """Conjugacy classes of maximal finite subgroups of the extended group."""
    p, n = inp.p, inp.n
    if p > 2 and n % (p - 1):
        # no p-torsion: the single unramified tower class
        classes = [_row(p, 0, p**n - 1, "C{F0}:C{w}", "thm250.2[alpha=0]", w=n)]
        return ClassificationReport({"p": p, "n": n, "u_mod": inp.u_mod}, classes)
    classes = _general_odd(p, n, inp.u_mod) if p > 2 else _general_two(n, inp.u_mod)
    if n == 2 and p in (2, 3):
        classes = _refine_n2(p, inp.u_mod, classes)
    return ClassificationReport({"p": p, "n": n, "u_mod": inp.u_mod}, classes)


def hardcoded_n2_table(p: int, u_mod: int):
    """The published n = 2 table at u as sorted (order, name) pairs."""
    if p not in (2, 3):
        raise NotApplicable("tables exist for p in {2, 3} only")
    return sorted(_N2_TABLES[p, u_mod % (8 if p == 2 else 3)])


def scan(p_values, n_values, u_values):
    """Sweep a grid and yield (p, n, u_mod, report) rows in deterministic order."""
    for p in sorted(p_values):
        for n in sorted(n_values):
            for u in sorted(u_values):
                if math.gcd(u, p) != 1:
                    continue
                yield p, n, u, maximal_in_Gn(ClassificationInput(p, n, u))
