"""Cohomology of a finite cyclic group acting on a finitely generated abelian
group, through kernels and images of 1 - t and the norm N = sum t^i.

Groups are presented as Z^(a+b) modulo d_j e_{a+j}.  One integer elimination,
the column echelon form (arbitrary-size integers, pivots chosen by minimal
absolute value), gives kernels, the echelon basis of a subquotient's kernel,
in which the image is solved by forward substitution, and the Smith form, by
alternating column and row echelon forms.  Invariant factors come from gcds
and lcms; nothing is factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadAction
from .intarith import multiplicative_order, prime_factors, split_p
from .localfield import binary_power


# -- integer matrices (lists of rows) --------------------------------------------


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for t in range(inner):
            c = ai[t]
            if c:
                bt = b[t]
                oi = out[i]
                for j in range(cols):
                    oi[j] += c * bt[j]
    return out


def mat_identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def finite_order_exponent(a: int) -> int:
    """L(a) = lcm{m : phi(m) <= a}.  An a x a integer matrix of finite order has
    a minimal polynomial that is a product of distinct Phi_m with phi(m) <= a,
    so its order divides L(a); phi(m) >= sqrt(m / 2) bounds the search by 2a^2."""
    out = 1
    for m in range(1, 2 * a * a + 1):
        phi = m
        for q in prime_factors(m):
            phi = phi // q * (q - 1)
        if phi <= a:
            out = math.lcm(out, m)
    return out


def column_echelon_with_transform(a):
    """Unimodular column reduction: returns (echelon columns, transform columns,
    rank) with echelon = A * U.  The first `rank` echelon columns are nonzero,
    with first nonzero entries in strictly increasing rows; the zero columns
    after them mark kernel vectors in U."""
    m = len(a)
    k = len(a[0]) if m else 0
    cols = [[a[i][j] for i in range(m)] for j in range(k)]
    u = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    c = 0
    for r in range(m):
        while True:
            live = [j for j in range(c, k) if cols[j][r] != 0]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda j: abs(cols[j][r]))
            for j in live:
                if j == piv:
                    continue
                q = cols[j][r] // cols[piv][r]
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
                    u[j] = [x - q * y for x, y in zip(u[j], u[piv])]
        if live:
            j = live[0]
            cols[c], cols[j] = cols[j], cols[c]
            u[c], u[j] = u[j], u[c]
            c += 1
    return cols, u, c


def kernel_columns(a):
    """Basis of the integer kernel of A, as a list of column vectors."""
    _, u, rank = column_echelon_with_transform(a)
    return u[rank:]


def divisor_chain(orders):
    """Invariant factors d_1 | d_2 | ... of the product of cyclic groups of the
    given orders (each >= 1), one per order: each pair is replaced by its gcd
    and lcm, which leaves the group unchanged."""
    ds = list(orders)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = math.gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] // g * ds[j]
    return ds


def smith_invariants(a):
    """Diagonal of the Smith normal form: the nonzero invariant factors, 1s
    included, each dividing the next, as many as the rank.

    Column and row echelon forms alternate: the nonzero echelon columns, read
    as rows, are the transpose of the echelon form.  They stop when each row
    has one nonzero entry; the pivots' rows increase, so each column then has
    at most one."""
    while True:
        cols, _, rank = column_echelon_with_transform(a)
        a = cols[:rank]
        if all(sum(1 for x in row if x) == 1 for row in a):
            return divisor_chain(abs(x) for row in a for x in row if x)


# -- the cyclic module and its cohomology ------------------------------------------


@dataclass(frozen=True)
class CohomologyGroup:
    """Free rank (possibly zero) and invariant factors, each dividing the next."""

    free_rank: int
    invariants: tuple

    @property
    def order(self) -> int:
        if self.free_rank:
            return 0
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"C{d}" for d in self.invariants]
        return " x ".join(parts) if parts else "1"


class CycModule:
    """Z^a + Z/d_1 + ... + Z/d_b with an order-r action given by an integer
    matrix T on the generators (columns are images)."""

    def __init__(self, free_rank: int, torsion, action, order: int):
        if order < 1 or free_rank < 0 or any(dj < 1 for dj in torsion):
            raise BadAction(
                f"need order >= 1, rank >= 0 and torsion orders >= 1, got order {order}, "
                f"rank {free_rank}, torsion {list(torsion)}"
            )
        self.a = free_rank
        self.d = tuple(torsion)
        self.r = order
        k = self.a + len(self.d)
        if len(action) != k or any(len(row) != k for row in action):
            raise ValueError("action matrix has the wrong shape")
        self.t = [list(row) for row in action]
        self.norm = self._validate()

    @property
    def rank(self):
        return self.a + len(self.d)

    def _relation_columns(self):
        k = self.rank
        cols = []
        for j, dj in enumerate(self.d):
            col = [0] * k
            col[self.a + j] = dj
            cols.append(col)
        return cols

    def _in_lattice(self, col) -> bool:
        for i in range(self.a):
            if col[i]:
                return False
        for j, dj in enumerate(self.d):
            if col[self.a + j] % dj:
                return False
        return True

    def _validate(self):
        """Check the action; returns the norm N = T^0 + ... + T^(r-1).

        The pairs (N_s, T^s), N_s = T^0 + ... + T^(s-1), multiply as
        (N_s, T^s)(N_t, T^t) = (N_s + T^s N_t, T^(s+t)), so square-and-multiply
        reaches (N_r, T^r); each torsion row is reduced mod its order."""
        # torsion generators must stay torsion of compatible order
        for j, dj in enumerate(self.d):
            col = [dj * self.t[i][self.a + j] for i in range(self.rank)]
            if not self._in_lattice(col):
                raise BadAction(f"column {self.a + j} breaks the relation of order {dj}")
        # T^r is the identity on the free block A exactly when A^g = I for
        # g = gcd(r, L(a)); checked first, an A of infinite order is refused
        # before T is powered, and afterwards the free rows stay bounded
        a, k = self.a, self.rank
        free = [row[:a] for row in self.t[:a]]
        if binary_power(free, math.gcd(self.r, finite_order_exponent(a)), mat_identity(a), mat_mul) != mat_identity(a):
            raise BadAction("T^r is not the identity on the module")

        def reduce(mat):
            return mat[: self.a] + [[x % dj for x in row] for dj, row in zip(self.d, mat[self.a :])]

        def combine(x, y):
            (n_s, t_s), (n_t, t_t) = x, y
            n_st = [[a + b for a, b in zip(r, q)] for r, q in zip(n_s, mat_mul(t_s, n_t))]
            return reduce(n_st), reduce(mat_mul(t_s, t_t))

        one = ([[0] * k for _ in range(k)], mat_identity(k))
        norm, power = binary_power((mat_identity(k), self.t), self.r, one, combine)
        for j in range(k):
            col = [power[i][j] - (1 if i == j else 0) for i in range(k)]
            if not self._in_lattice(col):
                raise BadAction("T^r is not the identity on the module")
        return norm

    def _one_minus_t(self):
        return [
            [(1 if i == j else 0) - self.t[i][j] for j in range(self.rank)]
            for i in range(self.rank)
        ]

    def _kernel_subgroup(self, g):
        """Generators (columns) of {x : g x = 0 in the module}."""
        k = self.rank
        rel = self._relation_columns()
        stacked = [[g[i][j] for j in range(k)] + [-rel[c][i] for c in range(len(rel))] for i in range(k)]
        kern = kernel_columns(stacked)
        gens = [v[:k] for v in kern]
        gens.extend(rel)  # the relations themselves always lie in the kernel
        return gens

    def _image_subgroup(self, g):
        k = self.rank
        cols = [[g[i][j] for i in range(k)] for j in range(k)]
        return cols + self._relation_columns()

    @staticmethod
    def _subquotient(ker_gens, im_gens):
        """ker/im as a CohomologyGroup; im must be contained in ker."""
        if not ker_gens:
            return CohomologyGroup(0, ())
        m = len(ker_gens[0])
        cols, _, rank = column_echelon_with_transform([[col[i] for col in ker_gens] for i in range(m)])
        basis = cols[:rank]
        pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
        # coordinates of each image generator in the basis, by forward substitution
        coords = []
        for t in im_gens:
            resid, y = list(t), []
            for b, r in zip(basis, pivots):
                q = resid[r] // b[r]
                y.append(q)
                if q:
                    resid = [x - q * v for x, v in zip(resid, b)]
            assert not any(resid), "image outside the kernel"
            coords.append(y)
        inv = smith_invariants([[y[c] for y in coords] for c in range(rank)])
        return CohomologyGroup(rank - len(inv), tuple(d for d in inv if d > 1))

    def h0(self) -> CohomologyGroup:
        return self._subquotient(self._kernel_subgroup(self._one_minus_t()), self._relation_columns())

    def h_odd(self) -> CohomologyGroup:
        return self._subquotient(
            self._kernel_subgroup(self.norm), self._image_subgroup(self._one_minus_t())
        )

    def h_even(self) -> CohomologyGroup:
        return self._subquotient(
            self._kernel_subgroup(self._one_minus_t()), self._image_subgroup(self.norm)
        )


# -- golden suite -------------------------------------------------------------------


def _diag_action(entries):
    k = len(entries)
    return [[entries[i] if i == j else 0 for j in range(k)] for i in range(k)]


def _cyc(*factors):
    return tuple(d for d in divisor_chain(abs(f) for f in factors) if d > 1)


def golden_instances():
    """Transcribed lemma instances: (tag, module, expected H^0, H^odd, H^even).

    Expected groups are (free_rank, invariant factors).  The modules are the
    displayed complexes of the corresponding proofs; w denotes the image of
    the valuation-1/r1 generator in the torsion part where the action mixes.
    """
    out = []
    for p, n in [(3, 2), (5, 2), (2, 6), (3, 6)]:
        m = CycModule(1, (p**n - 1,), [[1, 0], [0, p]], n)
        out.append((f"L215[p={p},n={n}]", m, (1, _cyc(p - 1)), (0, ()), (0, _cyc(n))))
    for p, n, alpha in [(3, 2, 1), (5, 4, 1), (3, 6, 2)]:
        phi = (p - 1) * p ** (alpha - 1)
        big = p ** (n // phi) - 1
        w = big // (p - 1)
        c = next(g for g in range(2, p**alpha) if g % p and multiplicative_order(g, p**alpha, phi) == p - 1)
        act = [[1, 0, 0], [0, c, 0], [w, 0, 1]]
        m = CycModule(1, (p**alpha, big), act, p - 1)
        out.append((f"L221[p={p},n={n},a={alpha}]", m, (1, _cyc(big)), (0, ()), (0, _cyc(p - 1))))
    for alpha, n in [(1, 3), (1, 2), (1, 6)]:
        m = CycModule(1, (2**alpha, 2**n - 1), _diag_action([1, 1, 2]), n)
        g = min(2**alpha, 2 ** split_p(n, 2)[0])
        out.append(
            (f"L231[a={alpha},n={n}]", m, (1, _cyc(2**alpha)), (0, _cyc(g)), (0, _cyc(n, g)))
        )
    # alpha >= 2, u = +-3 mod 8, n_alpha odd (alpha = k)
    for alpha, n_alpha in [(2, 3), (2, 1), (3, 1)]:
        m = CycModule(1, (2**alpha, 2**n_alpha - 1), _diag_action([1, 1, 2]), n_alpha)
        out.append((f"L233[a={alpha},na={n_alpha}]", m, (1, _cyc(2**alpha)), (0, ()), (0, _cyc(n_alpha))))
    # alpha >= 2, u = +-1 mod 8 (x_1 of valuation 1/2, trivial action)
    for alpha, n_alpha in [(2, 3), (2, 4), (3, 2)]:
        m = CycModule(1, (2**alpha, 2**n_alpha - 1), _diag_action([1, 1, 2]), n_alpha)
        g = min(2**alpha, 2 ** split_p(n_alpha, 2)[0])
        out.append(
            (
                f"L234[a={alpha},na={n_alpha}]",
                m,
                (1, _cyc(2**alpha)),
                (0, _cyc(g)),
                (0, _cyc(n_alpha, g)),
            )
        )
    # alpha >= 3, W = C_{2^(alpha-2)} acting by zeta -> zeta^5
    for alpha, n_alpha in [(3, 1), (4, 1), (3, 3)]:
        m = CycModule(1, (2**alpha, 2**n_alpha - 1), _diag_action([1, 5, 1]), 2 ** (alpha - 2))
        out.append(
            (
                f"L236/237[a={alpha},na={n_alpha}]",
                m,
                (1, _cyc(4, 2**n_alpha - 1)),
                (0, ()),
                (0, _cyc(2 ** (alpha - 2))),
            )
        )
    # alpha >= 2, C_2 acting by zeta -> zeta^(-1), x_1 = 2u fixed
    for alpha, nw in [(2, 1), (3, 1), (2, 3)]:
        m = CycModule(1, (2**alpha, 2**nw - 1), _diag_action([1, -1, 1]), 2)
        out.append(
            (
                f"L239[a={alpha},nw={nw}]",
                m,
                (1, _cyc(2, 2**nw - 1)),
                (0, _cyc(2)),
                (0, _cyc(2, 2)),
            )
        )
    # alpha = 2, C_2 with t(x_1) = -i x_1: the displayed matrix on Z + Z/4
    m = CycModule(1, (4,), [[1, 0], [1, -1]], 2)
    out.append(("L241", m, (1, _cyc(2)), (0, ()), (0, _cyc(2))))
    # alpha = 1 fixed-part module (L244) and alpha >= 2 (L246, L248)
    for p, n1 in [(3, 2), (5, 4), (3, 3)]:
        m = CycModule(1, (p**n1 - 1,), [[1, 0], [0, p]], n1)
        out.append((f"L244[p={p},n1={n1}]", m, (1, _cyc(p - 1)), (0, ()), (0, _cyc(n1))))
    for p, alpha, nm in [(3, 2, 1), (3, 3, 2), (5, 2, 1)]:
        m = CycModule(1, (p**nm - 1,), _diag_action([1, 1]), p ** (alpha - 1))
        out.append(
            (
                f"L246[p={p},a={alpha}]",
                m,
                (1, _cyc(p**nm - 1)),
                (0, ()),
                (0, _cyc(p ** (alpha - 1))),
            )
        )
    # L248 has torsion C_{p^(n_alpha/m)-1} with w = |W/W_1| Frobenius steps
    for p, w in [(3, 3), (5, 5), (3, 9)]:
        m = CycModule(1, (p**w - 1,), [[1, 0], [0, p]], w)
        out.append((f"L248[p={p},w={w}]", m, (1, _cyc(p - 1)), (0, ()), (0, _cyc(w))))
    return out


def golden_suite():
    """Evaluate every transcribed lemma instance; returns (tag, ok, details)."""
    report = []
    for tag, m, want_h0, want_odd, want_even in golden_instances():
        got = tuple((g.free_rank, g.invariants) for g in (m.h0(), m.h_odd(), m.h_even()))
        want = (want_h0, want_odd, want_even)
        report.append((tag, got == want, {"got": got, "want": want}))
    return report
