"""Truncated exact arithmetic in Z_p.

A value is known modulo p^N (absolute precision N); every operation returns a
result at the minimum precision of its operands.  No floating point anywhere.
"""

from __future__ import annotations

from .errors import InsufficientPrecision, NonUnit, NotASquare


class PadicInt:
    """An element of Z_p known mod p^N, stored as a canonical integer in [0, p^N).

    Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("p", "prec", "val")

    def __init__(self, p: int, prec: int, val: int):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "val", val % p**prec)

    def __setattr__(self, name, value):
        raise AttributeError("PadicInt is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_digits(digits, p: int) -> "PadicInt":
        digits = list(digits)
        if not digits:
            raise ValueError("need at least one digit")
        if any(d < 0 or d >= p for d in digits):
            raise ValueError("digits must lie in [0, p)")
        val = 0
        for d in reversed(digits):
            val = val * p + d
        return PadicInt(p, len(digits), val)

    # -- views -------------------------------------------------------------

    @property
    def digits(self):
        """Base-p digits d_0..d_{N-1}, least significant first."""
        out, v = [], self.val
        for _ in range(self.prec):
            v, d = divmod(v, self.p)
            out.append(d)
        return tuple(out)

    @property
    def is_unit(self) -> bool:
        return self.val % self.p != 0

    @property
    def is_zero(self) -> bool:
        return self.val == 0

    def reduce(self, prec: int) -> "PadicInt":
        if prec > self.prec:
            raise InsufficientPrecision(f"cannot raise precision {self.prec} -> {prec}")
        return PadicInt(self.p, prec, self.val)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return PadicInt(self.p, self.prec, other)
        if isinstance(other, PadicInt):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = min(self.prec, o.prec)
        return PadicInt(self.p, n, self.val + o.val)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.p, self.prec, -self.val)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = min(self.prec, o.prec)
        return PadicInt(self.p, n, self.val * o.val)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.invert() ** (-k)
        return PadicInt(self.p, self.prec, pow(self.val, k, self.p**self.prec))

    def invert(self) -> "PadicInt":
        if not self.is_unit:
            raise NonUnit(f"{self!r} is not a unit")
        return PadicInt(self.p, self.prec, pow(self.val, -1, self.p**self.prec))

    def exact_div_by_p(self) -> "PadicInt":
        """Divide by p when the lowest digit is zero; one digit of precision is lost."""
        if self.val % self.p != 0:
            raise NonUnit("lowest digit nonzero: not divisible by p")
        if self.prec < 2:
            raise InsufficientPrecision("no digits left after dividing by p")
        return PadicInt(self.p, self.prec - 1, self.val // self.p)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.p == o.p and self.prec == o.prec and self.val == o.val

    def __hash__(self):
        return hash((self.p, self.prec, self.val))

    def __repr__(self):
        return f"PadicInt(p={self.p}, prec={self.prec}, val={self.val})"

    def __str__(self):
        return format_literal(self)


def teichmuller_lift(c: int, p: int, prec: int) -> PadicInt:
    """The unique (p-1)-st root of unity congruent to c mod p.

    Computed by iterating x <- x^p, which gains at least one digit per step.
    """
    if c % p == 0:
        raise ValueError("residue must be nonzero mod p")
    mod = p**prec
    x = c % mod
    for _ in range(prec + 1):
        y = pow(x, p, mod)
        if y == x:
            break
        x = y
    return PadicInt(p, prec, x)


def hensel_sqrt(u: PadicInt) -> PadicInt:
    """A square root of a unit, chosen as the smallest canonical representative.

    Raises NotASquare if u mod p is a non-residue (p odd) or u is not 1 mod 8
    (p = 2, which also needs precision >= 3).
    """
    p, prec = u.p, u.prec
    if not u.is_unit:
        raise NonUnit("square roots only for units")
    mod = p**prec
    if p == 2:
        if prec < 3:
            raise InsufficientPrecision("p=2 square roots need precision >= 3")
        if u.val % 8 != 1:
            raise NotASquare(f"{u.val} mod 8 != 1")
        # Lift digit by digit: exactly one of x, x + 2^(k-1) works mod 2^(k+1).
        x = 1
        for k in range(3, prec):
            if (x * x - u.val) % (1 << (k + 1)) != 0:
                x += 1 << (k - 1)
        roots = {x % mod, (-x) % mod}
        if prec > 3:
            roots |= {(x + (1 << (prec - 1))) % mod, (-x + (1 << (prec - 1))) % mod}
        roots = {r for r in roots if (r * r - u.val) % mod == 0}
        return PadicInt(2, prec, min(roots))
    # p odd: find a root mod p, then Newton-lift with doubling precision.
    c = u.val % p
    r0 = None
    for r in range(1, p):
        if (r * r) % p == c:
            r0 = r
            break
    if r0 is None:
        raise NotASquare(f"{c} is not a square mod {p}")
    k, x = 1, r0
    while k < prec:
        k = min(2 * k, prec)
        m = p**k
        x = (x + u.val * pow(x, -1, m)) * pow(2, -1, m) % m
    return PadicInt(p, prec, min(x, mod - x))


def parse_literal(text: str) -> PadicInt:
    """Parse the CLI digit-list literal, e.g. "p:3 [1,0,2]"."""
    text = text.strip()
    if not text.startswith("p:"):
        raise ValueError("literal must start with 'p:<prime>'")
    head, _, rest = text[2:].partition("[")
    p = int(head.strip())
    if not rest.endswith("]"):
        raise ValueError("missing closing ']'")
    entries = rest[:-1].split(",")
    if any(not d.strip() for d in entries):
        raise ValueError(f"unit literal {text!r} has an empty digit")
    return PadicInt.from_digits([int(d) for d in entries], p)


def format_literal(x: PadicInt) -> str:
    return f"p:{x.p} [{','.join(str(d) for d in x.digits)}]"
