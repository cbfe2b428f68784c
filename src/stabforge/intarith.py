"""Integer helpers: trial-division factorisation and what is built on it, and
integer matrices as lists of rows."""

from __future__ import annotations


def factorize(n: int):
    """[(prime, exponent), ...] for n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            j, n = split_p(n, q)
            out.append((q, j))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int):
    """The distinct primes dividing n >= 1, ascending."""
    return [q for q, _ in factorize(n)]


def divisors(n: int):
    """Every positive divisor of n >= 1, ascending."""
    out = [1]
    for q, j in factorize(n):
        out = [d * q**i for d in out for i in range(j + 1)]
    return tuple(sorted(out))


def multiplicative_order(a: int, m: int, multiple: int) -> int:
    """The least t dividing multiple with a^t = 1 mod m (t = 1 for m = 1), which
    is the order of a in (Z/m)^x when that order divides multiple; only
    multiple is factored.  ValueError when no divisor of multiple works."""
    if pow(a, multiple, m) != 1 % m:
        raise ValueError(f"no t dividing {multiple} has {a}^t = 1 mod {m}")
    order = multiple
    for q in prime_factors(multiple):
        while order % q == 0 and pow(a, order // q, m) == 1 % m:
            order //= q
    return order


def check_params(p: int, alpha: int = 0, **positive):
    """Raise ValueError, naming the bad argument, unless p is prime, alpha >= 0
    and every named value is >= 1."""
    if p < 2 or factorize(p) != [(p, 1)]:
        raise ValueError(f"p must be a prime, got {p}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    for name, v in positive.items():
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")


def split_p(n: int, p: int):
    """(j, m) with n = p^j m and m prime to p, for n >= 1 and p >= 2."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if p < 2:
        raise ValueError(f"expected p >= 2, got {p}")
    j = 0
    while n % p == 0:
        n //= p
        j += 1
    return j, n


def mat_mul(a, b):
    """The product of integer matrices given as lists of rows."""
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
