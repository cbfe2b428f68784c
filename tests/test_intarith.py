"""The integer helpers against their naive definitions."""

import math

import pytest

from stabforge.intarith import divisors, factorize, multiplicative_order, prime_factors, split_p

N = 2000


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def test_factorisation_helpers_match_definitions():
    for n in range(1, N + 1):
        divs = tuple(d for d in range(1, n + 1) if n % d == 0)
        assert divisors(n) == divs
        primes = [d for d in divs if _is_prime(d)]
        assert prime_factors(n) == primes
        assert factorize(n) == [(q, split_p(n, q)[0]) for q in primes]
        assert math.prod(q**j for q, j in factorize(n)) == n


def test_split_p_matches_definition():
    for p in (2, 3, 5, 7):
        for n in range(1, N + 1):
            j = max(i for i in range(n.bit_length()) if n % p**i == 0)
            assert split_p(n, p) == (j, n // p**j)


def test_multiplicative_order_matches_definition():
    # the least t dividing the given multiple with a^t = 1 mod m, and ValueError
    # when the order does not divide the multiple (or does not exist)
    for a in (2, 3, 5, 7):
        for m in range(1, N + 1):
            if math.gcd(a, m) != 1:
                with pytest.raises(ValueError):
                    multiplicative_order(a, m, math.factorial(12))
                continue
            o, x = 1, a % m
            while x != 1 % m:
                x, o = x * a % m, o + 1
            for k in (1, 2, 6, 35):
                assert multiplicative_order(a, m, o * k) == o
            if o > 1:
                with pytest.raises(ValueError):
                    multiplicative_order(a, m, o + 1)


def test_bad_arguments_rejected():
    for n in (0, -4):
        with pytest.raises(ValueError, match=str(n)):
            split_p(n, 3)
        with pytest.raises(ValueError):
            factorize(n)
    with pytest.raises(ValueError):
        split_p(5, 1)
