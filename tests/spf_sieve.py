"""Test oracle: a smallest-prime-factor sieve and the factorizations read off it.

It shares no code with ``core3.arith``, which factorizes without a sieve.
"""

from math import isqrt


class SpfSieve:
    """Smallest-prime-factor table for 2..limit; immutable after construction."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        self.limit = limit
        spf = list(range(limit + 1))
        for p in range(2, isqrt(limit) + 1):
            if spf[p] == p:  # no smaller prime divides p
                for m in range(p * p, limit + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        self._spf = spf

    def smallest_prime_factor(self, m: int) -> int:
        if not 2 <= m <= self.limit:
            raise ValueError(f"{m} outside sieve range 2..{self.limit}")
        return self._spf[m]

    def factors(self, n: int) -> tuple[tuple[int, int], ...]:
        """((p1, a1), (p2, a2), ...) with n = p1**a1 * p2**a2 * ..., p1 < p2 < ..."""
        factors = []
        m = n
        while m > 1:
            p = self.smallest_prime_factor(m)
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        return tuple(factors)
