"""Small shared integer helpers: primality, factorization, valuations,
prime powers (one at a time, or sieved as a table up to a bound) and square
roots modulo a prime; and `Frozen`, the base of the package's immutable
slotted classes."""

from __future__ import annotations

import math
import random
from operator import attrgetter

# The prime bases 2..41 make Miller-Rabin deterministic below psi_13, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp.
# 86, 2017); the bases 2..37 alone pass psi_12 = 318665857834031151167461.
# Below psi_5 = 2152302898747, the least strong pseudoprime to the bases
# 2..11 (Jaeschke, Math. Comp. 61, 1993), those five bases suffice.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_5 = 2152302898747
PRIMALITY_BOUND = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIMALITY_BOUND; larger n is refused.

    The refusal names n's bit length, not n: past 4,300 digits the
    interpreter refuses to write an int as text at all.
    """
    if n >= PRIMALITY_BOUND:
        raise ValueError(
            f"primality is proven only below psi_13 = {PRIMALITY_BOUND} "
            f"({PRIMALITY_BOUND.bit_length()} bits), got an integer of "
            f"{n.bit_length()} bits")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:5] if n < _PSI_5 else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int, rng: random.Random) -> int:
    """Some nontrivial factor of an odd composite n."""
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; trial then rho."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in range(2, 10**4):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = random.Random(n) if n > 1 else None  # seeding outcosts a small n
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho_factor(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


def ord_at(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, p prime and k >= 1, or None.

    Trial division by 2, then by the odd numbers up to n^(1/2); the first
    divisor found is the least prime factor p, and n is a prime power
    exactly when it is a power of p.  No divisor up to n^(1/2) means n is
    prime.
    """
    if n < 2:
        return None
    if n % 2:
        for p in range(3, math.isqrt(n) + 1, 2):
            if n % p == 0:
                break
        else:
            return n, 1
    else:
        p = 2
    k = ord_at(n, p)
    return (p, k) if n == p**k else None


def prime_power_table(limit: int) -> tuple[bytearray, dict[int, int]]:
    """prime_power for every 0 <= n <= limit at once, as (sieve, powers).

    sieve[n] is 1 exactly when n is prime (a sieve of Eratosthenes), and
    powers maps each p^k <= limit with k >= 2 to p.  So n is a prime power
    exactly when sieve[n] or n in powers, and one lookup gives its prime.
    """
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = bytes(len(sieve[:2]))
    powers = {}
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
            q = p * p
            while q <= limit:
                powers[q] = p
                q *= p
    return sieve, powers


def sqrt_mod(n: int, p: int) -> int | None:
    """The least r in [0, p) with r^2 = n mod the prime p, or None.

    For p = 3 mod 4, r = n^((p+1)/4) has r^2 = n n^((p-1)/2), so n is a
    residue exactly when r^2 = n, and then r is a root.  Otherwise
    Tonelli-Shanks; the non-residue it needs is the least one, found by
    Euler's criterion, so the result is deterministic.  p must be prime;
    a composite p is refused only where a loop would otherwise not end.
    """
    n %= p
    if n == 0 or p == 2:
        return n
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return min(r, p - r) if r * r % p == n else None
    half = (p - 1) // 2
    if pow(n, half, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
        if z == p:
            raise ValueError(f"sqrt_mod needs a prime modulus, got {p}")
    c = pow(z, q, p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    while t != 1:
        # least i with t^(2^i) = 1; i < s because t has order dividing 2^s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == s:
                raise ValueError(f"sqrt_mod needs a prime modulus, got {p}")
        b = pow(c, 1 << (s - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        s = i
    return min(r, p - r)


def is_squarefree(n: int) -> bool:
    """Whether no square of a prime divides n; trial division to n^(1/3).

    Odd d are tried while d^3 <= m, the cofactor left after the divisors
    found so far.  Then every prime factor of m exceeds m^(1/3), so m has
    at most two of them and is squarefree unless it is a prime's square.
    """
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    if n % 2 == 0:
        n //= 2
    d = 3
    while d * d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 2
    return n == 1 or math.isqrt(n) ** 2 != n


class Frozen:
    """Base of the immutable slotted classes.

    A subclass names its constructor arguments in `_fields`, at least two
    and in order, and sets every slot in `__init__` with
    `object.__setattr__`; after that an assignment or deletion raises
    AttributeError.  Equality (same class only), hashing, repr and pickling
    read the `_fields`.  Slots outside them hold values derived from them,
    computed once.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
