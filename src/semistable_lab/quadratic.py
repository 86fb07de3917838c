"""Class numbers of imaginary quadratic fields by reduced-form counting.

A positive definite binary quadratic form ax^2 + bxy + cy^2 of discriminant
D = b^2 - 4ac < 0 is reduced when |b| <= a <= c, with b >= 0 whenever
|b| = a or a = c; each proper equivalence class contains exactly one reduced
form, so counting reduced forms of a fundamental discriminant D gives the
class number of Q(sqrt(D)).

The forms are found without scanning b: a runs up to sqrt(|D|/3), and for
each a the admissible b are the square roots of D mod 4a, built from roots
mod the primes dividing a (Tonelli-Shanks), lifted to prime powers and
glued by the Chinese remainder theorem (Cohen, A Course in Computational
Algebraic Number Theory, 1.5 and 5.3).  A call costs about sqrt(|D|)
steps; |D| above _DISC_LIMIT is refused before any work.

The class number feeds the degree of the maximal 2-extension of Q that is
controlled at an odd prime p: with K = Q(sqrt(-p)) and n the 2-part of the
class number of K, that extension has a cyclic layer of order 2n over K and
degree 4n over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, is_squarefree, ord_at, sqrt_mod

# Largest |D| answered: the sieve in reduced_forms has sqrt(|D|/3) entries
# and is_squarefree trial-divides up to sqrt(|D|); a call near the limit
# takes about 0.6 s on one 2-vCPU Xeon core.
_DISC_LIMIT = 10**11


@dataclass(frozen=True)
class QuadForm:
    """Positive definite integral binary quadratic form."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("form must be positive definite (a > 0)")
        if self.discriminant >= 0:
            raise ValueError("form must have negative discriminant")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if b < 0 and (abs(b) == a or a == c):
            return False
        return True


def is_fundamental_discriminant(disc: int) -> bool:
    """Field discriminants: squarefree 1 mod 4, or 4m with m 2 or 3 mod 4."""
    if disc >= 0:
        return False
    if disc % 4 == 1:
        return is_squarefree(disc)
    if disc % 4 == 0:
        m = disc // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def _require_fundamental(disc: int) -> None:
    if disc >= 0:
        raise ValueError(f"discriminant must be negative, got {disc}")
    if -disc > _DISC_LIMIT:
        raise ValueError(
            f"|D| exceeds the desk-scale limit {_DISC_LIMIT}, got {disc}")
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")


def _least_prime_factors(n: int) -> list[int]:
    """spf[m] = least prime factor of m, for 2 <= m <= n."""
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _half_roots(disc: int, p: int, e: int) -> list[int]:
    """The t mod p^e with (2t + delta)^2 = D mod 4p^e, where delta = D mod 2.

    For odd p these are the square roots of D mod p^e, shifted and halved;
    D is fundamental, so an odd p divides it at most once.
    """
    delta = disc & 1
    if p == 2:
        # lift one binary digit at a time: 2^e | t^2 + delta t + (delta - D)/4
        k = (delta - disc) // 4
        roots, m = [0], 1
        for _ in range(e):
            m *= 2
            roots = [u for t in roots for u in (t, t + m // 2)
                     if (u * u + delta * u + k) % m == 0]
        return roots
    q = p**e
    half = (q + 1) // 2
    if disc % p == 0:
        return [-delta * half % q] if e == 1 else []
    s = sqrt_mod(disc, p)
    if s is None:
        return []
    m = p
    for _ in range(e - 1):  # Hensel: s^2 = D mod p^i lifts uniquely
        m *= p
        s = (s - (s * s - disc) * pow(2 * s, -1, m)) % m
    return [(r - delta) * half % q for r in (s, q - s)]


def _reduced_triples(disc: int):
    """The (a, b, c) of every reduced form of a fundamental discriminant.

    a runs up to sqrt(|D|/3) (forced by |b| <= a <= c).  With b = 2t + delta
    and delta = D mod 2, 4a | b^2 - D is a condition on t mod a.  Its roots
    mod a come from those mod a / q and mod q = p^e, the power of the least
    prime p of a (read off a sieve), glued by CRT; each root gives the one b
    of (-a, a] in its class.  The cost is about sqrt(|D|) steps plus one
    per root, in place of the |D| / 6 of a scan over b.  Forms come ordered
    by a, then b.
    """
    _require_fundamental(disc)
    top = isqrt(-disc // 3)
    spf = _least_prime_factors(top)
    delta = disc & 1
    roots_at: dict[int, list[int]] = {}  # q = p^e -> _half_roots(disc, p, e)
    roots = [[], [0]]  # roots[a]: the t mod a, for every a done so far
    yield 1, delta, (delta - disc) // 4  # a = 1 allows b = delta
    for a in range(2, top + 1):
        p = spf[a]
        q, rest, e = p, a // p, 1
        while rest % p == 0:
            rest //= p
            q *= p
            e += 1
        ts = roots[rest]
        if ts:
            rs = roots_at.get(q)
            if rs is None:
                rs = roots_at[q] = _half_roots(disc, p, e)
            if rest == 1 or not rs:
                ts = rs
            else:
                inv = pow(rest, -1, q)
                ts = [t + rest * ((r - t) * inv % q) for t in ts for r in rs]
        roots.append(ts)
        if not ts:
            continue
        bs = [2 * t + delta for t in ts]
        bs = sorted(b - 2 * a if b > a else b for b in bs)
        for b in bs:
            c = (b * b - disc) // (4 * a)
            if c >= a and not (b < 0 and c == a):
                yield a, b, c


def reduced_forms(disc: int) -> list[QuadForm]:
    """All reduced forms of the given fundamental discriminant."""
    return [QuadForm(a, b, c) for a, b, c in _reduced_triples(disc)]


def class_number(disc: int) -> int:
    return sum(1 for _ in _reduced_triples(disc))


@dataclass(frozen=True)
class ControlledExtensionReport:
    """Shape of the maximal 2-extension controlled at the odd prime p."""

    p: int
    disc: int
    h: int
    n: int
    gal_MK_order: int
    degree_over_Q: int
    dihedral: bool


def controlled_two_extension(p: int) -> ControlledExtensionReport:
    """Degree data of the maximal 2-extension of Q controlled at p.

    The field is assembled over K = Q(sqrt(-p)); its Galois group over K is
    cyclic of order 2n with n the 2-part of the class number of K, and the
    full group over Q is dihedral of order 4n.
    """
    if p == 2:
        raise ValueError("the construction needs an odd prime")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    disc = -p if p % 4 == 3 else -4 * p
    h = class_number(disc)
    n = 2 ** ord_at(h, 2)
    return ControlledExtensionReport(
        p=p,
        disc=disc,
        h=h,
        n=n,
        gal_MK_order=2 * n,
        degree_over_Q=4 * n,
        dihedral=True,
    )
