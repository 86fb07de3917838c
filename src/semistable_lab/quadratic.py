"""Class numbers of imaginary quadratic fields by reduced-form counting.

A positive definite binary quadratic form ax^2 + bxy + cy^2 of discriminant
D = b^2 - 4ac < 0 is reduced when |b| <= a <= c, with b >= 0 whenever
|b| = a or a = c; each proper equivalence class contains exactly one reduced
form, so counting reduced forms of a fundamental discriminant D gives the
class number of Q(sqrt(D)).

With b = 2t + delta and delta = D mod 2, the reduced forms with leading
coefficient a come from the roots t mod a of 4a | (2t + delta)^2 - D: each
gives the one b of (-a, a] in its class, and the form when c >= a; a runs
up to sqrt(|D|/3).  The number r(a) of roots is multiplicative in a and
fixed by the Kronecker symbols (D/p), so one sieve over the primes up to
sqrt(|D|/3) writes every r(a).  When 4a^2 < |D| every root has c > a, so
class_number adds up r(a) there and lists roots only in the window
sqrt(|D|)/2 < a <= sqrt(|D|/3), about 13 % of the a.  The roots are built
from those mod the primes dividing a (Tonelli-Shanks), lifted to prime
powers and glued by the Chinese remainder theorem, by the one routine
that reduced_forms runs for every a (Cohen, A Course in Computational
Algebraic Number Theory, 1.5 and 5.3).  A call costs about sqrt(|D|)
steps; |D| above _DISC_LIMIT is refused before any work.

The class number feeds the degree of the maximal 2-extension of Q that is
controlled at an odd prime p: with K = Q(sqrt(-p)) and n the 2-part of the
class number of K, that extension has a cyclic layer of order 2n over K and
degree 4n over Q.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .arith import is_prime, is_squarefree, ord_at, sqrt_mod

# Largest |D| answered: the sieves have sqrt(|D|/3) entries and
# is_squarefree trial-divides up to |D|^(1/3); class_number near the limit
# takes about 0.15 s on one 2-vCPU Xeon core.
_DISC_LIMIT = 10**11


class QuadForm(NamedTuple("QuadForm", [("a", int), ("b", int), ("c", int)])):
    """Positive definite integral binary quadratic form."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, a: int, b: int, c: int) -> "QuadForm":
        form = tuple.__new__(cls, (a, b, c))
        form.__post_init__()
        return form

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("form must be positive definite (a > 0)")
        if self.discriminant >= 0:
            raise ValueError("form must have negative discriminant")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


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
    """spf[m] = least prime factor of m, for 2 <= m <= n.

    Every k from isqrt(n) down to 2 stamps itself on its multiples from
    k^2 on.  The least prime factor p of a composite m has p^2 <= m, so p
    stamps m, and last: no k with 2 <= k < p divides m.
    """
    spf = list(range(n + 1))
    for k in range(isqrt(n), 1, -1):
        spf[k * k::k] = [k] * len(range(k * k, n + 1, k))
    return spf


def _root_counts(disc: int, top: int, spf: list[int]) -> list[int]:
    """r[a] = #{t mod a : 4a | (2t + delta)^2 - D} for 1 <= a <= top.

    r is multiplicative, and its factor at p^e || a depends only on the
    Kronecker symbol (D/p): 2 when it is 1 (p splits), 0 when it is -1
    (p is inert), and when p | D (p ramifies) 1 at e = 1 and 0 at e >= 2,
    D being fundamental.  (D/2) is read off D mod 8, and (D/p) for odd p
    by Euler's criterion.  So one pass over the primes writes list slices:
    double the multiples of a split p, zero those of an inert p and those
    of p^2 for a ramified p.
    """
    r = [0] + [1] * top
    for p in [m for m in range(2, top + 1) if spf[m] == m]:
        # 1: split, 0: ramified, any other: inert; D = 5 mod 8 is inert at 2
        euler = pow(disc, p >> 1, p) if p > 2 else disc % 8 * (disc & 1)
        if euler == 1:
            r[p::p] = [2 * x for x in r[p::p]]
        else:
            step = p * p if euler == 0 else p
            r[step::step] = [0] * len(range(step, top + 1, step))
    return r


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


def _forms_at(disc: int, a: int, spf: list[int],
              local: dict[int, list[int]]) -> list[tuple[int, int]]:
    """The (b, c) of the reduced forms of discriminant D with leading a.

    With b = 2t + delta, 4a | b^2 - D is a condition on t mod a.  Its
    roots mod each prime power q = p^e || a (p read off the sieve spf,
    kept in local by q) are glued by CRT; each root gives the one b of
    (-a, a] in its class, and the form is reduced when c >= a, with
    b >= 0 if c = a.  Pairs come in no set order.
    """
    delta = disc & 1
    ts, m, rest = [0], 1, a
    while rest > 1:
        p = spf[rest]
        q, e = p, 1
        rest //= p
        while rest % p == 0:
            rest //= p
            q *= p
            e += 1
        rs = local.get(q)
        if rs is None:
            rs = local[q] = _half_roots(disc, p, e)
        inv = pow(m, -1, q)
        ts = [t + m * ((r - t) * inv % q) for t in ts for r in rs]
        m *= q
    out = []
    for t in ts:
        b = 2 * t + delta
        if b > a:
            b -= 2 * a
        c = (b * b - disc) // (4 * a)
        if c >= a and not (b < 0 and c == a):
            out.append((b, c))
    return out


def _sieved(disc: int) -> tuple[int, list[int], list[int]]:
    """top = isqrt(|D|/3), the bound on a forced by |b| <= a <= c, with
    the least-prime-factor sieve and the root counts r up to top."""
    _require_fundamental(disc)
    top = isqrt(-disc // 3)
    spf = _least_prime_factors(top)
    return top, spf, _root_counts(disc, top, spf)


def reduced_forms(disc: int) -> list[QuadForm]:
    """All reduced forms of the given fundamental discriminant, ordered by
    a, then b; a runs over the a <= isqrt(|D|/3) with r[a] > 0."""
    top, spf, r = _sieved(disc)
    local: dict[int, list[int]] = {}
    return [QuadForm(a, b, c) for a in range(1, top + 1) if r[a]
            for b, c in sorted(_forms_at(disc, a, spf, local))]


def class_number(disc: int) -> int:
    """The number of reduced forms of the fundamental discriminant D: r[a]
    for each a with 4a^2 < |D|, where every b in (-a, a] has c > a, and the
    forms listed for each a above that."""
    top, spf, r = _sieved(disc)
    low = isqrt((-disc - 1) // 4)  # the largest a with 4a^2 < |D|
    local: dict[int, list[int]] = {}
    return sum(r[:low + 1]) + sum(
        len(_forms_at(disc, a, spf, local))
        for a in range(low + 1, top + 1) if r[a])


class ControlledExtensionReport(NamedTuple):
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
