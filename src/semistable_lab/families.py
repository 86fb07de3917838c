"""Prime-conductor curve families and their distinguished isogeny members.

Three sources of curves live here: the two-parameter family attached to
primes p = u^2 + 64, an exhaustive small-coefficient box search for curves
of prime-power discriminant with a rational odd-torsion point (each
discriminant one quadratic in a6, read off one sieved prime-power table,
and each survivor's p handed on to the torsion test), and the `SEEDS`
table of seed curves.  On top of the enumeration sits the "dagger"
selection: inside each isogeny class, the member whose discriminant
valuation at p carries the largest power of ell.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt
from typing import NamedTuple

from .arith import is_prime, ord_at, prime_power_table, sqrt_mod
from .curves import (
    WeierstrassCurve,
    _disc_from_b,
    _memoized,
    has_rational_ell_torsion,
    invariants,
    is_ordinary,
    isogeny_class,
    two_division_poly,
)
from .polynomials import discriminant, fp_divmod, roots_mod

EXCEPTIONAL_PRIME = 17
EXCEPTIONAL_SEED = WeierstrassCurve(1, -1, 1, -1, -14)

# Seed curves of prime conductor p, keyed by (ell, p); the isogeny class
# of each carries a rational point of order ell.
SEEDS = {
    (2, EXCEPTIONAL_PRIME): EXCEPTIONAL_SEED,
    (3, 19): WeierstrassCurve(0, 1, 1, 1, 0),
    (3, 37): WeierstrassCurve(0, 1, 1, -3, 1),
    (5, 11): WeierstrassCurve(0, -1, 1, 0, 0),
}

# Desk-scale limits, checked before any work: ns_enumerate costs about
# bound^(1/2)/10 prime tests (about 0.3 s at the limit); miyawaki_search
# filters 12 (2 coeff_bound + 1)^2 models once per request and bound, one
# table lookup each (about 0.03 s at the limit, the 3 MB table included),
# then tests the survivors for ell-torsion (under 0.02 s per ell there).
_NS_BOUND_LIMIT = 10**10
_BOX_LIMIT = 32


class SquarePlus64Pair(NamedTuple):
    """The two curves attached to a prime p = u^2 + 64 with u = 1 mod 4."""

    p: int
    u: int
    disc_p: WeierstrassCurve
    disc_p_squared: WeierstrassCurve


class DaggerReport(NamedTuple):
    ell: int
    p: int
    seed: WeierstrassCurve
    members: tuple[WeierstrassCurve, ...]
    dagger: WeierstrassCurve
    dagger_valuation: int
    valuations: tuple[int, ...]
    congruence_ok: bool
    unramified_signal: bool | None  # two-division proxy, ell = 2 only


def ns_enumerate(bound: int) -> list[SquarePlus64Pair]:
    """All pairs for primes p = u^2 + 64 up to bound, smallest first.

    The sign of u is normalized to u = 1 mod 4; with a2 = (u - 1)/4 the two
    models are [1, a2, 0, -1, 0] and [1, a2, 0, 4, u].  Their discriminants
    are p and -p^2 on the nose, and the first curve is ordinary at 2; both
    facts are rechecked here on every pair rather than trusted.  A bound
    above _NS_BOUND_LIMIT is refused.
    """
    if bound > _NS_BOUND_LIMIT:
        raise ValueError(
            f"bound exceeds the desk-scale limit {_NS_BOUND_LIMIT}, got {bound}")
    u_max = isqrt(max(bound - 64, 0))
    # For odd u every prime factor q of u^2 + 64 is 1 mod 4, and q divides
    # it exactly when u = +-8 sqrt(-1) mod q.  Those u are struck for q up
    # to 2,000, except u^2 + 64 = q itself; the full test runs on the rest.
    alive = bytearray([1]) * (u_max + 1)
    for q in range(5, min(2000, u_max) + 1, 4):
        if is_prime(q):
            root = 8 * sqrt_mod(q - 1, q) % q
            for r in (root, q - root):
                first = r + q if r * r + 64 == q else r
                alive[first::q] = bytes(len(range(first, u_max + 1, q)))
    out = []
    for u_abs in range(1, u_max + 1, 2):
        p = u_abs * u_abs + 64
        if not alive[u_abs] or not is_prime(p):
            continue
        u = u_abs if u_abs % 4 == 1 else -u_abs
        a2 = (u - 1) // 4
        first = WeierstrassCurve(1, a2, 0, -1, 0)
        second = WeierstrassCurve(1, a2, 0, 4, u)
        if invariants(first).disc != p or invariants(second).disc != -p * p:
            raise AssertionError(f"discriminant identities fail at p = {p}")
        if not is_ordinary(first, 2):
            raise AssertionError(f"family curve is supersingular at 2 for p = {p}")
        out.append(SquarePlus64Pair(p=p, u=u, disc_p=first, disc_p_squared=second))
    return out


def _box_disc_bound(coeff_bound: int) -> int:
    """An upper bound on |disc| over the box of miyawaki_search.

    The triangle inequality on disc = -b2^2 b8 - 8 b4^3 - 27 b6^2 +
    9 b2 b4 b6, with |b2| <= 5, |b4| <= 2B + 1, |b6| <= 4B + 1 and
    |b8| <= B^2 + 6B + 1 for B = coeff_bound.
    """
    b4, b6 = 2 * coeff_bound + 1, 4 * coeff_bound + 1
    b8 = coeff_bound * (coeff_bound + 6) + 1
    return 25 * b8 + 8 * b4**3 + 27 * b6**2 + 45 * b4 * b6


def _a6_quadratic(a1: int, a2: int, a3: int, a4: int) -> tuple[int, int, int]:
    """(c4, d0, d1) for the models [a1, a2, a3, a4, a6]: c4 does not move
    with a6, and disc = d0 + a6 (d1 - 432 a6).

    With b6 = a3^2 + 4 a6 and b8 = b2 a6 + b8_a4, where b8_a4 =
    a2 a3^2 - a1 a3 a4 - a4^2, disc = -b2^2 b8 - 8 b4^3 - 27 b6^2 +
    9 b2 b4 b6 is a quadratic in a6: d0 is disc at a6 = 0 and d1 =
    36 b2 b4 - b2^3 - 216 a3^2.
    """
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    a3_sq = a3 * a3
    b8_a4 = a2 * a3_sq - a1 * a3 * a4 - a4 * a4
    return (b2 * b2 - 24 * b4, _disc_from_b(b2, b4, a3_sq, b8_a4),
            36 * b2 * b4 - b2**3 - 216 * a3_sq)


def _prime_power_models(coeff_bound: int) -> tuple[tuple[WeierstrassCurve, int, int, int], ...]:
    """(curve, p, c4, disc) for every model of the box with |disc| = p^k
    and multiplicative reduction at p, in enumeration order.

    Nothing here depends on ell, so the box is filtered once per request
    and bound.  One prime-power table up to _box_disc_bound, sieved here
    and dropped on return, answers each model's discriminant by a lookup.
    c4 and the a6-quadratic of the discriminant (_a6_quadratic) are
    computed once per (a1, a2, a3, a4), so each model costs one quadratic
    evaluation; c4 = b2^2 - 24 b4 rejects additive models, and only
    survivors become curves.  j = c4^3/disc is left to the caller, which
    needs it for its hits only.
    """
    sieve, powers = prime_power_table(_box_disc_bound(coeff_bound))
    out = []
    span = range(-coeff_bound, coeff_bound + 1)
    for a1, a2, a3, a4 in product((0, 1), (-1, 0, 1), (0, 1), span):
        c4, d0, d1 = _a6_quadratic(a1, a2, a3, a4)
        for a6 in span:
            disc = d0 + a6 * (d1 - 432 * a6)
            n = abs(disc)
            p = n if sieve[n] else powers.get(n)  # None at disc = 0 too
            if p is None or c4 % p == 0:  # additive: p divides disc and c4
                continue
            # int coefficients and |disc| = p^k >= 2: no check to repeat
            e = tuple.__new__(WeierstrassCurve, (a1, a2, a3, a4, a6))
            out.append((e, p, c4, disc))
    return tuple(out)


def miyawaki_search(ell: int, coeff_bound: int = 8) -> dict[int, list[WeierstrassCurve]]:
    """Box search for semistable prime-power-discriminant curves with a
    rational point of order ell.

    Models run over a1, a3 in {0, 1}, a2 in {-1, 0, 1} and |a4|, |a6| up to
    coeff_bound; a hit must have |disc| = p^k with multiplicative reduction
    at p.  That filter does not depend on ell and runs once per request and
    coeff_bound; each call then tests only its survivors for ell-torsion.
    A survivor's |disc| is a power of its p, so p is all the torsion test
    needs to tell the good point-count primes apart.  Hits are grouped by
    p and deduplicated by j-invariant, the last model in enumeration order
    standing for its j.  A negative coeff_bound, or one above _BOX_LIMIT,
    is refused.
    """
    if ell not in (3, 5, 7):
        raise ValueError("search covers ell in {3, 5, 7}")
    if coeff_bound < 0:
        raise ValueError(
            f"coefficient bound must be nonnegative, got {coeff_bound}")
    if coeff_bound > _BOX_LIMIT:
        raise ValueError(
            f"coefficient box exceeds the desk-scale limit {_BOX_LIMIT}, "
            f"got {coeff_bound}")
    hits: dict[int, dict] = {}
    for e, p, c4, disc in _memoized((coeff_bound, "box"),
                                    _prime_power_models, coeff_bound):
        if has_rational_ell_torsion(e, ell, p)[0]:
            hits.setdefault(p, {})[Fraction(c4**3, disc)] = e
    return {p: sorted(by_j.values(), key=lambda c: c.coefficients()) for p, by_j in sorted(hits.items())}


def identify_dagger(members, ell: int, p: int) -> WeierstrassCurve:
    """The unique member whose ord_p(disc) has the largest ell-part.

    Ambiguity means the class does not carry a distinguished member, which
    violates the contract of every family handled here; that is an error,
    not a tie to break silently.
    """
    best: list[WeierstrassCurve] = []
    best_part = 0
    for e in members:
        part = ell ** ord_at(ord_at(invariants(e).disc, p), ell)
        if part > best_part:
            best, best_part = [e], part
        elif part == best_part:
            best.append(e)
    if len(best) != 1:
        raise ValueError(
            f"no unique distinguished member at ell = {ell}, p = {p}: "
            f"{[e.coefficients() for e in best]}"
        )
    return best[0]


def conductor_congruence(ell: int, p: int) -> bool:
    """The congruence a prime must satisfy to carry these torsion structures:
    p = 1 mod 8 when ell = 2, p = 1 mod ell for odd ell."""
    if ell == 2:
        return p % 8 == 1
    return p % ell == 1


def two_torsion_field_unramified_at(e: WeierstrassCurve, p: int) -> bool:
    """Desk-level proxy for the 2-division field being unramified at odd p:
    the 2-division cubic has even discriminant valuation at p and splits
    into linear factors mod p (multiplicities counted)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    cubic = two_division_poly(e)
    if ord_at(discriminant(cubic), p) % 2:
        return False
    linear_count = 0
    work = cubic
    for r in roots_mod(cubic, p):
        # peel (x - r) with multiplicity
        while True:
            quot, rem = fp_divmod(work, (-r, 1), p)
            if rem:
                break
            work = quot
            linear_count += 1
    return linear_count == 3


def _seed_for(ell: int, p: int) -> WeierstrassCurve:
    if (ell, p) in SEEDS:
        return SEEDS[ell, p]
    if ell == 2:
        for pair in ns_enumerate(p):
            if pair.p == p:
                return pair.disc_p
        raise ValueError(f"{p} is not 17 and not of the form u^2 + 64")
    raise ValueError(f"no seed recorded for ell = {ell}, p = {p}")


def dagger_report(ell: int, p: int) -> DaggerReport:
    """Isogeny-class closure from the recorded seed, with the distinguished
    member and the facts the family is supposed to satisfy."""
    seed = _seed_for(ell, p)
    members = tuple(isogeny_class(seed))
    dagger = identify_dagger(members, ell, p)
    valuations = tuple(
        sorted(ord_at(abs(invariants(e).disc), p) for e in members)
    )
    signal = two_torsion_field_unramified_at(dagger, p) if ell == 2 else None
    return DaggerReport(
        ell=ell,
        p=p,
        seed=seed,
        members=members,
        dagger=dagger,
        dagger_valuation=ord_at(abs(invariants(dagger).disc), p),
        valuations=valuations,
        congruence_ok=conductor_congruence(ell, p),
        unramified_signal=signal,
    )
