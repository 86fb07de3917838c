"""Class numbers of imaginary quadratic fields by reduced-form counting.

A positive definite binary quadratic form ax^2 + bxy + cy^2 of discriminant
D = b^2 - 4ac < 0 is reduced when |b| <= a <= c, with b >= 0 whenever
|b| = a or a = c; each proper equivalence class contains exactly one reduced
form, so counting reduced forms of a fundamental discriminant D gives the
class number of Q(sqrt(D)).

The class number feeds the degree of the maximal 2-extension of Q that is
controlled at an odd prime p: with K = Q(sqrt(-p)) and n the 2-part of the
class number of K, that extension has a cyclic layer of order 2n over K and
degree 4n over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, is_squarefree, ord_at


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
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")


def reduced_forms(disc: int) -> list[QuadForm]:
    """All reduced forms of the given fundamental discriminant.

    Enumerates a up to sqrt(|D|/3) (forced by |b| <= a <= c) and, for each
    a, the b of correct parity in (-a, a] with 4a | b^2 - D.
    """
    _require_fundamental(disc)
    out = []
    for a in range(1, isqrt(-disc // 3) + 1):
        four_a = 4 * a
        b = -a + 1
        if (b - disc) % 2:
            b += 1
        while b <= a:
            c, rem = divmod(b * b - disc, four_a)
            if rem == 0 and c >= a and not (b < 0 and c == a):
                out.append(QuadForm(a, b, c))
            b += 2
    return out


def class_number(disc: int) -> int:
    return len(reduced_forms(disc))


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
