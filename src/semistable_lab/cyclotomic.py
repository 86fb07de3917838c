"""Prime splitting in small cyclotomic fields and congruence-unit images.

For a prime ell <= 19 (so the cyclotomic field has class number one) and a
prime p != ell, this module computes how p splits, realizes the product of
local unit groups modulo ell-th powers concretely inside residue fields
F_{p^f}, and measures the image of the global units congruent to 1 modulo
lambda^2, where lambda is the prime over ell.  The reported bound
rank(Gamma_S) - rank(image) caps the rank of certain everywhere-controlled
abelian ell-extensions.

Units never appear as algebraic numbers: a unit is an integer polynomial in
a root of unity, its lambda-adic behaviour is read off from the first-order
Taylor data at 1, and the local images of the generators are read at
a root eta of the cyclotomic polynomial in a finite field, from the
characters of eta and 1 - eta^t (Washington, Introduction to Cyclotomic
Fields, GTM 83, 8.1); a power of eta is the character's root of unity.

A unit with Taylor pair (e0, e1) is 1 mod lambda^2 iff e0 = 1 and
beta = -e1/e0 = 0 mod ell, and only the image mod ell is read, so the rank
is taken over F_ell alone.  If beta(x) = 0 mod ell for an exponent vector
x, then (ell - 1)x meets both conditions and is -x mod ell, so the
congruence units have the image M(ker beta) of the generators' image
matrix M; and dim M(ker beta) = rank [beta | M] - rank beta.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import is_prime
from .padic import fl_echelon
from .polynomials import QuotientRing, equal_degree_factor, fp_trim, padd, pneg

_ELL_LIMIT = 19


class SplittingData(NamedTuple):
    """How the prime p splits in the ell-th (and 2ell-th) cyclotomic field.

    `g2`, the number of primes of Q(mu_{2ell}) over p, is the F_ell-rank of
    the product of local units mod ell-th powers over p: one cyclic factor
    of order ell per such prime, whose residue field contains the ell-th
    roots of unity.
    """

    ell: int
    p: int
    f: int
    g: int
    g2: int
    has_two_primes: bool


class GammaSReport(NamedTuple):
    ell: int
    p: int
    gamma_rank: int
    unit_image_rank: int
    bound: int


def _validate(ell: int, p: int) -> None:
    if not is_prime(ell) or ell > _ELL_LIMIT:
        raise ValueError(f"ell must be a prime <= {_ELL_LIMIT}, got {ell}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == ell:
        raise ValueError("p = ell is excluded")


def _mult_order(a: int, n: int) -> int:
    a %= n
    order, power = 1, a
    while power != 1:
        power = power * a % n
        order += 1
    return order


def splitting(ell: int, p: int) -> SplittingData:
    """Splitting data; `has_two_primes` is the usable-prime condition.

    The condition asks for at least two primes over p in Q(mu_{2ell}); at
    ell = 2 it sharpens to p = 1 mod 8.
    """
    _validate(ell, p)
    if ell == 2:
        f, g = 1, 1
        g2 = 2 if p % 4 == 1 else 1
    else:
        f = _mult_order(p, ell)
        g = (ell - 1) // f
        g2 = g
    cond = g2 >= 2 and (ell != 2 or p % 8 == 1)
    return SplittingData(ell=ell, p=p, f=f, g=g, g2=g2, has_two_primes=cond)


def _root_order(ell: int) -> int:
    # order of the root of unity generating Q(mu_{2ell}) up to sign
    return 4 if ell == 2 else ell


def _cyclo_poly(ell: int) -> tuple[int, ...]:
    return (1, 0, 1) if ell == 2 else (1,) * ell


def unit_generators(ell: int) -> list[tuple[int, ...]]:
    """Generators of the units of Z[mu] as polynomials in the root mu.

    Torsion units -1 and mu, then the cyclotomic units
    (1 - mu^b)/(1 - mu) = 1 + mu + ... + mu^(b-1) for 2 <= b <= (ell-1)/2.
    For ell <= 19 these generate a subgroup of full finite index prime
    to ell in the full unit group.
    """
    gens: list[tuple[int, ...]] = [(-1,), (0, 1)]
    for b in range(2, (ell - 1) // 2 + 1):
        gens.append((1,) * b)
    return gens


def _taylor_pair(poly: tuple[int, ...], ell: int) -> tuple[int, int]:
    """(value at 1, derivative at 1), reduced mod ell.

    Substituting mu = 1 - lambda makes a unit epsilon = e0 - e1'*lambda
    modulo lambda^2, and Z[mu]/lambda^2 = F_ell[lambda]/lambda^2.
    """
    e0 = sum(poly) % ell
    e1 = -sum(i * c for i, c in enumerate(poly)) % ell
    return e0, e1


def _local_places(ell: int, p: int):
    """Residue field, a root eta of Phi_m at y, and one exponent per place."""
    m = _root_order(ell)
    f = _mult_order(p, m)
    ring = QuotientRing(equal_degree_factor(fp_trim(_cyclo_poly(ell), p), f, p), p)
    eta = ring.pack((0, 1))
    reps, seen = [], set()
    for j in range(1, m):
        if gcd(j, m) == 1 and j not in seen:
            reps.append(j)
            t = j
            while t not in seen:  # the Frobenius orbit of j
                seen.add(t)
                t = t * p % m
    return ring, eta, reps


def _character_table(ring: QuotientRing, ell: int) -> dict:
    """zeta^k -> k for the ell-th roots of unity zeta^k of the residue field.

    zeta = eta^(m/ell), for the root eta of Phi_m that `_local_places` puts
    at y; then u -> table[u^e], e = (q - 1)/ell, maps F_q^x onto Z/ell with
    kernel the ell-th powers.
    """
    zeta = ring.pow(ring.pack((0, 1)), _root_order(ell) // ell)
    table = {}
    acc = 1
    for k in range(ell):
        table[acc] = k
        acc = ring.mul(acc, zeta)
    return table


def unit_images(ell: int, p: int) -> list[tuple[int, ...]]:
    """Image of each unit generator in (Z/ell)^g2, one coordinate per place.

    With chi(u) = table[u^e], e = (p^f - 1)/ell, the place of eta^j maps -1
    to 0, mu to j chi(eta), and (1 - mu^b)/(1 - mu) to c(jb) - c(j), where
    c(t) = chi(1 - eta^t).  chi(eta) = table[eta^(e mod m)] for eta of
    order m.  Frobenius gives (1 - eta^t)^p = 1 - eta^(tp), so c(tp) =
    p c(t): the orbit representatives j, one per place, take one power in
    F_{p^f} each.
    """
    _validate(ell, p)
    ring, eta, reps = _local_places(ell, p)
    table = _character_table(ring, ell)
    m = _root_order(ell)
    e = (p**ring.f - 1) // ell
    mu = table[ring.pow(eta, e % m)]
    # -1 is an ell-th power in every residue field here: (-1)^ell at odd
    # ell, eta^2 at ell = 2
    images = [(0,) * len(reps), tuple(j * mu % ell for j in reps)]
    # the other generators are (1 - mu^b)/(1 - mu) = (1,) * b
    cyclotomic_units = unit_generators(ell)[2:]
    if cyclotomic_units:
        c = {}
        for j in reps:
            root = ring.unpack(ring.pow(eta, j))
            value = table[ring.pow(ring.pack(padd((1,), pneg(root))), e)]
            t = j
            while t not in c:
                c[t] = value
                t, value = t * p % m, value * p % ell
        for poly in cyclotomic_units:
            b = len(poly)
            images.append(tuple((c[j * b % m] - c[j]) % ell for j in reps))
    return images


def unit_image_rank(ell: int, p: int) -> GammaSReport:
    """Rank data of the congruence-unit image inside the local product.

    The image is M(ker beta) over F_ell, where M has the rows of
    `unit_images` and beta_i = -e1/e0 is the unipotent coordinate of
    generator i: for x in ker beta, (ell - 1)x is 1 mod lambda^2 and is -x
    mod ell.  Its dimension is rank [beta | M] - rank beta.
    """
    images = unit_images(ell, p)
    g2 = len(images[0])  # one coordinate per place
    betas = []
    for poly in unit_generators(ell):
        e0, e1 = _taylor_pair(poly, ell)
        betas.append(-e1 * pow(e0, -1, ell) % ell)
    rows = [(beta,) + img for beta, img in zip(betas, images)]
    rank = len(fl_echelon(rows, ell)) - any(betas)  # less rank beta
    report = GammaSReport(
        ell=ell, p=p, gamma_rank=g2, unit_image_rank=rank, bound=g2 - rank
    )
    if not 0 <= report.bound <= report.gamma_rank:
        raise AssertionError("rank bookkeeping out of range")
    return report
