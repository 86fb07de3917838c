"""Integral Weierstrass curve arithmetic at desk scale.

Exact invariants, reduction type at a prime, point counts over F_p and,
through the trace recurrence, over F_{p^k}, rational torsion, isogeny
quotients by a rational prime-order point, and the odd part of a genus-2
model discriminant.  All arithmetic is exact: integers, Fractions, and
the dense polynomial layer; nothing here floats.

Rational ell-torsion is decided in two steps.  "No" comes from point
counts: ell not dividing #E(F_q) at a small prime q != ell of good
reduction proves there is no rational point of order ell.  "Yes", with
its witness, comes only from a rational root of the ell-division
polynomial.

A rational torsion point of an integral model has 4x and 8y in Z
(Silverman, AEC, VIII.7.1), so torsion is worked in integers on
E' = (2 a1, 4 a2, 8 a3, 16 a4, 64 a6), where the point is (4x, 8y): the
multiples, the slopes between them and Velu's sums are all integers.
Public points, witnesses included, stay Fraction pairs on the model
itself.  A torsion point's order, and the multiples Velu's formulas sum
over, come from one chain P, 2P, ... on E' that stops about halfway
round.

Inside a `request_memo` block (the CLI opens one per request), each of
these is computed once, under the key shown; outside one nothing is
cached, and nothing outlives the block:
  - #E(F_q), under (coefficients mod q, q), so curves congruent mod q
    share it;
  - the division polynomial's rational points of order ell, under
    (coefficients, "torsion", ell);
  - a torsion point's chain, under (coefficients, "chain", (4x, 8y));
  - a curve's one-step isogeny quotients, under (coefficients,
    "quotients");
  - families' ell-independent Miyawaki box filter, under (coeff_bound,
    "box").

Minimality is the caller's contract.  The only model surgery provided is
the standard (u, r, s, t) change of coordinates with scale u in {1, 2},
which is enough to reduce every quotient produced by the curve families
in this package; additive reduction is reported, never repaired.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .arith import is_prime, ord_at, prime_power
from .polynomials import (
    degree,
    discriminant,
    padd,
    peval,
    pmul,
    pscale,
    rational_roots,
    trim,
)


class SingularCurveError(ValueError):
    """Raised when a Weierstrass model has vanishing discriminant."""


class WeierstrassCurve(NamedTuple("WeierstrassCurve", [
        ("a1", int), ("a2", int), ("a3", int), ("a4", int), ("a6", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, a1: int, a2: int, a3: int, a4: int, a6: int) -> "WeierstrassCurve":
        coeffs = (a1, a2, a3, a4, a6)
        for name, value in zip(cls._fields, coeffs):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an integer")
        if _disc_from_b(*_b_invariants(coeffs)) == 0:
            raise SingularCurveError(f"singular model {coeffs}")
        return tuple.__new__(cls, coeffs)

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return tuple(self)


class CurveInvariants(NamedTuple):
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int
    j: Fraction


class LocalData(NamedTuple):
    p: int
    kind: str  # good | multiplicative | additive
    component_order: int  # ord_p(disc) when multiplicative, else 1


def _b_invariants(coeffs: tuple[int, int, int, int, int]) -> tuple[int, int, int, int]:
    a1, a2, a3, a4, a6 = coeffs
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    return b2, b4, b6, b8


def _disc_from_b(b2: int, b4: int, b6: int, b8: int) -> int:
    return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6


def invariants(e: WeierstrassCurve) -> CurveInvariants:
    b2, b4, b6, b8 = _b_invariants(e.coefficients())
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = _disc_from_b(b2, b4, b6, b8)
    if disc == 0:
        raise SingularCurveError("singular model")
    if 4 * b8 != b2 * b6 - b4**2 or 1728 * disc != c4**3 - c6**2:
        raise AssertionError("invariant identities violated")
    return CurveInvariants(
        b2=b2, b4=b4, b6=b6, b8=b8, c4=c4, c6=c6, disc=disc, j=Fraction(c4**3, disc)
    )


def local_data(e: WeierstrassCurve, p: int) -> LocalData:
    """Reduction type of a model assumed minimal at p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    inv = invariants(e)
    if inv.disc % p:
        return LocalData(p=p, kind="good", component_order=1)
    if inv.c4 % p:
        return LocalData(
            p=p, kind="multiplicative", component_order=ord_at(inv.disc, p)
        )
    return LocalData(p=p, kind="additive", component_order=1)


# ---------------------------------------------------------------------------
# request memo

# Set only inside a `request_memo` block; see the module docstring.
_MEMO: ContextVar[dict | None] = ContextVar("curves_request_memo",
                                            default=None)


class request_memo:
    """Context manager: within it, each fact the module docstring lists
    is computed once."""

    def __enter__(self):
        self._token = _MEMO.set({})

    def __exit__(self, *exc_info):
        _MEMO.reset(self._token)


def _memoized(key, compute, *args):
    """compute(*args), kept under key in the request memo when one is
    set."""
    memo = _MEMO.get()
    if memo is None:
        return compute(*args)
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


# ---------------------------------------------------------------------------
# point counting

_COUNT_LIMIT = 10**6


def count_points(e: WeierstrassCurve, q: int) -> int:
    """Number of points over F_q, including infinity; good reduction only.

    Only F_p is enumerated.  For q = p^k with k > 1 the count is
    q + 1 - s_k, where s_0 = 2, s_1 = a_p = p + 1 - #E(F_p) and
    s_k = a_p s_(k-1) - p s_(k-2) (Silverman, AEC, V.2.3.1); #E(F_p) is
    read through the request memo.
    """
    if q > _COUNT_LIMIT:
        raise ValueError(f"q exceeds the desk-scale limit {_COUNT_LIMIT}")
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"not a prime power: {q}")
    p, k = pk
    if _disc_from_b(*_b_invariants(e.coefficients())) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    if k > 1:
        ap = p + 1 - _count(e, p)
        prev, s = 2, ap
        for _ in range(k - 1):
            prev, s = s, ap * s - p * prev
        count = q + 1 - s
    elif p > 2:
        # z = 2y + h(x) turns the count into counting square roots of 4g + h^2
        h = (e.a3, e.a1)  # y-linear part
        g = (e.a6, e.a4, e.a2, 1)
        f = trim(padd(pscale(g, 4), pmul(h, h)))
        ns = [0] * p
        for z in range(p):
            ns[z * z % p] += 1
        count = 1 + sum(ns[peval(f, x) % p] for x in range(p))
    else:
        count = 1
        for x in (0, 1):
            for y in (0, 1):
                lhs = y * y + e.a1 * x * y + e.a3 * y
                rhs = x**3 + e.a2 * x * x + e.a4 * x + e.a6
                count += (lhs - rhs) % 2 == 0
    if (q + 1 - count) ** 2 > 4 * q:
        raise AssertionError("count outside the Hasse interval")
    return count


def _count(e: WeierstrassCurve, q: int) -> int:
    """count_points, through the request memo, keyed by the coefficients
    mod q: for q = p^k, #E(F_q) and good reduction at p depend only on the
    reduction mod p, so congruent curves share one count."""
    if not q:  # no residues mod 0; count_points refuses it
        return count_points(e, q)
    a1, a2, a3, a4, a6 = e
    return _memoized(((a1 % q, a2 % q, a3 % q, a4 % q, a6 % q), q),
                     count_points, e, q)


def trace_of_frobenius(e: WeierstrassCurve, q: int) -> int:
    return q + 1 - _count(e, q)


def is_ordinary(e: WeierstrassCurve, ell: int) -> bool:
    """True when the trace at a good prime ell is a unit mod ell."""
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    return trace_of_frobenius(e, ell) % ell != 0


# ---------------------------------------------------------------------------
# rational points and torsion

Point = tuple[Fraction, Fraction] | None  # None is the point at infinity


def on_curve(e: WeierstrassCurve, pt: Point) -> bool:
    if pt is None:
        return True
    x, y = Fraction(pt[0]), Fraction(pt[1])
    return y * y + e.a1 * x * y + e.a3 * y == x**3 + e.a2 * x * x + e.a4 * x + e.a6


def negate(e: WeierstrassCurve, pt: Point) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (x, -y - e.a1 * x - e.a3)


def add_points(e: WeierstrassCurve, p1: Point, p2: Point) -> Point:
    """The chord-and-tangent sum.  Two points with integer coordinates and
    an integer slope between them (torsion points on a model from _scaled
    always are) add in integers; any other pair adds in Fractions."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and y1 + y2 + e.a1 * x2 + e.a3 == 0:
        return None
    if x1 == x2:
        num = 3 * x1 * x1 + 2 * e.a2 * x1 + e.a4 - e.a1 * y1
        den = 2 * y1 + e.a1 * x1 + e.a3
    else:
        num, den = y2 - y1, x2 - x1
    if type(num) is int and type(den) is int and num % den == 0:
        lam = num // den
    else:
        lam = Fraction(num, den)
    nu = y1 - lam * x1
    x3 = lam * lam + e.a1 * lam - e.a2 - x1 - x2
    y3 = -(lam + e.a1) * x3 - nu - e.a3
    return (x3, y3)


def multiply_point(e: WeierstrassCurve, k: int, pt: Point) -> Point:
    if k < 0:
        return multiply_point(e, -k, negate(e, pt))
    acc: Point = None
    for _ in range(k):
        acc = add_points(e, acc, pt)
    return acc


# Mazur: a rational torsion point has order at most 12.
_TORSION_ORDER_BOUND = 12


def _scaled(e: WeierstrassCurve) -> WeierstrassCurve:
    """E' = (2 a1, 4 a2, 8 a3, 16 a4, 64 a6), on which the point (x, y) of
    e is (X, Y) = (4x, 8y).  A rational torsion point of an integral model
    has 4x and 8y in Z (Silverman, AEC, VIII.7.1), so on E' the torsion
    points and the slopes between them are integers."""
    a1, a2, a3, a4, a6 = e
    # disc(E') = 2^12 disc(e), so E' needs no nonsingularity check
    return tuple.__new__(WeierstrassCurve,
                         (2 * a1, 4 * a2, 8 * a3, 16 * a4, 64 * a6))


def _scaled_point(e: WeierstrassCurve, pt: Point,
                  off_curve: str) -> tuple[int, int]:
    """(4x, 8y) for a finite point pt of e; ValueError(off_curve) when pt
    is not on e.  A point of e with 4x or 8y not an integer is refused as
    not torsion."""
    x, y = pt
    X, rx = divmod(4 * x.numerator, x.denominator)
    Y, ry = divmod(8 * y.numerator, y.denominator)
    if rx or ry:
        if on_curve(e, pt):
            raise ValueError("point is not torsion of small order")
        raise ValueError(off_curve)
    a1, a2, a3, a4, a6 = _scaled(e)
    if Y * (Y + a1 * X + a3) != ((X + a2) * X + a4) * X + a6:
        raise ValueError(off_curve)
    return X, Y


def _chain(e: WeierstrassCurve, P: tuple[int, int]) -> tuple[list, int]:
    """([P, 2P, ..., mP], n) on E' = _scaled(e) for an integer point P of
    E' of order n at most _TORSION_ORDER_BOUND, where m = floor(n/2) +
    (n odd); kept under (e, "chain", P) in the request memo, so a point's
    order and Velu's sums share one chain.

    The chain stops at the first k with kP = -kP (n = 2k) or
    (k + 1)P = -kP (n = 2k + 1), after floor((n - 1)/2) additions where
    adding P until O takes n - 1; its first floor(n/2) entries are the
    multiples that Velu's formulas sum over.  A multiple that is not an
    integer point proves P is not torsion.
    """
    return _memoized((e.coefficients(), "chain", P), _scaled_multiples, e, P)


def _scaled_multiples(e: WeierstrassCurve,
                      P: tuple[int, int]) -> tuple[list, int]:
    """What _chain keeps, computed."""
    s = _scaled(e)
    chain = [P]
    for k in range(1, _TORSION_ORDER_BOUND // 2 + 1):
        x, y = chain[-1]
        neg = (x, -y - s.a1 * x - s.a3)
        if y == neg[1]:
            return chain, 2 * k
        if 2 * k + 1 > _TORSION_ORDER_BOUND:
            break
        nxt = add_points(s, chain[-1], P)
        if type(nxt[0]) is not int:
            break
        chain.append(nxt)
        if nxt == neg:
            return chain, 2 * k + 1
    raise ValueError("point is not torsion of small order")


def point_order(e: WeierstrassCurve, pt: Point) -> int:
    """Order of a torsion point of order at most _TORSION_ORDER_BOUND."""
    if pt is None:
        return 1
    return _chain(e, _scaled_point(e, pt, "point not on curve"))[1]


def two_division_poly(e: WeierstrassCurve) -> tuple[int, ...]:
    b2, b4, b6, _ = _b_invariants(e.coefficients())
    return (b6, 2 * b4, b2, 4)


def division_poly(e: WeierstrassCurve, ell: int) -> tuple[int, ...]:
    """The univariate ell-division polynomial for odd ell in {3, 5, 7}."""
    b2, b4, b6, b8 = _b_invariants(e.coefficients())
    psi3 = (b8, 3 * b6, 3 * b4, b2, 3)
    if ell == 3:
        return psi3
    f = (b6, 2 * b4, b2, 4)
    q4 = (
        b4 * b8 - b6**2,
        b2 * b8 - b4 * b6,
        10 * b8,
        10 * b6,
        5 * b4,
        b2,
        2,
    )
    psi5 = trim(
        padd(pmul(q4, pmul(f, f)), pscale(pmul(psi3, pmul(psi3, psi3)), -1))
    )
    if ell == 5:
        return psi5
    if ell == 7:
        q4cube = pmul(q4, pmul(q4, q4))
        return trim(
            padd(
                pmul(psi5, pmul(psi3, pmul(psi3, psi3))),
                pscale(pmul(pmul(f, f), q4cube), -1),
            )
        )
    raise ValueError(f"division polynomial not provided for ell = {ell}")


# Primes the point-count filter may use, and how many good ones it counts at
# before it leaves the question to the division polynomial.
_FILTER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_FILTER_GOOD_PRIMES = 4


def _counts_rule_out(e: WeierstrassCurve, ell: int, disc: int) -> bool:
    """Does a point count prove that there is no rational point of order
    ell?

    If q != ell and the model has good reduction at q, reduction mod q is
    injective on E(Q)[ell] (Silverman, AEC, Prop. VII.3.1), so ell not
    dividing #E(F_q) proves it.  Up to _FILTER_GOOD_PRIMES such q are
    tried, in order, stopping at the first count ell does not divide; a
    curve that passes them all, or has too few good q among
    _FILTER_PRIMES, is left to the division polynomial.  Only the prime
    factors of disc are read: the discriminant itself, or p when
    |disc| = p^k, tells the bad q apart.
    """
    good = 0
    for q in _FILTER_PRIMES:
        if q == ell or disc % q == 0:
            continue
        if _count(e, q) % ell:
            return True
        good += 1
        if good == _FILTER_GOOD_PRIMES:
            return False
    return False


def _torsion_points(e: WeierstrassCurve, ell: int, disc: int) -> tuple:
    """Rational points of exact order ell, in increasing x: none when
    point counts rule them out, else _division_points, computed once per
    request through the memo.  disc is read as in _counts_rule_out."""
    if _counts_rule_out(e, ell, disc):
        return ()
    return _memoized((e.coefficients(), "torsion", ell), _division_points,
                     e, ell)


def _division_points(e: WeierstrassCurve, ell: int) -> tuple:
    """Rational points of exact order ell, one per rational root x of the
    ell-division polynomial, in increasing x.

    Each root is lifted on E' = _scaled(e): X = 4x, and Y = 8y solves
    Y^2 + hY = G(X) with h = a1' X + a3', so Y = (isqrt(h^2 + 4G) - h)/2
    when h^2 + 4G is a square.  A root with 4x not an integer lifts to no
    rational point, since that point would be torsion.
    """
    poly = two_division_poly(e) if ell == 2 else division_poly(e, ell)
    a1, a2, a3, a4, a6 = _scaled(e)
    points = []
    for x in rational_roots(poly):
        X, rem = divmod(4 * x.numerator, x.denominator)
        if rem:
            continue
        h = a1 * X + a3
        d = h * h + 4 * (((X + a2) * X + a4) * X + a6)
        root = isqrt(max(d, 0))
        if root * root != d:
            continue
        Y = (root - h) // 2
        if _chain(e, (X, Y))[1] == ell:
            points.append((x, Fraction(Y, 8)))
    return tuple(points)


def has_rational_ell_torsion(e: WeierstrassCurve, ell: int,
                             disc: int | None = None):
    """(found, witness point) for a rational point of exact order ell.

    "No" may come from a point count: at a prime q != ell of good
    reduction, reduction mod q is injective on E(Q)[ell] (Silverman, AEC,
    Prop. VII.3.1), so ell not dividing #E(F_q) rules the point out.
    "Yes" and the witness come only from a rational root of the
    ell-division polynomial, lifted and checked to have order ell.
    Within a request each division-polynomial answer is computed once; a
    point-count "no" reads counts the memo keeps anyway.

    A caller that knows the primes of bad reduction passes disc: the
    discriminant, or any integer with its prime factors (p when
    |disc| = p^k).  Otherwise the discriminant is derived here.
    """
    if ell not in (2, 3, 5, 7):
        raise ValueError("torsion search supports ell in {2, 3, 5, 7}")
    if disc is None:
        disc = _disc_from_b(*_b_invariants(e.coefficients()))
    points = _torsion_points(e, ell, disc)
    return (True, points[0]) if points else (False, None)


# ---------------------------------------------------------------------------
# isogeny quotients


def velu_quotient(e: WeierstrassCurve, pt: Point) -> WeierstrassCurve:
    """Quotient by the subgroup generated by a rational prime-order point.

    Velu's sums v and w are taken over the integer multiples on
    E' = _scaled(e), so the raw quotient (a1', a2', a3', a4' - 5v,
    a6' - b2' v - 7w) is integral: it is e's raw quotient scaled by u = 2.
    Coefficient i is divided back by 2^w_i when all five allow it, and the
    model is then reduced.
    """
    if pt is None:
        raise ValueError("cannot quotient by the point at infinity")
    chain, ell = _chain(e, _scaled_point(e, pt, "kernel point not on curve"))
    if not is_prime(ell):
        raise ValueError(f"kernel point order {ell} is not prime")
    a1, a2, a3, a4, a6 = _scaled(e)
    v = w = 0
    for x, y in chain[:ell // 2]:  # P, 2P, ..., (ell // 2) P
        gx = 3 * x * x + 2 * a2 * x + a4 - a1 * y
        gy = -2 * y - a1 * x - a3
        vq = gx if gy == 0 else 2 * gx - a1 * gy
        v += vq
        w += gy * gy + x * vq
    coeffs = (a1, a2, a3, a4 - 5 * v, a6 - (a1 * a1 + 4 * a2) * v - 7 * w)
    if all(c % (1 << k) == 0 for c, k in zip(coeffs, _WEIGHTS)):
        coeffs = tuple(c >> k for c, k in zip(coeffs, _WEIGHTS))
    return reduce_model(WeierstrassCurve(*coeffs))


# the weight of each coefficient: a_i scales by u^-w under the moves below
_WEIGHTS = (1, 2, 3, 4, 6)


def _moved(e: WeierstrassCurve, r: int, s: int, t: int) -> tuple[int, ...]:
    """Coefficients after x = x' + r, y = y' + s x' + t; dividing the i-th
    by u^_WEIGHTS[i] gives the move with scale u."""
    a1, a2, a3, a4, a6 = e.coefficients()
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _try_scale_down(e: WeierstrassCurve) -> WeierstrassCurve | None:
    """The model after the first move with u = 2, r < 4, s < 2 and t < 8,
    in that order, whose coefficients are integers; None if there is none.

    Integrality is tested on the integer numerators: the new a_i is
    integral exactly when 2^w divides the i-th numerator, w its weight.
    """
    if _disc_from_b(*_b_invariants(e.coefficients())) % 2**12:
        return None
    if e.a1 % 2 or e.a3 % 2:  # then no r, s, t makes a1 and a3 integral
        return None
    for r in range(4):
        for s in range(2):
            for t in range(8):
                moved = _moved(e, r, s, t)
                if all(c % (1 << w) == 0 for c, w in zip(moved, _WEIGHTS)):
                    return WeierstrassCurve(
                        *(c >> w for c, w in zip(moved, _WEIGHTS)))
    return None


def reduce_model(e: WeierstrassCurve) -> WeierstrassCurve:
    """Scale down by 2 while possible, then shift to the standard shape
    a1, a3 in {0, 1} and a2 in {-1, 0, 1}."""
    while True:
        smaller = _try_scale_down(e)
        if smaller is None:
            break
        e = smaller
    e = WeierstrassCurve(*_moved(e, 0, -(e.a1 >> 1), 0))
    target = (e.a2 + 1) % 3 - 1  # same residue mod 3, so the shift is integral
    e = WeierstrassCurve(*_moved(e, (target - e.a2) // 3, 0, 0))
    return WeierstrassCurve(*_moved(e, 0, 0, -(e.a3 >> 1)))


def _quotients(e: WeierstrassCurve) -> tuple[WeierstrassCurve, ...]:
    """The Velu quotients of e by its rational points of order 2, 3, 5 and
    7, in that order, through the request memo."""
    return _memoized((e.coefficients(), "quotients"), _velu_quotients, e)


def _velu_quotients(e: WeierstrassCurve) -> tuple[WeierstrassCurve, ...]:
    """What _quotients keeps, with the discriminant derived once for all
    four ell."""
    disc = _disc_from_b(*_b_invariants(e.coefficients()))
    return tuple(velu_quotient(e, pt) for ell in (2, 3, 5, 7)
                 for pt in _torsion_points(e, ell, disc))


def isogeny_class(e: WeierstrassCurve, depth: int = 3) -> list[WeierstrassCurve]:
    """Closure of a curve under quotients by rational prime-order points.

    Breadth-first over ell in {2, 3, 5, 7} up to the given depth, deduplicated
    by reduced model; the start curve is reduced too, so members are directly
    comparable.
    """
    start = reduce_model(e)
    seen = {start.coefficients(): start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for quo in _quotients(cur):
                key = quo.coefficients()
                if key not in seen:
                    seen[key] = quo
                    nxt.append(quo)
        frontier = nxt
        if not frontier:
            break
    return sorted(seen.values(), key=lambda c: c.coefficients())


# ---------------------------------------------------------------------------
# genus-2 model discriminant


def hyperelliptic_odd_disc(p_poly, q_poly) -> int:
    """Odd part of disc(4P + Q^2) for a model y^2 + Q(x) y = P(x).

    P must have degree 5 and Q degree at most 3; the combined polynomial has
    to be squarefree.  The sign is kept: only the factors of 2 are stripped.
    """
    p_poly, q_poly = trim(p_poly), trim(q_poly)
    if degree(p_poly) != 5:
        raise ValueError("P must have degree exactly 5")
    if degree(q_poly) > 3:
        raise ValueError("Q must have degree at most 3")
    combined = trim(padd(pscale(p_poly, 4), pmul(q_poly, q_poly)))
    d = discriminant(combined)
    if d == 0:
        raise ValueError("model is not squarefree")
    return d // 2 ** ord_at(d, 2)
