"""Dense polynomial arithmetic over Z and F_p, plus tiny extension fields.

Polynomials are coefficient tuples in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  Integer resultants
use the subresultant remainder sequence, so no rationals appear even for
non-monic inputs; rational roots need no integer gcd at all when a
reduction mod a small prime proves the input squarefree.  The GF class
models F_{p^f} just far enough for the root-of-unity work of `cyclotomic`:
elements are coefficient tuples reduced modulo a fixed monic irreducible.

Products in a quotient ring F_p[y]/(m) of degree f run on packed integers
(Kronecker substitution; von zur Gathen & Gerhard, Modern Computer Algebra,
8.4).  An element is the int sum of c_i 2^(k i) with 0 <= c_i < p, and the
slot width k = bit_length((2f - 1)(p - 1)^2) + 1 leaves room for every sum
a product and its fold can make, so one int multiply forms all 2f - 1
product coefficients without carries.  The f - 1 high slots fold back
through a table of packed y^j mod m (j = f .. 2f - 2), built once per
modulus, and the f low slots are then reduced mod p.  `fp_mulmod`,
`fp_powmod` and `GF.mul`/`GF.pow` all go through `QuotientRing`;
`fp_divmod` stays the long division behind gcds and exact division.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .arith import Frozen, is_prime


def trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly) - 1


def padd(a, b):
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def pneg(a):
    return tuple(-c for c in a)


def psub(a, b):
    return padd(a, pneg(b))


def pscale(a, k):
    if k == 0:
        return ()
    return tuple(k * c for c in a)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pderiv(a):
    return trim(i * c for i, c in enumerate(a) if i > 0)


def content(a) -> int:
    return gcd(*a)


def pseudo_rem(a, b):
    """Remainder of lc(b)^(deg a - deg b + 1) * a divided by b, over Z."""
    r = list(trim(a))
    b = list(trim(b))
    if not b:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    db = len(b) - 1
    lb = b[-1]
    need = max(len(r) - 1 - db, 0) + 1
    steps = 0
    while r and len(r) - 1 >= db:
        coef = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= coef * bc
        r = list(trim(r))
        steps += 1
    if steps < need:
        m = lb ** (need - steps)
        r = [m * c for c in r]
    return trim(r)


def pgcd(a, b):
    """A primitive gcd in Z[x] via the primitive pseudo-remainder sequence.

    Integer contents of the inputs are ignored: constant coprimality comes
    out as (1,).  Only the root structure matters to the callers here.
    """
    a, b = trim(a), trim(b)
    if not a:
        return b
    if not b:
        return a
    if degree(a) < degree(b):
        a, b = b, a
    while degree(b) > 0:
        r = pseudo_rem(a, b)
        if not r:
            c = content(b)
            return tuple(x // c for x in b)
        c = content(r)
        a, b = b, tuple(x // c for x in r)
    return (1,)


def _exact_div(a, b):
    """Exact quotient a / b in Z[x]; raises when the division leaves a rest."""
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rest = [Fraction(c) for c in a]
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    for sh in range(len(quot) - 1, -1, -1):
        c = rest[sh + len(b) - 1] / b[-1]
        quot[sh] = c
        if c:
            for i, bc in enumerate(b):
                rest[sh + i] -= c * bc
    if any(rest) or any(c.denominator != 1 for c in quot):
        raise ValueError("division is not exact over Z")
    return trim(int(c) for c in quot)


def resultant(a, b) -> int:
    """Resultant of two integer polynomials by the subresultant sequence."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return 0
    if len(a) == 1:
        return a[0] ** degree(b)
    if len(b) == 1:
        return b[0] ** degree(a)
    if len(a) < len(b):
        sign = -1 if (degree(a) * degree(b)) % 2 else 1
        return sign * resultant(b, a)
    s = 1
    g = h = 1
    while True:
        da, db = degree(a), degree(b)
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = pseudo_rem(a, b)
        a = b
        divisor = g * h**delta
        b = tuple(c // divisor for c in r)
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
        if not b:
            return 0
        if degree(b) == 0:
            da = degree(a)
            return s * b[0] ** da // h ** (da - 1)


def discriminant(a) -> int:
    """Integer discriminant res(a, a') / lc(a) with the usual sign."""
    a = trim(a)
    d = degree(a)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    res = resultant(a, pderiv(a))
    quot, rem = divmod(sign * res, a[-1])
    if rem:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return quot


def _peval_mod(a, x, m) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _rational_reconstruct(u, m, num_bound, den_bound):
    """The fraction s/q with s = u q mod m, |s| <= num_bound, 0 < q <= den_bound.

    Unique when 2 * num_bound * den_bound < m; None when no such fraction
    exists.  Plain extended Euclid, stopped at the numerator bound.
    """
    r0, r1 = m, u % m
    t0, t1 = 0, 1
    while r1 > num_bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    if t1 == 0:
        return None
    s, q = (r1, t1) if t1 > 0 else (-r1, -t1)
    if q > den_bound:
        return None
    return Fraction(s, q)


# the primes rational_roots tries before it takes an integer gcd
_SQUAREFREE_PROOF_BOUND = 37


def _separable_prime(g, bound=None):
    """The least prime p, at most bound when one is given, that does not
    divide the leading coefficient of g and leaves g squarefree mod p;
    None when no prime up to bound does."""
    p = 2
    while bound is None or p <= bound:
        if g[-1] % p and degree(fp_gcd(g, fp_trim(pderiv(g), p), p)) < 1:
            return p
        p += 1
        while not is_prime(p):
            p += 1
    return None


def rational_roots(a) -> list[Fraction]:
    """All rational roots (without multiplicity) of an integer polynomial.

    Roots are found mod a small prime where the squarefree part stays
    squarefree, lifted quadratically until rational reconstruction can see
    any numerator dividing the constant term and any denominator dividing
    the leading one, then verified exactly.  Nothing is ever factored, so
    division-polynomial-sized constant terms cost nothing extra.

    The squarefree part is a itself when a reduction mod some
    p <= _SQUAREFREE_PROOF_BOUND keeps the degree and is squarefree: a
    repeated factor of a would divide a' mod every such p.  That p is then
    the one the roots are lifted from, and no integer gcd is taken.  Only
    when no such p exists is gcd(a, a') divided out.
    """
    a = trim(a)
    if not a:
        raise ValueError("zero polynomial has every root")
    shift = 0
    while a[shift] == 0:
        shift += 1
    roots = {Fraction(0)} if shift else set()
    a = a[shift:]
    if len(a) == 1:
        return sorted(roots)
    g, p = a, _separable_prime(a, _SQUAREFREE_PROOF_BOUND)
    if p is None:
        d = pgcd(a, pderiv(a))
        g = _exact_div(a, d) if degree(d) > 0 else a
        p = _separable_prime(g)
    dg = pderiv(g)
    # a root s/q has s | g(0) and q | lc(g), which bounds the reconstruction
    target = 2 * abs(g[0]) * abs(g[-1])
    for r in roots_mod(g, p):
        m = p
        while m <= target:
            m *= m
            den = _peval_mod(dg, r, m)
            r = (r - _peval_mod(g, r, m) * pow(den, -1, m)) % m
        cand = _rational_reconstruct(r, m, abs(g[0]), abs(g[-1]))
        if cand is not None and peval(a, cand) == 0:
            roots.add(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# arithmetic in F_p[y]


def fp_trim(a, p):
    return trim(c % p for c in a)


def fp_divmod(a, b, p):
    a = list(fp_trim(a, p))
    b = fp_trim(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        coef = a[-1] * inv % p
        shift = len(a) - 1 - db
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
        while a and a[-1] == 0:
            a.pop()
    return trim(q), trim(a)


def fp_gcd(a, b, p):
    a, b = fp_trim(a, p), fp_trim(b, p)
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = fp_trim(pscale(a, inv), p)
    return a


class QuotientRing:
    """F_p[y]/(m) for a modulus m nonzero mod p, on packed integers.

    A non-monic m is scaled by the inverse of its leading coefficient, which
    changes no remainder.  `pack` and `unpack` convert coefficient tuples;
    `mul` and `pow` take and return packed elements.  A constant m gives the
    zero ring, where every element, one included, packs to 0.
    """

    __slots__ = ("p", "modulus", "f", "k", "mask", "top", "low", "shifts",
                 "fold")

    def __init__(self, modulus, p):
        m = fp_trim(modulus, p)
        if not m:
            raise ZeroDivisionError("polynomial division by zero")
        inv = pow(m[-1], -1, p)
        m = tuple(c * inv % p for c in m)
        f = len(m) - 1
        k = ((2 * f - 1) * (p - 1) ** 2).bit_length() + 1
        self.p, self.modulus, self.f, self.k = p, m, f, k
        self.mask = (1 << k) - 1
        self.top = k * f
        self.low = (1 << self.top) - 1
        self.shifts = range(k * (f - 1), -1, -k)
        fold = []
        r = [-c % p for c in m[:-1]]  # y^f mod m
        for _ in range(f - 1):
            fold.append(self.pack(r))
            lead = r[-1]
            r = [(c - lead * mc) % p for c, mc in zip([0] + r[:-1], m)]
        self.fold = fold

    def pack(self, a) -> int:
        """The packed residue of a coefficient tuple of any length."""
        p, k = self.p, self.k
        if len(a) > self.f:
            a = fp_divmod(a, self.modulus, p)[1]
        x = 0
        for c in reversed(a):
            x = (x << k) | c % p
        return x

    def unpack(self, x) -> tuple[int, ...]:
        """The coefficient tuple of a packed residue; it stops at the top
        nonzero slot, so the tuple comes out trimmed."""
        k, mask = self.k, self.mask
        out = []
        while x:
            out.append(x & mask)
            x >>= k
        return tuple(out)

    def _reduce(self, z) -> int:
        """The packed residue of a product of two packed residues."""
        k, mask, p = self.k, self.mask, self.p
        high = z >> self.top
        z &= self.low
        for t in self.fold:
            z += (high & mask) % p * t
            high >>= k
        out = 0
        for s in self.shifts:
            out = (out << k) | (z >> s & mask) % p
        return out

    def mul(self, x, y) -> int:
        return self._reduce(x * y)

    def pow(self, x, e) -> int:
        """x^e for e >= 0, left to right; x^0 is the reduced one.  At f = 1
        a packed element is the residue itself, so the built-in pow serves."""
        if self.f == 1:
            return pow(x, e, self.p)
        if e == 0:
            return self._reduce(1)
        r = x
        for bit in bin(e)[3:]:
            r = self._reduce(r * r)
            if bit == "1":
                r = self._reduce(r * x)
        return r


def fp_mulmod(a, b, modulus, p):
    ring = QuotientRing(modulus, p)
    return ring.unpack(ring.mul(ring.pack(a), ring.pack(b)))


def fp_powmod(a, e, modulus, p):
    ring = QuotientRing(modulus, p)
    return ring.unpack(ring.pow(ring.pack(a), e))


def equal_degree_factor(poly, f, p):
    """An irreducible degree-f factor of a squarefree polynomial over F_p.

    Every irreducible factor of `poly` must have degree f (the caller
    guarantees this); Cantor-Zassenhaus splitting with the additive trace
    map in characteristic 2.
    """
    work = fp_trim(poly, p)
    inv = pow(work[-1], -1, p)
    work = fp_trim(pscale(work, inv), p)
    if degree(work) % f:
        raise ValueError("degree is not a multiple of f")
    rng = random.Random(f"edf:{p}:{f}:0:{len(poly)}")
    while degree(work) > f:
        a = tuple(rng.randrange(p) for _ in range(degree(work)))
        if degree(fp_trim(a, p)) < 1 and f > 1:
            continue
        if p == 2:
            t, b = a, a
            for _ in range(f - 1):
                b = fp_mulmod(b, b, work, p)
                t = fp_trim(padd(t, b), p)
            d = fp_gcd(t, work, p)
        else:
            b = fp_powmod(a, (p**f - 1) // 2, work, p)
            d = fp_gcd(psub(b, (1,)), work, p)
        if 0 < degree(d) < degree(work):
            other = fp_divmod(work, d, p)[0]
            work = d if degree(d) <= degree(other) else other
    return work


def roots_mod(a, p) -> list[int]:
    """Distinct roots of an integer polynomial over F_p, sorted.

    The leading coefficient must stay nonzero mod p; otherwise reductions of
    rational roots could escape to infinity and the caller's screening logic
    would be unsound.
    """
    a = trim(a)
    if not a:
        raise ValueError("zero polynomial has every root")
    if a[-1] % p == 0:
        raise ValueError("leading coefficient vanishes mod p")
    f = fp_trim(a, p)
    if degree(f) < 1:
        return []
    # gcd with x^p - x keeps exactly the distinct linear factors
    xp = fp_powmod((0, 1), p, f, p)
    g = fp_gcd(fp_trim(padd(xp, (0, -1)), p), f, p)
    roots = []
    while degree(g) > 0:
        lin = g if degree(g) == 1 else equal_degree_factor(g, 1, p)
        roots.append(-lin[0] * pow(lin[1], -1, p) % p)
        g, rem = fp_divmod(g, lin, p)
        if rem:
            raise AssertionError("split-off linear factor does not divide")
    return sorted(roots)


class GF(Frozen):
    """F_{p^f} as F_p[y] modulo a fixed monic irreducible of degree f.

    `ring`, the packed arithmetic of F_p[y]/(modulus), is built once with
    the field and takes no part in equality, hashing or repr.
    """

    __slots__ = ("p", "modulus", "ring")
    _fields = ("p", "modulus")

    def __init__(self, p: int, modulus: tuple[int, ...]) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "ring", QuotientRing(modulus, p))

    @property
    def f(self) -> int:
        return degree(self.modulus)

    @property
    def order(self) -> int:
        return self.p**self.f

    def element(self, coeffs):
        return self.ring.unpack(self.ring.pack(coeffs))

    @property
    def zero(self):
        return ()

    @property
    def one(self):
        return (1,)

    def add(self, u, v):
        return fp_trim(padd(u, v), self.p)

    def mul(self, u, v):
        ring = self.ring
        return ring.unpack(ring.mul(ring.pack(u), ring.pack(v)))

    def pow(self, u, e):
        ring = self.ring
        x = ring.pack(u)
        if e < 0:
            if not x:
                raise ZeroDivisionError("zero has no inverse")
            e %= self.order - 1  # the multiplicative group has order q - 1
        return ring.unpack(ring.pow(x, e))
