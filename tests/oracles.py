"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: set closures, textbook Hermite forms,
sympy's Smith invariants, and schoolbook polynomial products followed by
long division.  Slow is fine; these run only inside tests.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from math import gcd

import sympy
from sympy.matrices.normalforms import invariant_factors

from semistable_lab.polynomials import (degree, fp_divmod, fp_gcd, fp_trim,
                                        padd, pmul, pscale, psub, trim)


def closure_members(generators, modulus, ambient_rank, cap=200000):
    """All elements of the module generated by `generators` mod `modulus`.

    Breadth-first closure under addition of generators.  Raises if the module
    would exceed `cap` elements, which keeps accidental blowups loud.
    """
    zero = (0,) * ambient_rank
    seen = {zero}
    frontier = [zero]
    gens = [tuple(int(x) % modulus for x in g) for g in generators]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % modulus for a, b in zip(v, g))
                if w not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError(f"module closure exceeded cap={cap}")
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def hnf_membership(generators, modulus, vector):
    """Membership via an integer Hermite normal form of [gens | modulus*I].

    Column-style HNF over the integers; `vector` is a member of the module
    mod `modulus` iff back-substitution through the triangular form succeeds.
    """
    if not generators:
        return all(x % modulus == 0 for x in vector)
    r = len(generators[0])
    cols = [list(int(x) for x in g) for g in generators]
    cols += [[modulus if i == j else 0 for i in range(r)] for j in range(r)]

    # Column HNF by row: make all but one entry in each row zero using gcds.
    h = [list(c) for c in cols]
    piv_cols = []
    row = 0
    for row in range(r):
        live = [j for j in range(len(h)) if j not in piv_cols and h[j][row] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(h[j][row]))
            j0 = live[0]
            for j in live[1:]:
                q = h[j][row] // h[j0][row]
                h[j] = [a - q * b for a, b in zip(h[j], h[j0])]
            live = [j for j in live if h[j][row] != 0]
        j0 = live[0]
        if h[j0][row] < 0:
            h[j0] = [-a for a in h[j0]]
        piv_cols.append(j0)

    v = [int(x) for x in vector]
    # Back-substitute greedily: pivot columns are triangular by construction.
    piv_iter = []
    for j in piv_cols:
        row = next(i for i in range(r) if h[j][i] != 0)
        piv_iter.append((row, j))
    piv_iter.sort()
    for row, j in piv_iter:
        if v[row] % h[j][row] != 0:
            return False
        q = v[row] // h[j][row]
        v = [a - q * b for a, b in zip(v, h[j])]
    return all(x == 0 for x in v)


def smith_invariants(rows):
    """sympy's Smith invariants of an integer matrix given as row lists:
    min(rows, cols) nonnegative ints, zeros last."""
    if not rows or not rows[0]:
        return []
    return [int(d) for d in invariant_factors(sympy.Matrix(rows))]


def smith_valuations(generators, ell, precision, ambient_rank):
    """Sorted l-valuations (clipped at `precision`) of the Smith invariants."""
    if not generators or not ambient_rank:
        return []
    mat = sympy.Matrix([[g[i] for g in generators] for i in range(ambient_rank)])
    inv = invariant_factors(mat)
    out = []
    for d in inv:
        d = int(d)
        if d == 0:
            out.append(precision)
            continue
        v = 0
        while d % ell == 0:
            d //= ell
            v += 1
        out.append(min(v, precision))
    return sorted(out)


def smith_diagonal(mat):
    """Diagonal of the Smith normal form of an integer matrix, read off
    smith_with_transforms: min(rows, cols) nonnegative integers
    d_1 | d_2 | ..., zeros last.  This is how padic.Lattice computed its
    elementary divisors before it read them off the echelon pivots."""
    d, _u, _v = smith_with_transforms(mat)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


# The integer Smith form with transforms and the kernels modulo any modulus
# read off it, which padic.intersect and padic.orthogonal once called.

def _mat_copy(m: list[list[int]]) -> list[list[int]]:
    return [list(row) for row in m]


def _identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_with_transforms(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith form with transforms: returns (d, u, v) with u*mat*v = d.

    u and v are unimodular; d is diagonal (rectangular allowed).
    """
    m = _mat_copy(mat)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = _identity_matrix(rows)
    v = _identity_matrix(cols)

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        mi, mj = m[i], m[j]
        for k in range(cols):
            mi[k] -= q * mj[k]
        ui, uj = u[i], u[j]
        for k in range(rows):
            ui[k] -= q * uj[k]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    n = min(rows, cols)
    top = 0
    while top < n:
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                val = m[i][j]
                if val != 0 and (best is None or abs(val) < abs(best[0])):
                    best = (val, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != top:
            row_swap(top, bi)
        if bj != top:
            col_swap(top, bj)
        while True:
            piv = m[top][top]
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    row_sub(i, top, m[i][top] // piv)
                    if m[i][top]:
                        row_swap(top, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    col_sub(j, top, m[top][j] // piv)
                    if m[top][j]:
                        col_swap(top, j)
                        dirty = True
                        break
            if not dirty:
                break
        piv = m[top][top]
        fixed = True
        for i in range(top + 1, rows):
            bad = next((j for j in range(top + 1, cols) if m[i][j] % piv), None)
            if bad is not None:
                row_sub(top, i, -1)  # row_top += row_i
                fixed = False
                break
        if not fixed:
            continue
        if piv < 0:
            for j in range(cols):
                m[top][j] = -m[top][j]
            for j in range(rows):
                u[top][j] = -u[top][j]
        top += 1
    d = [[m[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    # Keep any residue outside the processed block (rank-deficient tail is zero
    # by construction, but be defensive).
    for i in range(rows):
        for j in range(cols):
            if i != j and m[i][j] != 0:
                raise AssertionError("smith reduction left an off-diagonal entry")
    return d, u, v


def kernel_mod(mat: list[list[int]], modulus: int) -> list[list[int]]:
    """Generators (as columns) of {x : mat*x == 0 (mod modulus)}.

    Returns a list of column vectors spanning the kernel of the map
    (Z/modulus)^cols -> (Z/modulus)^rows.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    d, _u, v = smith_with_transforms(mat)
    gens = []
    for j in range(cols):
        dj = d[j][j] if j < rows else 0
        # Least s >= 1 with s*dj == 0 (mod modulus); dj == 0 means y_j is free.
        scale = 1 if dj == 0 else modulus // gcd(dj, modulus)
        col = [(v[i][j] * scale) % modulus for i in range(cols)]
        if any(col):
            gens.append(col)
    return gens


def smith_route_intersect(x, y):
    """X ∩ Y from kernel_mod of [A | -B] modulo l^N: padic.intersect as it
    was before it read the meet off one echelon pass."""
    from semistable_lab.padic import Lattice

    if x.is_zero() or y.is_zero():
        return Lattice.zero(x.ctx, x.ambient_rank)
    m = x.ctx.modulus
    a = [list(col) for col in x.basis]
    b = [list(col) for col in y.basis]
    # Solve A*u = B*w (mod m): kernel of [A | -B].
    mat = [
        [a[j][i] for j in range(len(a))] + [-b[j][i] % m for j in range(len(b))]
        for i in range(x.ambient_rank)
    ]
    gens = []
    for col in kernel_mod(mat, m):
        u = col[: len(a)]
        vec = [0] * x.ambient_rank
        for c, acol in zip(u, a):
            for i in range(x.ambient_rank):
                vec[i] = (vec[i] + c * acol[i]) % m
        if any(vec):
            gens.append(tuple(vec))
    return Lattice.from_generators(x.ctx, x.ambient_rank, gens).rebased()


def smith_route_sum(x, y):
    """(X + Y, X ∩ Y = 0): the sum by an echelon pass of both bases and the
    directness verdict from smith_route_intersect, as padic.lattice_sum
    read them before one pass gave both."""
    from semistable_lab.padic import Lattice

    total = Lattice.from_generators(
        x.ctx, x.ambient_rank, list(x.basis) + list(y.basis)).rebased()
    return total, smith_route_intersect(x, y).is_zero()


def smith_route_orthogonal(x, pairing):
    """X-perp as kernel_mod of the rows b^T gram, b in X's basis: padic.
    orthogonal as it was before it read the kernel off one echelon pass."""
    from semistable_lab.padic import Lattice

    m = x.ctx.modulus
    if x.is_zero():
        return Lattice.full(x.ctx, x.ambient_rank)
    rows = []
    for col in x.basis:
        gt = [sum(col[i] * pairing.gram.rows[i][j] for i in range(x.ambient_rank)) % m
              for j in range(x.ambient_rank)]
        rows.append(gt)
    gens = kernel_mod(rows, m)
    return Lattice.from_generators(x.ctx, x.ambient_rank, [tuple(g) for g in gens]).rebased()


def fl_echelon(vectors, ell):
    """Reduced echelon basis of the F_ell span of the vectors, by pivot, by
    one vector at a time: the F_l elimination the library kept before
    padic.fl_echelon ran the column engine at precision 1."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        v = [x % ell for x in v]
        for b, p in zip(basis, pivots):
            if v[p]:
                c = v[p]
                v = [(x - c * y) % ell for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            continue
        inv = pow(v[piv], -1, ell)
        v = [(inv * x) % ell for x in v]
        for b in basis:
            if b[piv]:
                c = b[piv]
                for i in range(len(v)):
                    b[i] = (b[i] - c * v[i]) % ell
        basis.append(v)
        pivots.append(piv)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [tuple(basis[i]) for i in order]


def brute_intersection(gens_a, gens_b, modulus, ambient_rank, cap=200000):
    """Set intersection of two module closures."""
    a = closure_members(gens_a, modulus, ambient_rank, cap)
    b = closure_members(gens_b, modulus, ambient_rank, cap)
    return a & b


def reduced_form_census(bound):
    """Counts of reduced positive definite forms, bucketed by |discriminant|.

    Sweeps forms (a, b, c) directly: a >= 1, b in (-a, a], c >= a, skipping
    b < 0 when a = c, and tallies census[4ac - b*b] for every form with
    |disc| <= bound.  The enumeration order is by form, not by discriminant,
    so it is an independent route to the per-discriminant count.
    """
    import numpy

    census = numpy.zeros(bound + 1, dtype=numpy.int64)
    for a in range(1, math.isqrt(bound // 3) + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            first = four_a * a - b * b
            last = four_a * ((b * b + bound) // four_a) - b * b
            if b < 0:
                first += four_a  # c = a needs b >= 0
            if last < first:
                continue
            census[first : last + 1 : four_a] += 1
    return census


def reduced_forms_brute(disc):
    """Reduced forms (a, b, c) of discriminant disc, scanning every b.

    For each a up to sqrt(|D|/3), tries every b of the parity of D in
    (-a, a] and keeps those with 4a | b^2 - D, c >= a and b >= 0 when
    c = a.  O(|D|) per call; ordered by a, then b.
    """
    out = []
    for a in range(1, math.isqrt(-disc // 3) + 1):
        four_a = 4 * a
        b = -a + 1
        if (b - disc) % 2:
            b += 1
        while b <= a:
            c, rem = divmod(b * b - disc, four_a)
            if rem == 0 and c >= a and not (b < 0 and c == a):
                out.append((a, b, c))
            b += 2
    return out


def reduced_forms_by_disc(bound):
    """Reduced forms (a, b, c) of every discriminant -|D|, |D| <= bound,
    as a dict |D| -> list, from one sweep over the forms.

    Walks a >= 1, b in (-a, a] and c >= a (c > a when b < 0) with
    4ac - b^2 <= bound, as reduced_form_census does, and appends each form
    to its discriminant's list.  a and b ascend, so each list is ordered
    by a, then b, like reduced_forms_brute's.
    """
    out = {}
    for a in range(1, math.isqrt(bound // 3) + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            c = a + 1 if b < 0 else a
            absd = four_a * c - b * b
            while absd <= bound:
                out.setdefault(absd, []).append((a, b, c))
                c += 1
                absd += four_a
    return out


def is_reduced(form):
    """The reduction condition on a QuadForm: |b| <= a <= c, with b >= 0
    when |b| = a or a = c."""
    a, b, c = form.a, form.b, form.c
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def stable_subgroups_brute(sigma, tau, modulus):
    """Every subgroup of (Z/modulus)^r that sigma and tau map into itself.

    sigma and tau are r x r row tuples.  Returns a set of frozensets of
    member tuples.  Vectors are numbered and sigma, tau and each needed
    translation become lookup tables.  A breadth-first search from a set of
    members under x -> x + g, sigma x and tau x reaches the stable subgroup
    they generate with g (both maps have finite order, so their inverses
    are powers of them).  The cyclic closure of every nonzero vector is
    found this way, then every found subgroup is closed together with every
    generator until nothing new appears.
    """
    r = len(sigma)
    vecs = list(itertools.product(range(modulus), repeat=r))
    index = {v: i for i, v in enumerate(vecs)}

    def table(fn):
        return [index[tuple(x % modulus for x in fn(v))] for v in vecs]

    def times(rows):
        return lambda v: [sum(a * b for a, b in zip(row, v)) for row in rows]

    sig, ta = table(times(sigma)), table(times(tau))
    shifts = {}

    def close(members, g):
        if g not in shifts:
            shifts[g] = table(lambda v: [a + b for a, b in zip(v, vecs[g])])
        shift = shifts[g]
        seen = set(members)
        frontier = list(seen)
        while frontier:
            grown = []
            for x in frontier:
                for y in (shift[x], sig[x], ta[x]):
                    if y not in seen:
                        seen.add(y)
                        grown.append(y)
            frontier = grown
        return frozenset(seen)

    zero = index[(0,) * r]
    cyclic = {}
    for g in range(len(vecs)):
        if g != zero:
            cyclic.setdefault(close([zero], g), g)
    found = {frozenset([zero])} | set(cyclic)
    work = list(found)
    while work:
        cur = work.pop()
        for g in cyclic.values():
            if g in cur:
                continue
            total = close(cur, g)
            if total not in found:
                found.add(total)
                work.append(total)
    return {frozenset(vecs[i] for i in group) for group in found}


def phi_by_integration(orders, u):
    """Transition function as a literal Riemann sum on an exact grid.

    Integrates dt/[G_0 : G_t] over (0, u] with step 1/denominator(u); no
    interval of the grid straddles an integer, so the sum is exact for the
    piecewise-constant integrand.
    """
    from fractions import Fraction

    u = Fraction(u)
    g0 = orders[0]
    q = u.denominator
    total = Fraction(0)
    for k in range(1, u.numerator + 1):
        t = Fraction(k, q)
        idx = -(-t.numerator // t.denominator)  # ceil(k/q)
        g = orders[idx] if idx < len(orders) else 1
        total += Fraction(g, g0 * q)
    return total


def psi_by_steps(orders, y):
    """Inverse transition function by walking phi one lower index at a time.

    Adds the slope |G_(x+1)| / |G_0| of each unit interval until the running
    phi reaches y, then interpolates inside that interval; the trivial tail
    is walked one step at a time as well.
    """
    from fractions import Fraction

    y = Fraction(y)
    g0 = orders[0]
    x, acc = 0, Fraction(0)
    while True:
        slope = Fraction(orders[x + 1] if x + 1 < len(orders) else 1, g0)
        if acc + slope >= y:
            return x + (y - acc) / slope
        acc += slope
        x += 1


def is_trivial(filtration):
    """Whether a RamFiltration has no nontrivial ramification group."""
    return filtration.last_break is None


@dataclasses.dataclass(frozen=True)
class RamProfile:
    """Per-place ramification degrees, plus the filtration at ell."""

    degrees: dict[int, int] = dataclasses.field(default_factory=dict)
    ell_filtration: RamFiltration | None = None


def controlled_predicate(profile, ell, s_primes,
                         galois_with_roots_of_unity=True):
    """Ramification side of the controlled-extension conditions.

    True iff ramification is confined to S, ell and infinity; degrees over
    S divide ell; and the filtration at ell satisfies the break bound.
    The global Galois-plus-roots-of-unity condition cannot be checked from
    local data and enters as a caller-supplied flag.
    """
    from semistable_lab.ramification import RamFiltration, check_break_bound

    s = set(s_primes)
    if not galois_with_roots_of_unity:
        return False
    for p, degree in profile.degrees.items():
        if degree < 1:
            raise ValueError(f"ramification degree must be positive at {p}")
        if degree == 1:
            continue
        if p == ell:
            continue
        if p not in s:
            return False
        if degree != ell:
            # degrees over S must divide ell, so only 1 and ell qualify
            return False
    filtration = profile.ell_filtration or RamFiltration.trivial()
    return check_break_bound(filtration, ell)


def brute_orthogonal(gens, gram, modulus, ambient_rank):
    """All y with x^T gram y = 0 for x in the closure of gens (tiny cases)."""
    members = closure_members(gens, modulus, ambient_rank)
    out = set()
    for y in itertools.product(range(modulus), repeat=ambient_rank):
        gy = [sum(gram[i][k] * y[k] for k in range(ambient_rank)) % modulus
              for i in range(ambient_rank)]
        if all(sum(x[i] * gy[i] for i in range(ambient_rank)) % modulus == 0
               for x in members):
            out.add(y)
    return out


def _tiny_field(p, f):
    """Inline arithmetic for F_p (f = 1) or F_{p^2} (f = 2).

    Returns (one, add, mul, pw, embed, candidates); elements are 1- or
    2-tuples of ints mod p, with F_{p^2} = F_p[t]/(t^2 - n) for the first
    quadratic non-residue n.
    """
    if f == 1:
        one = (1,)

        def add(a, b):
            return ((a[0] + b[0]) % p,)

        def mul(a, b):
            return (a[0] * b[0] % p,)

        def embed(c):
            return (c % p,)

        def candidates():
            for a in range(2, p):
                yield (a,)

    elif f == 2:
        n = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        one = (1, 0)

        def add(a, b):
            return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

        def mul(a, b):
            return (
                (a[0] * b[0] + a[1] * b[1] % p * n) % p,
                (a[0] * b[1] + a[1] * b[0]) % p,
            )

        def embed(c):
            return (c % p, 0)

        def candidates():
            for a in range(p):
                for b in range(1, p):
                    yield (a, b)

    else:
        raise ValueError("only f = 1 or 2 supported here")

    def pw(a, e):
        out, base = one, a
        while e:
            if e & 1:
                out = mul(out, base)
            base = mul(base, base)
            e >>= 1
        return out

    return one, add, mul, pw, embed, candidates


def box_unit_scan(ell, p, box):
    """Congruence-unit image rank by literal exponent-box enumeration.

    Recomputed from first principles: unit generators as integer polynomials
    in a root of unity of order m (4 if ell = 2, else ell); the inverse of
    1 + z + ... + z^(b-1) is the integral polynomial 1 + z^b + ... +
    z^(b(b'-1)) with bb' = 1 mod m; every product over exponent vectors with
    |e_i| <= box is expanded literally modulo the cyclotomic polynomial; the
    lambda-adic congruence is read off as P(1) = 1, P'(1) = 0 mod ell; local
    images evaluate the survivor at each Frobenius-orbit representative root
    in F_p or an inline F_{p^2} and take discrete logs on the order-ell part.

    Returns (survivor polynomials, image rank).  Requires the residue degree
    f of p modulo m to be 1 or 2.
    """
    m = 4 if ell == 2 else ell
    cyclo = (1, 0, 1) if ell == 2 else (1,) * ell
    deg = len(cyclo) - 1

    def red(poly):
        r = list(poly)
        while len(r) > deg:
            c = r.pop()
            if c:
                for i in range(deg):
                    r[len(r) - deg + i] -= c * cyclo[i]
        while r and r[-1] == 0:
            r.pop()
        return tuple(r)

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return red(out)

    gens = [(-1,), (0, 1)]
    zinv = (1,)
    for _ in range(m - 1):
        zinv = pmul(zinv, (0, 1))
    invs = [(-1,), zinv]
    for b in range(2, (ell - 1) // 2 + 1):
        gens.append((1,) * b)
        bprime = pow(b, -1, m)
        inv = [0] * m
        for t in range(bprime):
            inv[b * t % m] += 1
        invs.append(red(inv))
    for g, gi in zip(gens, invs):
        assert pmul(g, gi) == (1,), "inverse formula failed"

    powers = []
    for g, gi in zip(gens, invs):
        table = {0: (1,)}
        for e in range(1, box + 1):
            table[e] = pmul(table[e - 1], g)
            table[-e] = pmul(table[-(e - 1)], gi)
        powers.append(table)

    survivors = []

    def walk(i, acc):
        if i == len(gens):
            if (
                sum(acc) % ell == 1 % ell
                and sum(k * c for k, c in enumerate(acc)) % ell == 0
            ):
                survivors.append(acc)
            return
        for e in range(-box, box + 1):
            walk(i + 1, pmul(acc, powers[i][e]))

    walk(0, (1,))

    # residue fields at the places over p
    f = 1
    while pow(p, f, m) != 1:
        f += 1
    q = p**f
    one, add, mul, pw, embed, candidates = _tiny_field(p, f)

    def root_of_order(k):
        ex = (q - 1) // k
        for cand in candidates():
            z = pw(cand, ex)
            if z == one:
                continue
            if k == 4 and mul(z, z) == one:
                continue
            return z
        raise AssertionError(f"no element of order {k}")

    eta = root_of_order(m)
    omega = root_of_order(ell)
    dlog = {}
    acc = one
    for k in range(ell):
        dlog[acc] = k
        acc = mul(acc, omega)
    reps, seen = [], set()
    for j in range(1, m):
        if j in seen or math.gcd(j, m) != 1:
            continue
        reps.append(j)
        orbit = j
        while True:
            orbit = orbit * p % m
            if orbit == j:
                break
            seen.add(orbit)

    def image(poly):
        coords = []
        for j in reps:
            root = pw(eta, j)
            val = (0,) * f
            for c in reversed(poly):
                val = add(mul(val, root), embed(c))
            coords.append(dlog[pw(val, (q - 1) // ell)])
        return coords

    rows = [image(s) for s in survivors]
    rank, col = 0, 0
    while rank < len(rows) and col < len(reps):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % ell), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, ell)
        rows[rank] = [c * inv % ell for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % ell:
                fac = rows[i][col]
                rows[i] = [(c - fac * d) % ell for c, d in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return survivors, rank


def close_by_images(sigma, tau, vec):
    """Stable closure of vec, grown one sigma or tau image at a time.

    The closure the stable-submodule search used before the word algebra:
    start from the span of vec and, for every vector added, add its sigma
    and tau images that fall outside, rebuilding the echelon basis each
    time.  sigma and tau are PadicMatrix objects over the search ring; the
    result is a Lattice of the package, so this checks the closure
    strategy, not the echelon code.
    """
    from semistable_lab.padic import Lattice

    ctx, rank = sigma.ctx, sigma.nrows
    lat = Lattice.from_generators(ctx, rank, [vec])
    todo = [tuple(vec)]
    while todo:
        b = todo.pop()
        for image in (sigma.apply(b), tau.apply(b)):
            if not lat.contains(image):
                lat = Lattice.from_generators(ctx, rank, lat.basis + (image,))
                todo.append(image)
    return lat


def atoms_by_every_representative(rep, n):
    """The (atom, generator) pairs that galois.stable_submodules sums, as
    found before the orbit walk: every unit-orbit representative closed
    by close_by_images under the full sigma and tau (no word algebra of
    the package), each atom kept with the first vector that closes to it,
    in that order."""
    from semistable_lab.galois import _orbit_representatives, require_searchable
    from semistable_lab.padic import PadicContext, PadicMatrix

    ell, rank = rep.ell, rep.rank
    require_searchable(ell, n, rep.d)
    ctx = PadicContext(ell, n)
    sigma, tau = (PadicMatrix.from_rows(ctx, mat.rows)
                  for mat in (rep.sigma, rep.tau))
    atoms = {}
    for vec in _orbit_representatives(ell, n, rank):
        lat = close_by_images(sigma, tau, vec)
        atoms.setdefault(lat.basis, (lat, vec))
    return list(atoms.values())


def stable_submodules_by_every_join(rep, n):
    """galois.stable_submodules as it was computed before the join pass
    kept atom sets: every irreducibility test made, and every irreducible
    atom added to every module found so far that does not contain it."""
    from semistable_lab.padic import Lattice, PadicContext

    ctx, rank = PadicContext(rep.ell, n), rep.rank
    irreducible = []
    for atom, vec in sorted(atoms_by_every_representative(rep, n),
                            key=lambda av: av[0].member_count()):
        inside = tuple(b for a, g in irreducible if atom.contains(g)
                       for b in a.basis)
        if Lattice.from_generators(ctx, rank, inside).basis != atom.basis:
            irreducible.append((atom, vec))
    zero = Lattice.zero(ctx, rank)
    found = {zero.basis: zero}
    for atom, vec in reversed(irreducible):
        for cur in list(found.values()):
            if not cur.contains(vec):
                total = Lattice.from_generators(
                    ctx, rank, cur.basis + atom.basis)
                found.setdefault(total.basis, total)
    return sorted((lat.rebased() for lat in found.values()),
                  key=lambda l: (l.member_count(), l.basis))


def word_closure(sigma, tau, modulus):
    """Every product of sigma and tau mod modulus, the identity included.

    sigma and tau are r x r row tuples; products are r x r row tuples.
    Both have finite order, so this is the group they generate.
    """
    r = len(sigma)

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(r)) % modulus
                           for j in range(r)) for i in range(r))

    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    seen = {ident}
    frontier = [ident]
    while frontier:
        grown = []
        for x in frontier:
            for g in (sigma, tau):
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return seen


def pdivmod_monic(a, b):
    """Quotient and remainder over Z for a monic divisor."""
    b = trim(b)
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(trim(a))
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    while r and len(r) - 1 >= db:
        coef = r[-1]
        shift = len(r) - 1 - db
        q[shift] = coef
        for i, bc in enumerate(b):
            r[shift + i] -= coef * bc
        while r and r[-1] == 0:
            r.pop()
    return trim(q), trim(r)


def fp_mulmod(a, b, modulus, p):
    """Product in F_p[y]/(modulus): schoolbook multiply, then long division."""
    return fp_divmod(pmul(a, b), modulus, p)[1]


def fp_powmod(a, e, modulus, p):
    """Right-to-left square and multiply on coefficient tuples.

    For e = 0 this returns the unreduced (1,), also when the modulus is a
    constant and the ring is zero; compare only moduli of degree >= 1.
    """
    result = (1,)
    base = fp_divmod(a, modulus, p)[1]
    while e:
        if e & 1:
            result = fp_mulmod(result, base, modulus, p)
        base = fp_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def gf_elements(p, k):
    """All p^k residues mod a modulus of degree k over F_p, as reduced
    coefficient tuples; only sensible for tiny fields."""
    span = [()]
    for i in range(k):
        span = [
            fp_trim(padd(v, pscale((0,) * i + (1,), c)), p)
            for v in span
            for c in range(p)
        ]
    return span


def is_irreducible(m, p) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    m = fp_trim(m, p)
    k = degree(m)
    if k < 1:
        return False
    x = (0, 1)
    if fp_powmod(x, p**k, m, p) != fp_divmod(x, m, p)[1]:
        return False
    for d in sympy.primefactors(k):
        h = psub(fp_powmod(x, p ** (k // d), m, p), x)
        if degree(fp_gcd(h, m, p)) != 0:
            return False
    return True


def find_irreducible(p, k):
    """Some monic irreducible of degree k over F_p, deterministically: the
    modulus of every extension field the tests build."""
    if k == 1:
        return (0, 1)
    rng = random.Random(f"irr:{p}:{k}:0")
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        if is_irreducible(coeffs, p):
            return trim(coeffs)


def _horner_values(m, p, eta, reps, polys):
    """Each polynomial at the root eta^j of each place, by a Horner loop in
    F_p[y]/(m): each step is a schoolbook product and a sum of coefficient
    tuples."""
    values = []
    for poly in polys:
        coords = []
        for j in reps:
            root = fp_powmod(eta, j, m, p)
            acc = ()
            for c in reversed(poly):
                acc = fp_trim(padd(fp_mulmod(acc, root, m, p), (c,)), p)
            coords.append(acc)
        values.append(tuple(coords))
    return values


def unit_images_horner(ell, p, extra_units=()):
    """Unit images by a Horner loop in the field, one coefficient at a time,
    and the character u -> table[u^e] of every value.

    This is how cyclotomic.unit_images read every image before it took
    one character power per place: one power per unit and place.  The
    character's table is the package's, so a comparison pins the values
    and the orbit bookkeeping, not the choice of the root of unity w.  The
    package's eta and table are read only through `unpack`; the field
    arithmetic is the schoolbook one above.
    """
    from semistable_lab import cyclotomic

    cyclotomic._validate(ell, p)
    ring, eta, reps = cyclotomic._local_places(ell, p)
    m = ring.modulus
    e = (p ** degree(m) - 1) // ell
    table = {ring.unpack(zeta): k for zeta, k
             in cyclotomic._character_table(ring, ell).items()}
    polys = cyclotomic.unit_generators(ell) + list(extra_units)
    return [tuple(table[fp_powmod(u, e, m, p)] for u in values)
            for values in _horner_values(m, p, ring.unpack(eta), reps, polys)]


def congruence_kernel(ell, extra_units=()):
    """Exponent vectors spanning the units congruent to 1 mod lambda^2.

    A unit with Taylor pair (e0, e1) lies in the congruence subgroup iff
    the discrete log of e0 vanishes mod ell - 1 and the unipotent
    coordinate -e1/e0 vanishes mod ell; the two conditions are
    homomorphisms to Z/(ell-1) and Z/ell, and the kernel of the combined
    map on exponent vectors comes from the Smith form over the composite
    modulus ell(ell - 1), kernel_mod.  The vectors are exponents
    of `unit_generators(ell)` and then the extra units, in that order.
    """
    from semistable_lab import cyclotomic

    units = cyclotomic.unit_generators(ell) + list(extra_units)
    root = next(g for g in range(1, ell)
                if len({pow(g, k, ell) for k in range(ell - 1)}) == ell - 1)
    dlog = {pow(root, k, ell): k for k in range(ell - 1)}
    modulus = ell * (ell - 1)
    conditions = [[], []]
    for poly in units:
        e0, e1 = cyclotomic._taylor_pair(poly, ell)
        conditions[0].append(ell * dlog[e0] % modulus)
        conditions[1].append((ell - 1) * (-e1 * pow(e0, -1, ell)) % modulus)
    return [tuple(v) for v in kernel_mod(conditions, modulus)]


def unit_image_rank_horner(ell, p, extra_units=()):
    """The F_ell-rank of the congruence-unit image, over the generators and
    the extra units together.

    The kernel of the congruence conditions comes from the Smith-form
    route of congruence_kernel, the images from unit_images_horner, and
    the rank of their combinations from the vector-at-a-time echelon
    above.  Extra units that lie in the group the generators make leave
    the rank as it is.
    """
    kernel = congruence_kernel(ell, extra_units)
    images = unit_images_horner(ell, p, extra_units)
    span = [[sum(k * image[i] for k, image in zip(vec, images)) % ell
             for i in range(len(images[0]))]
            for vec in kernel]
    return len(fl_echelon(span, ell))


def matrix_columns(matrix):
    """The columns of a PadicMatrix, as tuples."""
    return [tuple(row[j] for row in matrix.rows) for j in range(matrix.ncols)]


def transpose(matrix):
    """The transpose of a PadicMatrix."""
    from semistable_lab.padic import PadicMatrix

    return PadicMatrix(matrix.ctx, tuple(zip(*matrix.rows)))


def mat_add(a, b):
    """The entrywise sum of two PadicMatrix of one shape and work ring."""
    from semistable_lab.padic import PadicMatrix

    a._check(b)
    m = a.ctx.modulus
    return PadicMatrix(a.ctx, tuple(
        tuple((x + y) % m for x, y in zip(ra, rb))
        for ra, rb in zip(a.rows, b.rows)))


def matrix_inverse(mat):
    """Inverse of a PadicMatrix with unit determinant, by Gauss-Jordan
    elimination with one unit pivot inverted per row."""
    from semistable_lab.padic import PadicMatrix

    if mat.nrows != mat.ncols:
        raise ValueError("inverse of a non-square matrix")
    ctx = mat.ctx
    m = ctx.modulus
    n = mat.nrows
    a = [list(r) for r in mat.rows]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] % ctx.ell), None)
        if piv is None:
            raise ZeroDivisionError("matrix is not invertible over the work ring")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        u = ctx.invert_unit(a[col][col])
        a[col] = [(u * x) % m for x in a[col]]
        inv[col] = [(u * x) % m for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                q = a[i][col]
                a[i] = [(x - q * y) % m for x, y in zip(a[i], a[col])]
                inv[i] = [(x - q * y) % m for x, y in zip(inv[i], inv[col])]
    return PadicMatrix.from_rows(ctx, inv)


def identities_full(ell, d, s, precision):
    """{name: (lhs, rhs)} of the inertia-pair identities, computed in M_2d.

    sigma and tau are built whole; omega is the Newton Teichmuller lift of
    2 for l = 3, 5 and -1 for l = 2; sigma and tau are inverted by
    elimination and omega by the work ring's unit inverse.
    """
    from semistable_lab.galois import teichmuller_unit
    from semistable_lab.padic import PadicContext, PadicMatrix

    ctx = PadicContext(ell, precision)
    m = ctx.modulus
    s %= m
    w = m - 1 if ell == 2 else teichmuller_unit(ctx, 2)
    sg = PadicMatrix.from_rows(ctx, [[1, s], [0, 1]]).block_diag(d)
    tu = PadicMatrix.from_rows(
        ctx, [[0, -w], [1, 1 + w]]).block_diag(d)
    ident = PadicMatrix.identity(ctx, 2 * d)
    sg_inv = matrix_inverse(sg)
    out = {}
    if ell in (2, 3):
        out["twisted-commutation"] = (sg @ tu - tu @ sg_inv, ident.scale(s))
    else:
        t2 = tu @ tu
        out["twisted-commutation-tau-squared"] = (
            sg @ t2 - t2 @ sg_inv, ident.scale((1 + w) * s))
    conj = matrix_inverse(tu) @ sg @ tu
    block = PadicMatrix.from_rows(ctx, [[1, 2 * (1 + w)], [0, -1]])
    out["conjugate-difference"] = (
        conj @ sg - sg @ conj,
        block.block_diag(d).scale(s * s * ctx.invert_unit(w)))
    return out


def identity_passed(check):
    """The verdict of a galois.IdentityCheck: both sides agree."""
    return check.lhs.rows == check.rhs.rows


def echelon_columns_by_minimum(ctx, cols):
    """(basis, pivots) of the column echelon form over Z/l^N, as the
    engine behind Lattice computed them before its pivot search was staged.

    Each step takes the entry of least valuation over the unpivoted columns
    and unused rows, computing every valuation by repeated division, with
    ties broken by (row, column); the pivot column is scaled by the inverse
    of its unit part, the pivot row is cleared in the unpivoted columns and
    reduced mod the pivot in the pivoted ones, and columns that become zero
    are dropped.
    """
    if not cols:
        return [], []
    m, ell = ctx.modulus, ctx.ell
    r = len(cols[0])
    work = [list(c) for c in cols if any(c)]
    pivots = []  # (valuation, row, column-index in `work`)
    used_rows = set()
    remaining = list(range(len(work)))
    while remaining:
        best = None
        for j in remaining:
            col = work[j]
            for i in range(r):
                x = col[i]
                if not x or i in used_rows:
                    continue
                v = 0
                while x % ell == 0:
                    x //= ell
                    v += 1
                if best is None or (v, i, j) < best:
                    best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        col = work[j]
        unit = col[i]
        while unit % ell == 0:
            unit //= ell
        u_inv = pow(unit, -1, m)
        work[j] = [(u_inv * x) % m for x in col]
        piv = ell**v
        for k in range(len(work)):
            if k == j:
                continue
            entry = work[k][i]
            if entry == 0:
                continue
            if k in remaining and entry % piv:
                raise AssertionError("pivot was not minimal in its stage")
            q = entry // piv
            if q:
                work[k] = [(x - q * y) % m for x, y in zip(work[k], work[j])]
        pivots.append((v, i, j))
        used_rows.add(i)
        remaining.remove(j)
        remaining = [k for k in remaining if any(work[k])]
    pivots.sort()
    basis = [tuple(work[j]) for (_v, _i, j) in pivots]
    return basis, [(v, i) for (v, i, _j) in pivots]


def column_reduce(matrix):
    """Canonical column echelon form over Z/l^N plus elementary divisors.

    Returns (reduced, divisors): reduced spans the same column module with
    zero columns dropped, pivots normalized to powers of l, columns sorted
    by pivot valuation then pivot row; divisors are the l-valuations of the
    Smith form diagonal of the input, clipped at the precision N (a value of
    N marks a column that is zero at this precision).  Read off
    padic.Lattice, whose echelon engine every lattice uses.
    """
    from semistable_lab.padic import Lattice, PadicMatrix

    lat = Lattice.from_generators(matrix.ctx, matrix.nrows,
                                  matrix_columns(matrix))
    rows = [[col[i] for col in lat.basis] for i in range(matrix.nrows)]
    return (PadicMatrix.from_rows(matrix.ctx, rows),
            list(lat.elementary_divisors))


def column_reduce_by_minimum(matrix):
    """column_reduce as it was computed before the staged engine: every
    column reduced mod l^N, the engine above, and the clipped Smith
    valuations of the reduced columns (sympy's, with each zero invariant,
    which sympy leaves out, read as N)."""
    from semistable_lab.padic import PadicMatrix

    ctx = matrix.ctx
    m = ctx.modulus
    cols = [tuple(int(x) % m for x in c) for c in matrix_columns(matrix)]
    basis, _pivots = echelon_columns_by_minimum(ctx, cols)
    rows = [[col[i] for col in basis] for i in range(matrix.nrows)]
    divisors = smith_valuations(cols, ctx.ell, ctx.precision, matrix.nrows)
    divisors += [ctx.precision] * (min(matrix.nrows, len(cols)) - len(divisors))
    return PadicMatrix.from_rows(ctx, rows), divisors


def node_lattice_by_single_divisions(rep, kernel, n):
    """galois.node_lattice as it was computed before the content of the
    basis was divided out at once: l^n T plus the kernel basis, echelonized,
    then divided by l and echelonized again while every entry is a multiple
    of l."""
    from semistable_lab.padic import Lattice

    ell = rep.ell
    q = ell ** n
    gens = [tuple(q if i == j else 0 for i in range(rep.rank))
            for j in range(rep.rank)]
    gens += [tuple(int(x) for x in b) for b in kernel.basis]
    lat = Lattice.from_generators(rep.ctx, rep.rank, gens)
    while lat.basis and all(x % ell == 0 for b in lat.basis for x in b):
        lat = Lattice.from_generators(
            rep.ctx, rep.rank, [tuple(x // ell for x in b) for b in lat.basis])
    return lat


def ell_multiple_by_echelon(lat):
    """l * lat by an echelon pass over l times its basis."""
    from semistable_lab.padic import Lattice

    m = lat.ctx.modulus
    return Lattice.from_generators(
        lat.ctx, lat.ambient_rank,
        [tuple((lat.ctx.ell * x) % m for x in b) for b in lat.basis])


def sigma_trivial_by_matrix(rep, lat):
    """galois.sigma_trivial_mod_ell as it was computed before (sigma - 1) b
    was read off b: sigma b - b through the full matrix product, tested for
    membership in l * lat found by an echelon pass."""
    m = rep.ctx.modulus
    scaled = ell_multiple_by_echelon(lat)
    for b in lat.basis:
        image = rep.sigma.apply(b)
        diff = tuple((image[i] - b[i]) % m for i in range(rep.rank))
        if not scaled.contains(diff):
            return False
    return True


def prime_power_every_candidate(n):
    """arith.prime_power as it was computed before it skipped even
    candidates: trial division by every integer from 2 up to n^(1/2)."""
    if n < 2:
        return None
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
    return n, 1


def squarefree_by_trial(n):
    """arith.is_squarefree as it was computed before it stopped at the
    cube root: no d^2 divides n, for every d from 2 up to |n|^(1/2)."""
    n = abs(n)
    return n != 0 and all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def square_plus_64_primes(bound):
    """The p of families.ns_enumerate(bound) as they were found before the
    sieve: every odd u with u^2 + 64 <= bound, each tested by sympy."""
    top = math.isqrt(max(bound - 64, 0))
    return [u * u + 64 for u in range(1, top + 1, 2) if sympy.isprime(u * u + 64)]


def box_models_by_coefficient_tuples(coeff_bound):
    """families._prime_power_models as it was computed before the
    b-invariants were hoisted: every b-invariant recomputed from each
    coefficient tuple of the box, in enumeration order."""
    from semistable_lab.curves import (
        WeierstrassCurve, _b_invariants, _disc_from_b, invariants)

    out = []
    span = range(-coeff_bound, coeff_bound + 1)
    for coeffs in itertools.product((0, 1), (-1, 0, 1), (0, 1), span, span):
        disc = _disc_from_b(*_b_invariants(coeffs))
        pk = prime_power_every_candidate(abs(disc))
        if pk is None:
            continue
        e = WeierstrassCurve(*coeffs)
        inv = invariants(e)
        if inv.c4 % pk[0] == 0:
            continue
        out.append((e, pk[0], inv.c4, inv.disc))
    return tuple(out)


def transform(e, u, r, s, t):
    """Coefficients after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t, with
    any scale u, as Fractions; the caller decides whether they are
    integral.  The numerators are curves._moved's, which reduce_model and
    _try_scale_down read in integers."""
    from fractions import Fraction

    from semistable_lab.curves import _WEIGHTS, _moved

    return tuple(Fraction(c, u**w)
                 for c, w in zip(_moved(e, r, s, t), _WEIGHTS))


def scale_down_by_fractions(e):
    """curves._try_scale_down as it was computed before integrality was
    read from integer numerators: each of the 64 moves (2, r, s, t) built
    as Fractions, the first with integral coefficients taken."""
    from semistable_lab.curves import WeierstrassCurve, invariants

    if invariants(e).disc % 2**12:
        return None
    for r in range(4):
        for s in range(2):
            for t in range(8):
                cand = transform(e, 2, r, s, t)
                if all(c.denominator == 1 for c in cand):
                    return WeierstrassCurve(*(int(c) for c in cand))
    return None


def count_points_by_enumeration(e, q):
    """curves.count_points over F_q, q = p^k with k > 1, as it was computed
    before the count came from #E(F_p) by the trace recurrence: every x of
    F_q enumerated as a coefficient tuple, with schoolbook products.  For
    odd p it counts square roots of 4g + h^2 from a table of squares; for
    p = 2 an x with h(x) != 0 has two points when the absolute trace of
    g(x)/h(x)^2 = g(x) h(x)^(q - 3) is 0, none else."""
    from semistable_lab.arith import prime_power

    p, k = prime_power(q)
    m = find_irreducible(p, k)

    def horner(poly, x):
        acc = ()
        for c in reversed(poly):
            acc = fp_trim(padd(fp_mulmod(acc, x, m, p), (c,)), p)
        return acc

    h = (e.a3, e.a1)  # y-linear part
    g = (e.a6, e.a4, e.a2, 1)
    elems = gf_elements(p, k)
    count = 1
    if p > 2:
        squares = {}
        for z in elems:
            key = fp_mulmod(z, z, m, p)
            squares[key] = squares.get(key, 0) + 1
        f = trim(padd(pscale(g, 4), pmul(h, h)))
        for x in elems:
            count += squares.get(horner(f, x), 0)
        return count
    for x in elems:
        hx, gx = horner(h, x), horner(g, x)
        if hx == ():
            count += 1  # squaring is a bijection in characteristic 2
            continue
        u = fp_mulmod(gx, fp_powmod(hx, q - 3, m, p), m, p)
        tr, sq = (), u
        for _ in range(k):
            tr = fp_trim(padd(tr, sq), p)
            sq = fp_mulmod(sq, sq, m, p)
        count += 2 if tr == () else 0
    return count


def order_by_repeated_addition(e, pt, bound=12):
    """The least k <= bound with k P = O, adding P once per step; None
    when there is none."""
    from semistable_lab.curves import add_points

    acc = pt
    for k in range(1, bound + 1):
        if acc is None:
            return k
        acc = add_points(e, acc, pt)
    return None


def velu_by_repeated_addition(e, pt):
    """curves.velu_quotient as it was computed before the multiples came
    from one chain: the order by repeated addition, then each k P,
    k <= l // 2, by curves.multiply_point from scratch."""
    from fractions import Fraction

    from semistable_lab.curves import multiply_point, reduce_model

    ell = order_by_repeated_addition(e, pt)
    b2 = e.a1**2 + 4 * e.a2
    v = w = Fraction(0)
    for k in range(1, ell // 2 + 1):
        x, y = multiply_point(e, k, pt)
        gx = 3 * x * x + 2 * e.a2 * x + e.a4 - e.a1 * y
        gy = -2 * y - e.a1 * x - e.a3
        vq = gx if gy == 0 else 2 * gx - e.a1 * gy
        v += vq
        w += gy * gy + x * vq
    coeffs = (Fraction(e.a1), Fraction(e.a2), Fraction(e.a3),
              e.a4 - 5 * v, e.a6 - b2 * v - 7 * w)
    return reduce_model(_integralize(coeffs))


def _integralize(coeffs) -> WeierstrassCurve:
    """Scale up x = x'/u^2, y = y'/u^3 until all coefficients are integers."""
    from fractions import Fraction

    from semistable_lab.arith import factorize
    from semistable_lab.curves import _WEIGHTS, WeierstrassCurve

    needs: dict[int, int] = {}
    for c, weight in zip(coeffs, _WEIGHTS):
        for q, v in factorize(Fraction(c).denominator).items():
            needs[q] = max(needs.get(q, 0), -(-v // weight))
    u = 1
    for q, n in needs.items():
        u *= q**n
    scaled = [int(c * u**w) for c, w in zip(coeffs, _WEIGHTS)]
    return WeierstrassCurve(*scaled)
