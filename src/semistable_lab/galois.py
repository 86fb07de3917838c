"""Inertia-pair matrix models over Z/l^N and the isogeny bookkeeping they drive.

The object of study is a pair of operators sigma, tau on a free module of
rank 2d: sigma is unipotent with one off-diagonal entry s per block, tau
exchanges the toric and etale directions of each block and carries the
quadratic character in its determinant.  Everything downstream is exact
ring arithmetic: twisted commutation identities, word spans inside the
matrix ring, the lattice of stable submodules, and the order-transfer
formula across quotients by stable kernels.
The identities are computed on 2x2 blocks over Z[omega]/(omega^2 - c),
whose entries stay small, and each side is mapped to Z/l^N once per entry.

The stable submodules of (Z/l^n)^(2d) are found from their atoms, the
stable closures of single vectors: one vector per orbit of <sigma, tau>
times the unit group is closed in one echelon pass, as the span of its
images under a basis of the word algebra of the 2x2 blocks, applied to
each 2-coordinate block, and the rest of its orbit is walked in
unit-normal form, under the blocks too, and skipped.  The atoms are
then summed smallest first, each module keeping the set of atoms inside
it.  Those sets give M ∩ a and so the size |M| |a| / |M ∩ a| of a sum
M + a, which tells a sum found already from a new one: every echelon
pass makes a new module.  isogeny-maximal runs that search once, at
d = 2 and level n: the lower levels and the d = 1 lists are read off it
(stable_levels, first_block_levels), and the level-1 product kernels
are written down from sorted bases, their transfers looked up in the
product search's.  The toric step of every transfer is fixed: the first
coordinate of each block, rows 0, 2, ..., so a kernel's meet with it is
counted from the kernel's projection onto rows 1, 3, ....  A node lattice
is written down from its kernel's canonical basis, with no echelon pass,
and sigma's action on it mod l is one membership test in the node itself
per basis column, with no matrix product.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .padic import Lattice, PadicContext, PadicMatrix


def teichmuller_unit(ctx: PadicContext, seed: int) -> int:
    """The (l-1)-th root of unity congruent to seed mod l.

    Newton iteration on x^k - 1, k = l - 1, with precision doubling: x is
    lifted from mod l through the precisions ceil(N/2^j) up to N.  Since
    x^k = 1 to the current precision, x/k stands in for the inverse
    derivative 1/(k x^(k-1)) and convergence stays quadratic, so a step is
    x <- x - (x^k - 1) x / k and no step inverts anything: 1/k mod l^n is
    the exact quotient (1 - l^n)/k.  The result is checked to be a root at
    the full precision N.
    """
    ell = ctx.ell
    if seed % ell == 0:
        raise ValueError("seed must be a unit")
    k = ell - 1
    steps = []
    n = ctx.precision
    while n > 1:
        steps.append(n)
        n = (n + 1) // 2
    x = seed % ell
    for n in reversed(steps):
        q = ell**n
        x = (x - (pow(x, k, q) - 1) * x * ((1 - q) // k)) % q
    if pow(x, k, ctx.modulus) != 1:
        raise ArithmeticError("root-of-unity iteration did not converge")
    return x


class GaloisRep(NamedTuple):
    """Pair (sigma, tau) acting on a rank-2d module over Z/l^N.

    sigma is block-diagonal with d copies of [[1, s], [0, 1]] and tau with
    d copies of [[0, -omega], [1, 1 + omega]], where omega is -1 for
    l = 2, 3 and the Teichmuller lift of 2 for l = 5.  Each tau block has
    determinant omega and quadratic relation (tau - 1)(tau - omega) = 0.
    The 2x2 blocks are kept: the identities and the stable-submodule search
    are computed on them, and sigma and tau are their block-diagonal copies.
    """

    ctx: PadicContext
    d: int
    s: int
    omega: int
    sigma: PadicMatrix
    tau: PadicMatrix
    sigma_block: PadicMatrix
    tau_block: PadicMatrix

    @property
    def ell(self) -> int:
        return self.ctx.ell

    @property
    def rank(self) -> int:
        return 2 * self.d


def require_ell(ell: int) -> None:
    """Refuse an l the standard pair is not built for."""
    if ell not in (2, 3, 5):
        raise ValueError("ell must be 2, 3 or 5")


def build_rep(ell: int, d: int, s: int, precision: int) -> GaloisRep:
    """Construct the standard pair for a given block count and shear s."""
    require_ell(ell)
    if d < 1:
        raise ValueError("d must be positive")
    if d > _BLOCK_LIMIT:
        raise ValueError(
            f"d exceeds the desk-scale limit {_BLOCK_LIMIT}, got {d}")
    if precision < 3:
        raise ValueError("precision must be at least 3")
    if precision > _PRECISION_LIMIT:
        raise ValueError(
            f"precision exceeds the desk-scale limit {_PRECISION_LIMIT}, "
            f"got {precision}")
    if s == 0 or s % ell:
        raise ValueError("s must be a nonzero multiple of ell")
    ctx = PadicContext(ell, precision)
    m = ctx.modulus
    if s % m == 0:
        raise ValueError("s vanishes at this precision")
    omega = teichmuller_unit(ctx, 2) if ell == 5 else m - 1
    sigma_block = PadicMatrix.from_rows(ctx, [[1, s], [0, 1]])
    tau_block = PadicMatrix.from_rows(ctx, [[0, -omega], [1, 1 + omega]])
    _check_tau_block(tau_block, omega)
    if ell == 2:
        # omega = -1 collapses the block to the plain swap
        if tau_block.rows != ((0, 1), (1, 0)):
            raise AssertionError("tau block at ell = 2 is not the swap")
    return GaloisRep(ctx, d, s % m, omega,
                     sigma_block.block_diag(d), tau_block.block_diag(d),
                     sigma_block, tau_block)


def _check_tau_block(tau_block: PadicMatrix, omega: int) -> None:
    """Raise unless the 2x2 tau block [[a, b], [c, d]] has ad - bc = omega
    and a + d = 1 + omega: by Cayley-Hamilton, tau^2 - tr(tau) tau +
    det(tau) I = 0, so then tau satisfies (tau - 1)(tau - omega) = 0."""
    m = tau_block.ctx.modulus
    (a, b), (c, d) = tau_block.rows
    if (a * d - b * c - omega) % m:
        raise AssertionError("tau block determinant is not omega")
    if (a + d - 1 - omega) % m:
        raise AssertionError("tau block trace is not 1 + omega")


class IdentityCheck(NamedTuple):
    name: str
    lhs: PadicMatrix
    rhs: PadicMatrix


def _ring_mul(c: int, x, *rest):
    """The product of 2x2 blocks over Z[omega]/(omega^2 - c), each entry
    a + b omega stored as the pair (a, b)."""
    for y in rest:
        x = tuple(tuple((a0 * e0 + c * b0 * f0 + a1 * e1 + c * b1 * f1,
                         a0 * f0 + b0 * e0 + a1 * f1 + b1 * e1)
                        for (e0, f0), (e1, f1) in zip(*y))
                  for (a0, b0), (a1, b1) in x)
    return x


def _ring_diff(c: int, xy, zt):
    """x y - z t for 2x2 blocks over Z[omega]/(omega^2 - c)."""
    return tuple(tuple((a - e, b - f) for (a, b), (e, f) in zip(r, t))
                 for r, t in zip(_ring_mul(c, *xy), _ring_mul(c, *zt)))


def _ring_scalar(a: int, b: int):
    """(a + b omega) times the identity block."""
    return (((a, b), (0, 0)), ((0, 0), (a, b)))


def _ring_blocks(rep: GaloisRep):
    """(c, s, image, sigma, tau, sigma^-1, tau^-1): the standard blocks and
    their closed-form inverses over Z[omega]/(omega^2 - c), c = 1 for
    l = 2, 3 (omega = -1) and -1 for l = 5, so omega^-1 = c omega; with s
    at its least absolute residue every entry a + b omega is small, and
    `image` to Z/l^N costs one small-by-wide product per entry.  Checked:
    omega + 1 = 0 (l = 2, 3) or omega^2 + 1 = 0 (l = 5) mod l^N, so image
    is a ring map; rep's blocks are the images of the standard ones; and
    each block times its inverse is I.  An inverse is unique, so the closed
    forms invert rep's blocks only if all this holds."""
    ctx, w = rep.ctx, rep.omega
    m = ctx.modulus
    c = 1 if rep.ell in (2, 3) else -1
    s = rep.s - m if 2 * rep.s > m else rep.s
    image = lambda x: PadicMatrix(ctx, tuple(
        tuple((a + b * w) % m for a, b in row) for row in x))
    sg = (((1, 0), (s, 0)), ((0, 0), (1, 0)))
    tu = (((0, 0), (0, -1)), ((1, 0), (1, 1)))
    sg_inv = (((1, 0), (-s, 0)), ((0, 0), (1, 0)))
    # omega^-1 ((1 + omega) I - tau), by tau's quadratic relation
    tu_inv = (((1, c), (1, 0)), ((0, -c), (0, 0)))
    if (image(sg).rows != rep.sigma_block.rows
            or image(tu).rows != rep.tau_block.rows
            or (w + 1 if c == 1 else w * w + 1) % m
            or any(_ring_mul(c, x, x_inv) != _ring_scalar(1, 0)
                   for x, x_inv in ((sg, sg_inv), (tu, tu_inv)))):
        raise ArithmeticError("closed-form inverse does not invert its block")
    return c, s, image, sg, tu, sg_inv, tu_inv


def verify_identities(rep: GaloisRep) -> tuple[IdentityCheck, ...]:
    """Exact operator identities satisfied by the pair, per residue l.

    For l = 2, 3 (omega = -1) the twisted commutation rule is first order:
    sigma tau - tau sigma^-1 = s.  For l = 5 (omega^2 = -1) it moves to
    tau^2 with scalar (1 + omega)s.  In every case the conjugate difference
    (tau^-1 sigma tau) sigma - sigma (tau^-1 sigma tau) equals
    s^2 omega^-1 [[1, 2(1+omega)], [0, -1]] on each block; for l = 5 the
    prefactor omega^-1 is -omega.  All comparisons are exact.
    sigma and tau are block-diagonal copies of their 2x2 blocks, so each
    side is computed once on the blocks over Z[omega], with the checked
    closed-form inverses of _ring_blocks, mapped to Z/l^N once per entry
    and reported as d block-diagonal copies in M_2d.
    """
    c, s, image, sg, tu, sg_inv, tu_inv = _ring_blocks(rep)
    if c == 1:
        sides = [("twisted-commutation", _ring_diff(c, (sg, tu), (tu, sg_inv)),
                  _ring_scalar(s, 0))]
    else:
        t2 = _ring_mul(c, tu, tu)
        sides = [("twisted-commutation-tau-squared",
                  _ring_diff(c, (sg, t2), (t2, sg_inv)), _ring_scalar(s, s))]
    conj = _ring_mul(c, tu_inv, sg, tu)
    # s^2 omega^-1 = s^2 c omega times [[1, 2(1 + omega)], [0, -1]]
    rhs = _ring_mul(c, _ring_scalar(0, c * s * s),
                    (((1, 0), (2, 2)), ((0, 0), (-1, 0))))
    sides.append(("conjugate-difference",
                  _ring_diff(c, (conj, sg), (sg, conj)), rhs))
    return tuple(IdentityCheck(name, image(lhs).block_diag(rep.d),
                               image(rhs).block_diag(rep.d))
                 for name, lhs, rhs in sides)


# Desk-scale limits of build_rep, checked before any work.  verify-identities
# maps each 2x2 block entry from Z[omega] to Z/l^N once; at both limits with
# l = 5 (a 46,000-bit modulus) it answers in about 0.15 s as a process
# (0.06 s of it in the request) on a 2-vCPU host.
_PRECISION_LIMIT = 20_000
_BLOCK_LIMIT = 4


def require_searchable(ell: int, n: int, d: int) -> None:
    """Refuse a stable-submodule search outside desk scale, before any work."""
    if n < 1:
        raise ValueError("level must be at least 1")
    # n > 3 already means l^n > 9, without building a huge power
    if n > 3 or ell ** n > 9 or d > 2:
        raise ValueError("stable submodule search needs l^n <= 9 and d <= 2")


def _orbit_representatives(ell: int, n: int, rank: int):
    """One nonzero vector of (Z/l^n)^rank per orbit of the unit group,
    its _unit_normal form, ordered by v, then position, then vector.

    The representative's first entry of least valuation v is exactly l^v:
    entries before it are multiples of l^(v+1), entries after it multiples
    of l^v.  Scaling by a unit u fixes v and that position, and the vector
    u*x depends only on u mod l^(n-v), so each orbit has one such vector.
    """
    q = ell ** n
    for v in range(n):
        step = ell ** v
        for pos in range(rank):
            head = itertools.product(range(0, q, step * ell), repeat=pos)
            for before in head:
                for after in itertools.product(range(0, q, step),
                                               repeat=rank - pos - 1):
                    yield before + (step,) + after


def _unit_normal(ctx: PadicContext,
                 vec: tuple[int, ...]) -> tuple[int, ...]:
    """The vector of nonzero vec's unit orbit that _orbit_representatives
    lists: stage v finds the first entry x = l^v u, u a unit, that
    l^(v+1) does not divide, and scaling by 1/u makes it l^v."""
    q, ell = ctx.modulus, ctx.ell
    step = 1
    while step < q:
        nxt = step * ell
        for x in vec:
            if x % nxt:
                u = x // step
                if u == 1:
                    return vec
                inv = ctx.invert_unit(u)
                return tuple(inv * y % q for y in vec)
        step = nxt
    raise AssertionError("the zero vector has no unit-normal form")


def _on_blocks(block: tuple[tuple[int, ...], ...], q: int,
               vec: tuple[int, ...]) -> tuple[int, ...]:
    """The image of vec under d block-diagonal copies of the 2x2 block,
    mod q: the block applied to each 2-coordinate block of vec."""
    (a, b), (c, e) = block
    out = []
    for i in range(0, len(vec), 2):
        x, y = vec[i], vec[i + 1]
        out += ((a * x + b * y) % q, (c * x + e * y) % q)
    return tuple(out)


def _level_generators(rep: GaloisRep,
                      ctx: PadicContext) -> tuple[PadicMatrix, ...]:
    """The sigma and tau blocks over ctx's ring, leaving out one that is
    the identity there: sigma at level 1, since l | s.  tau never is."""
    ident = PadicMatrix.identity(ctx, 2).rows
    return tuple(g for g in (PadicMatrix.from_rows(ctx, rep.sigma_block.rows),
                             PadicMatrix.from_rows(ctx, rep.tau_block.rows))
                 if g.rows != ident)


def _word_algebra(rep: GaloisRep,
                  ctx: PadicContext) -> tuple[PadicMatrix, ...]:
    """Echelon basis of A, the span over ctx's ring of all words in the
    sigma and tau blocks, as 2x2 matrices.  sigma and tau are d
    block-diagonal copies of their blocks, so every word in them is d
    copies of the same word in the blocks, and A acts on each 2-coordinate
    block.

    Grown from the identity by the right products X g, g in {sigma, tau},
    that fall outside the span so far (an identity g adds none); every X
    put on `todo` has both products inside once popped, so the span is
    closed under right multiplication and is the span of all positive
    words.  sigma and tau have finite order, so their inverses are
    positive words: A is the span of all words and is closed on both sides.
    """
    gens = _level_generators(rep, ctx)
    flat = lambda mat: tuple(x for row in mat.rows for x in row)
    ident = PadicMatrix.identity(ctx, 2)
    span = Lattice.from_generators(ctx, 4, [flat(ident)])
    todo = [ident]
    while todo:
        x = todo.pop()
        for g in gens:
            y = x @ g
            if not span.contains(flat(y)):
                span = Lattice.from_generators(ctx, 4, span.basis + (flat(y),))
                todo.append(y)
    return tuple(PadicMatrix(ctx, (b[:2], b[2:])) for b in span.basis)


def _atom(algebra: tuple[PadicMatrix, ...], vec: tuple[int, ...]) -> Lattice:
    """The stable closure A vec of vec: one echelon pass over its images
    under the algebra's blocks, which _on_blocks returns reduced."""
    ctx = algebra[0].ctx
    q = ctx.modulus
    return Lattice._from_reduced(ctx, len(vec), tuple(
        _on_blocks(a.rows, q, vec) for a in algebra))


def stable_submodules(rep: GaloisRep, n: int) -> list[Lattice]:
    """Every sigma,tau-stable submodule of (Z/l^n)^(2d).

    Exhaustive at desk scale; the guard keeps the ambient module small.
    A stable module is the sum of the stable closures of its elements, its
    atoms.  The closure of x is A x for the word algebra A, so it is one
    echelon pass over the images of x under a basis of A, which is
    computed once per call on 2x2 blocks and, like sigma and tau in the
    orbit walk, applied to each 2-coordinate block of x.  A x = A (u g x)
    for g in <sigma, tau> and a unit u, so the unit-orbit representatives
    are taken in order, and one not visited yet is closed and its orbit
    walked in unit-normal form: each atom is kept with the same first
    generator, in the same order, as by closing every representative.
    Since an atom is A x, it lies in a stable module exactly when x does,
    and every containment test is one membership test of a generator.
    The distinct atoms are summed by _sums_of_atoms.  Modules come rebased
    (divisors read off their echelon basis), ordered by size then basis.
    """
    ell = rep.ell
    require_searchable(ell, n, rep.d)
    ctx = PadicContext(ell, n)
    rank = rep.rank
    algebra = _word_algebra(rep, ctx)
    gens = [g.rows for g in _level_generators(rep, ctx)]
    q = ctx.modulus
    # atom basis -> (atom, a vector that generates it)
    atoms: dict[tuple, tuple[Lattice, tuple[int, ...]]] = {}
    visited: set[tuple[int, ...]] = set()
    for vec in _orbit_representatives(ell, n, rank):
        if vec in visited:
            continue
        lat = _atom(algebra, vec)
        atoms.setdefault(lat.basis, (lat, vec))
        visited.add(vec)
        todo = [vec]  # the rest of vec's orbit closes to lat too
        while todo:
            x = todo.pop()
            for g in gens:
                y = _unit_normal(ctx, _on_blocks(g, q, x))
                if y not in visited:
                    visited.add(y)
                    todo.append(y)
    found = _sums_of_atoms(ctx, rank, atoms.values())
    return sorted((lat.rebased() for lat in found),
                  key=lambda l: (l.member_count(), l.basis))


def _sums_of_atoms(ctx: PadicContext, rank: int, atoms) -> list[Lattice]:
    """Every sum of a subset of the distinct atoms, given as (atom,
    generator) pairs: one echelon pass per module that is not zero or an
    atom, and none for a sum that was found already.

    The atoms a_0, a_1, ... are taken smallest first, so an atom strictly
    inside a_j comes before it.  After round j - 1 the found modules are
    the sums of a_0..a_(j-1), and each module M carries its atom set S(M),
    an int with bit i set when the i-th kept atom lies in M.  A found
    module is the sum of the kept atoms inside it (a reducible atom, which
    is not kept, is the sum of earlier kept ones), so S is injective on
    found modules.  Round j first reads S(a), a = a_j, by testing the kept
    atoms smaller than a, skipping those that hold one found outside it.

    - M ∩ a is a sum of earlier atoms, for M that does not hold a: the
      atom of each of its elements lies in a and is not a, so it is
      smaller.  M ∩ a is therefore the found module with atom set
      S(M) ∩ S(a), and |M + a| = |M| |a| / |M ∩ a|.  With M = 0: a is
      reducible exactly when the found module with atom set S(a), the sum
      of the kept atoms inside a, has as many members as a.  Then every
      sum with a is found already, and a is not kept.
    - M + a is found already exactly when some module N that holds a,
      with S(N) ⊇ S(M), has that size: N holds M and a, so it holds M + a,
      and equal sizes make them equal.  Membership of a in M is tested
      only when S(a) ⊆ S(M), which it implies.
    - A round starts with a itself as its first new module, with atom set
      S(a) + bit j, and takes the modules outside a largest first.  A new
      module N has the largest producer cur = the sum of the earlier atoms
      inside N: cur + a = N, and every other producer lies in cur, so it
      is smaller and comes later.  So cur makes N, S(N) = S(cur) + bit j is
      N's full atom set, every later producer of N is caught by the size
      test, and every echelon pass makes a module not found before.  Both
      the predicted size and the novelty are checked as the passes run.
    """
    zero = Lattice.zero(ctx, rank)
    found = {0: (zero, 1)}  # atom set -> (module, member count)
    seen = {zero.basis}
    kept: list[tuple[tuple[int, ...], int, int]] = []  # (generator, S, size)
    for atom, vec in sorted(atoms, key=lambda av: av[0].member_count()):
        size = atom.member_count()
        sub = out = 0  # the kept atoms inside a, and some outside it
        for i, (g, inside, count) in enumerate(kept):
            if count < size and not inside & out:
                if atom.contains(g):
                    sub |= inside
                else:
                    out |= 1 << i
        if found[sub][1] == size:
            continue
        bit = 1 << len(kept)
        kept.append((vec, sub | bit, size))
        seen.add(atom.basis)
        grown = {sub | bit: (atom, size)}
        holders = {size: [sub | bit]}  # member count -> atom sets holding a
        outside = []
        for s, rec in found.items():
            if not sub & ~s and rec[1] > size and rec[0].contains(vec):
                grown[s | bit] = rec
                holders.setdefault(rec[1], []).append(s | bit)
            else:
                grown[s] = rec
                outside.append((s, rec))
        outside.sort(key=lambda sr: sr[1][1], reverse=True)
        for s, (cur, count) in outside:
            total_count = count * size // found[s & sub][1]
            if any(not s & ~h for h in holders.get(total_count, ())):
                continue
            total = Lattice._from_reduced(ctx, rank, cur.basis + atom.basis)
            if total.member_count() != total_count:
                raise AssertionError("a sum does not have the predicted size")
            if total.basis in seen:
                raise AssertionError("a sum predicted new was found before")
            seen.add(total.basis)
            grown[s | bit] = (total, total_count)
            holders.setdefault(total_count, []).append(s | bit)
        found = grown
    return [module for module, _count in found.values()]


def stable_levels(rep: GaloisRep, n: int) -> tuple[list[Lattice], ...]:
    """stable_submodules(rep, k) for k = 1..n, read off the one search at
    level n.

    Multiplication by l^j, j = n - k, maps (Z/l^k)^(2d) onto
    l^j (Z/l^n)^(2d) and commutes with sigma and tau, so the stable
    submodules of level k are the level-n ones inside l^j (Z/l^n)^(2d),
    divided by l^j.  Every entry of a canonical basis column has valuation
    at least its pivot's, so those are the modules whose pivot valuations
    are all at least j.  Dividing the basis and its pivot valuations by l^j
    keeps it canonical, by the argument in node_lattice's docstring, and
    keeps sizes and the order of bases: each level comes as
    stable_submodules gives it, rebased.
    """
    top = stable_submodules(rep, n)
    levels = []
    for k in range(1, n):
        j = n - k
        div = rep.ell ** j
        ctx = PadicContext(rep.ell, k)
        levels.append([
            Lattice(ctx, rep.rank, tuple(tuple(x // div for x in b)
                                         for b in lat.basis),
                    tuple((v - j, row) for v, row in lat.pivots),
                    len(lat.basis))
            for lat in top if all(v >= j for v, _row in lat.pivots)])
    levels.append(top)
    return tuple(levels)


def first_block_levels(
        levels: tuple[list[Lattice], ...]) -> tuple[list[Lattice], ...]:
    """The d = 1 lists of stable_levels, read off its d = 2 lists.

    sigma and tau act on V + V, V = (Z/l^k)^2, by the same blocks on both
    summands, so the stable submodules of V are the W with W + 0 stable,
    and the canonical basis of W + 0 is W's with two zero rows below.  The
    d = 2 modules inside V + 0, cut to rows 0 and 1, are therefore the
    d = 1 ones, in the same order.
    """
    if any(kernels[-1].ambient_rank != 4 for kernels in levels):
        raise ValueError("block lists are read off a d = 2 search")
    return tuple(
        [Lattice(lat.ctx, 2, tuple(b[:2] for b in lat.basis), lat.pivots,
                 len(lat.basis))
         for lat in kernels if not any(b[2] or b[3] for b in lat.basis)]
        for kernels in levels)


def component_transfer(kernel: Lattice, phi_ell: int) -> int:
    """Push an l-part of a component-group order through the quotient by
    a kernel K.

    The toric step M is fixed in this model: the first coordinate of every
    2x2 block, the span of e_0, e_2, ....  The result is
    phi |K meet M| / |K / (K meet M)| = phi |K meet M|^2 / |K| and must come
    out a positive integer; anything else means K is not compatible with
    the toric step.  Dropping the toric coordinates has kernel exactly M, so
    |K meet M| is |K| over the size of K projected onto rows 1, 3, ...: one
    echelon pass on half-length vectors, no general intersection.
    """
    if phi_ell < 1:
        raise ValueError("phi_ell must be a positive integer")
    rank = kernel.ambient_rank
    if rank % 2:
        raise ValueError(f"the toric rows need 2x2 blocks, got rank {rank}")
    size = kernel.member_count()
    image = Lattice._from_reduced(kernel.ctx, rank // 2,
                                  tuple(b[1::2] for b in kernel.basis))
    meet = size // image.member_count()
    num = phi_ell * meet * meet
    if num % size:
        raise ValueError("transfer is not integral for this kernel")
    return num // size


def node_lattice(rep: GaloisRep, kernel: Lattice, n: int) -> Lattice:
    """Quotient lattice for a level-n kernel, homothety-normalized, in
    canonical form without an echelon pass.

    The quotient is l^n T plus lifts of the kernel basis, inside the
    ambient at precision N.  Common l factors are divided out so that
    kernels describing the same quotient (0 and the full level, a kernel
    and its level bump) land on one canonical representative.

    Its canonical basis is the kernel's, entries read as integers below
    l^n, then l^n e_row with pivot (n, row) for each row that is not a
    kernel pivot row, ascending.  These columns lie in the lattice, and
    they span it: a kernel column of pivot (v, i) is l^v times a column
    c_i with pivot 1, all entries having valuation at least v, and the c_i
    with the e_row are unit-triangular in the pivot rows, so they are a
    basis of T and l^n T is spanned by l^(n-v) times the kernel columns
    and the l^n e_row.  The basis is canonical: columns sorted by pivot
    (valuation, row), each pivot the first entry of least valuation, every
    column zero in the pivot rows before its own (the e_row columns are
    zero in the kernel's pivot rows) and reduced below l^n in the rows of
    the e_row pivots, since kernel entries are.

    The content of the basis is l^j for its least pivot valuation j, and
    the basis is divided by l^j at once; that keeps every condition above,
    with each pivot valuation lowered by j.  The quotient of an entry x by
    l^j is one lift of x / l^j, defined up to l^(N-j) T; the lattice
    contains l^n T and N >= n + 2, so the divided span contains
    l^(n-j) T, which absorbs that choice: the module is the exact quotient
    by l^j, as after j single divisions by l.
    """
    if rep.ctx.precision < n + 2:
        raise ValueError("precision too small for a level-n node")
    if (kernel.ctx.ell, kernel.ctx.precision) != (rep.ell, n):
        raise ValueError("kernel does not live at level n")
    rank = rep.rank
    q = rep.ell ** n
    used = {row for _v, row in kernel.pivots}
    free = [row for row in range(rank) if row not in used]
    basis = kernel.basis + tuple(
        tuple(q if i == row else 0 for i in range(rank)) for row in free)
    pivots = kernel.pivots + tuple((n, row) for row in free)
    j = pivots[0][0]
    if j:
        div = rep.ell ** j
        basis = tuple(tuple(x // div for x in b) for b in basis)
        pivots = tuple((v - j, row) for v, row in pivots)
    return Lattice(rep.ctx, rank, basis, pivots, rank)


def sigma_trivial_mod_ell(rep: GaloisRep, lat: Lattice) -> bool:
    """Does sigma act as the identity on lat / (l * lat)?

    sigma is I + s E_12 on each block and build_rep makes l divide s, so
    (sigma - 1) b is l z, z = (s/l) (b_1, 0, b_3, 0, ...), 0-based, for a
    basis column b.  l z lies in l * lat exactly when z lies in lat: l z =
    l y puts z - y in l^(N-1) T, which lat contains when it has full rank,
    and only then is lat accepted.
    """
    if len(lat.pivots) != lat.ambient_rank:
        raise ValueError("sigma mod l is read only on a lattice of full rank")
    m, t = rep.ctx.modulus, rep.s // rep.ell
    for b in lat.basis:
        z = [0] * rep.rank
        z[::2] = [t * x % m for x in b[1::2]]
        if not lat.contains(z):
            return False
    return True


class MaximalNode(NamedTuple):
    """One homothety class of quotient lattices reached by a stable kernel."""

    lattice: Lattice
    ell_part: int
    sigma_trivial: bool
    kernels: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]


class MaximalSearchReport(NamedTuple):
    nodes: tuple[MaximalNode, ...]
    maximal_part: int
    maximal_count: int
    sigma_trivial_exactly_on_maximal: bool
    # (kernel, transfer) at level 1, in stable_submodules order
    level_one: tuple[tuple[Lattice, int], ...]


def find_ell_maximal(rep: GaloisRep, phi_ell_start: int,
                     levels: tuple[list[Lattice], ...]) -> MaximalSearchReport:
    """Search the stable-kernel graph for the largest transferred l-part.

    `levels` holds stable_submodules(rep, k) for k = 1, 2, ..., as
    stable_levels or first_block_levels read them off one search.  Nodes
    are homothety classes of quotient lattices.  Every kernel feeds the node
    it lands on, with its component_transfer through the fixed toric rows
    0, 2, ...; two kernels with the same node must transfer to the same
    value, and that is asserted.  On each node the first-layer action of
    sigma is classified trivial or not, in the node's own basis.
    """
    if not levels:
        raise ValueError("levels must hold at least the level-1 kernels")
    nodes: dict[tuple, list] = {}
    for n, kernels in enumerate(levels, 1):
        parts = [component_transfer(kernel, phi_ell_start)
                 for kernel in kernels]
        if n == 1:
            level_one = tuple(zip(kernels, parts))
        for kernel, part in zip(kernels, parts):
            lat = node_lattice(rep, kernel, n)
            rec = nodes.get(lat.basis)
            if rec is None:
                nodes[lat.basis] = [lat, part, [(n, kernel.basis)]]
            else:
                if rec[1] != part:
                    raise AssertionError(
                        "kernels sharing a quotient transferred differently")
                rec[2].append((n, kernel.basis))
    built = [
        MaximalNode(lat, part, sigma_trivial_mod_ell(rep, lat),
                    tuple(witnesses))
        for lat, part, witnesses in nodes.values()
    ]
    built.sort(key=lambda nd: (-nd.ell_part, nd.lattice.basis))
    top = built[0].ell_part
    exact = all(nd.sigma_trivial == (nd.ell_part == top) for nd in built)
    return MaximalSearchReport(
        nodes=tuple(built), maximal_part=top,
        maximal_count=sum(1 for nd in built if nd.ell_part == top),
        sigma_trivial_exactly_on_maximal=exact, level_one=level_one)


def product_kernel(k1: Lattice, k2: Lattice) -> Lattice:
    """Block sum of two kernels inside the product module, in canonical
    form without an echelon pass.

    The columns of k1, zero below, and of k2, zero above, sorted by pivot
    (valuation, row), are canonical: each keeps its pivot as its first
    entry of least valuation, is zero in the other kernel's rows, and keeps
    the zeros and reductions of its own kernel's basis in that kernel's
    pivot rows, which the sort leaves in their order.
    """
    if k1.ctx != k2.ctx:
        raise ValueError("kernels live over different work rings")
    r1, r2 = k1.ambient_rank, k2.ambient_rank
    cols = [(p, b + (0,) * r2) for b, p in zip(k1.basis, k1.pivots)]
    cols += [((v, row + r1), (0,) * r1 + b)
             for b, (v, row) in zip(k2.basis, k2.pivots)]
    cols.sort(key=lambda pb: pb[0])
    return Lattice(k1.ctx, r1 + r2, tuple(b for _p, b in cols),
                   tuple(p for p, _b in cols), len(cols))
