"""Inertia-pair matrix models over Z/l^N and the isogeny bookkeeping they drive.

The object of study is a pair of operators sigma, tau on a free module of
rank 2d: sigma is unipotent with one off-diagonal entry s per block, tau
exchanges the toric and etale directions of each block and carries the
quadratic character in its determinant.  Everything downstream is exact
ring arithmetic: twisted commutation identities, word spans inside the
matrix ring, the lattice of stable submodules, and the order-transfer
formula across quotients by stable kernels.

The stable submodules of (Z/l^n)^(2d) are found from their atoms, the
stable closures of single vectors: one vector per orbit of the unit group
is closed in one echelon pass, as the span of its images under a basis of
the word algebra in sigma and tau, and the atoms that are not sums of
smaller ones are then summed in every way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .arith import ord_at
from .padic import Lattice, PadicContext, PadicMatrix, intersect, lattice_sum


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


@dataclass(frozen=True)
class GaloisRep:
    """Pair (sigma, tau) acting on a rank-2d module over Z/l^N.

    sigma is block-diagonal with d copies of [[1, s], [0, 1]] and tau with
    d copies of [[0, -omega], [1, 1 + omega]], where omega is -1 for
    l = 2, 3 and the Teichmuller lift of 2 for l = 5.  Each tau block has
    determinant omega and quadratic relation (tau - 1)(tau - omega) = 0.
    The 2x2 blocks are kept, so that an inverse is taken once per block.
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


def build_rep(ell: int, d: int, s: int, precision: int) -> GaloisRep:
    """Construct the standard pair for a given block count and shear s."""
    if ell not in (2, 3, 5):
        raise ValueError("ell must be 2, 3 or 5")
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
    omega = m - 1 if ell == 2 else teichmuller_unit(ctx, 2)
    sigma_block = PadicMatrix.from_rows(ctx, [[1, s], [0, 1]])
    tau_block = PadicMatrix.from_rows(ctx, [[0, -omega], [1, 1 + omega]])
    if tau_block.det() != omega:
        raise AssertionError("tau block determinant is not omega")
    quad = (tau_block @ tau_block - tau_block.scale(1 + omega)
            + PadicMatrix.identity(ctx, 2).scale(omega))
    if any(x for row in quad.rows for x in row):
        raise AssertionError("tau block fails its quadratic relation")
    if ell == 2:
        # omega = -1 collapses the block to the plain swap
        if tau_block.rows != ((0, 1), (1, 0)):
            raise AssertionError("tau block at ell = 2 is not the swap")
    return GaloisRep(ctx, d, s % m, omega,
                     sigma_block.block_diag(d), tau_block.block_diag(d),
                     sigma_block, tau_block)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: PadicMatrix
    rhs: PadicMatrix

    @property
    def passed(self) -> bool:
        return self.lhs.rows == self.rhs.rows


def verify_identities(rep: GaloisRep) -> tuple[IdentityCheck, ...]:
    """Exact operator identities satisfied by the pair, per residue l.

    For l = 2, 3 (omega = -1) the twisted commutation rule is first order:
    sigma tau - tau sigma^-1 = s.  For l = 5 (omega^2 = -1) it moves to
    tau^2 with scalar (1 + omega)s.  In every case the conjugate difference
    (tau^-1 sigma tau) sigma - sigma (tau^-1 sigma tau) equals
    s^2 omega^-1 [[1, 2(1+omega)], [0, -1]] on each block; for l = 5 the
    prefactor omega^-1 is -omega.  All comparisons are exact in M_2d.
    The inverses of sigma and tau are block-diagonal copies of the inverses
    of their 2x2 blocks, so each block is inverted once.
    """
    ctx, d, s, w = rep.ctx, rep.d, rep.s, rep.omega
    sg, tu = rep.sigma, rep.tau
    ident = PadicMatrix.identity(ctx, 2 * d)
    sg_inv = rep.sigma_block.inverse().block_diag(d)
    checks = []
    if rep.ell in (2, 3):
        checks.append(IdentityCheck(
            "twisted-commutation", sg @ tu - tu @ sg_inv, ident.scale(s)))
    else:
        t2 = tu @ tu
        checks.append(IdentityCheck(
            "twisted-commutation-tau-squared",
            sg @ t2 - t2 @ sg_inv, ident.scale((1 + w) * s)))
    conj = rep.tau_block.inverse().block_diag(d) @ sg @ tu
    block = PadicMatrix.from_rows(ctx, [[1, 2 * (1 + w)], [0, -1]])
    checks.append(IdentityCheck(
        "conjugate-difference",
        conj @ sg - sg @ conj,
        block.block_diag(d).scale(s * s * ctx.invert_unit(w))))
    return tuple(checks)


def identities_pass(rep: GaloisRep) -> bool:
    return all(c.passed for c in verify_identities(rep))


def group_ring_span(rep: GaloisRep, depth: int) -> tuple[Lattice, bool]:
    """Linear span of all words of length <= depth in sigma, tau, inverses.

    Tracked for d = 1 only: 2x2 matrices flatten row-major to vectors of
    length 4 and the span is a lattice there.  The flag reports whether the
    span already contains s times every matrix unit, i.e. s*M_2(Z/l^N).
    """
    if rep.d != 1:
        raise ValueError("word spans are tracked for d = 1 only")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    ctx = rep.ctx
    gens = (rep.sigma, rep.tau, rep.sigma.inverse(), rep.tau.inverse())
    frontier = {PadicMatrix.identity(ctx, 2).rows}
    words = set(frontier)
    for _ in range(depth):
        grown = set()
        for rows in frontier:
            mat = PadicMatrix(ctx, rows)
            for g in gens:
                prod = (mat @ g).rows
                if prod not in words:
                    words.add(prod)
                    grown.add(prod)
        frontier = grown
    span = Lattice.from_generators(
        ctx, 4, [tuple(x for row in rows for x in row) for rows in words])
    s = rep.s
    units = [tuple(s if k == j else 0 for k in range(4)) for j in range(4)]
    return span, all(span.contains(u) for u in units)


def _coset_table(ngen: int, relators: tuple[tuple[int, ...], ...],
                 limit: int = 5000) -> list[list[int]]:
    """Complete coset table of a presented group over the trivial subgroup.

    Letters 2g and 2g+1 stand for generator g and its inverse.  Relator
    scans and fresh-coset definitions alternate until the table closes;
    coincidences collapse through a union-find.  Only terminates when the
    presented group is finite, so `limit` caps runaway presentations.
    """
    nlet = 2 * ngen
    table: list[list[int]] = [[-1] * nlet]
    parent = [0]
    changed = [0]
    queue: list[tuple[int, int]] = []

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def deduce(c: int, x: int, d: int) -> None:
        c, d = find(c), find(d)
        cur = table[c][x]
        if cur != -1 and find(cur) != d:
            queue.append((find(cur), d))
        elif cur == -1:
            table[c][x] = d
            changed[0] += 1
        cur = table[d][x ^ 1]
        if cur != -1 and find(cur) != c:
            queue.append((find(cur), c))
        elif cur == -1:
            table[d][x ^ 1] = c
            changed[0] += 1

    def settle() -> None:
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            changed[0] += 1
            row = table[b]
            table[b] = [-1] * nlet
            for x in range(nlet):
                if row[x] != -1:
                    deduce(a, x, find(row[x]))

    def scan(c: int, rel: tuple[int, ...]) -> None:
        f, i = find(c), 0
        while i < len(rel):
            nxt = table[f][rel[i]]
            if nxt == -1:
                break
            f, i = find(nxt), i + 1
        if i == len(rel):
            if f != find(c):
                queue.append((f, find(c)))
                settle()
            return
        b, j = find(c), len(rel)
        while j > i + 1:
            prv = table[b][rel[j - 1] ^ 1]
            if prv == -1:
                break
            b, j = find(prv), j - 1
        if j == i + 1:
            deduce(f, rel[i], b)
            settle()

    while True:
        while True:
            changed[0] = 0
            for c in range(len(table)):
                if find(c) != c:
                    continue
                for rel in relators:
                    scan(c, rel)
            if not changed[0]:
                break
        hole = None
        for c in range(len(table)):
            if find(c) != c:
                continue
            for x in range(nlet):
                if table[c][x] == -1:
                    hole = (c, x)
                    break
            if hole:
                break
        if hole is None:
            break
        if len(table) >= limit:
            raise RuntimeError("coset limit exceeded")
        fresh = len(table)
        table.append([-1] * nlet)
        parent.append(fresh)
        deduce(hole[0], hole[1], fresh)
        settle()

    live = [c for c in range(len(table)) if find(c) == c]
    index = {c: i for i, c in enumerate(live)}
    return [[index[find(table[c][x])] for x in range(nlet)] for c in live]


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _perm_order(p: tuple[int, ...]) -> int:
    ident = tuple(range(len(p)))
    q, k = p, 1
    while q != ident:
        q = _compose(p, q)
        k += 1
    return k


def _perm_closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        grown = []
        for p in frontier:
            for g in gens:
                q = _compose(g, p)
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return seen


@dataclass(frozen=True)
class QuotientBound:
    """Universal group presented by the word relations, with its structure.

    core_* fields describe the normal closure of sigma's image; the last
    flag records whether conjugation by tau^2 inverts that core (only
    meaningful when tau has order 4, hence None for l = 2, 3).
    """

    ell: int
    relators: tuple[str, ...]
    order: int
    abelian: bool
    label: str
    core_order: int
    core_abelian: bool
    core_exponent: int
    core_rank: int
    tau_square_inverts_core: bool | None


def quotient_group_structure(ell: int) -> QuotientBound:
    """Upper bound on the symmetry group forced by the word relations.

    Relations: sigma^l = 1, tau of order 2 (l = 2, 3) or 4 (l = 5), and the
    twisted commutation rule transported to the group level, which for
    l = 5 becomes inversion by tau^2 plus commuting sigma-conjugates.
    Coset enumeration over the trivial subgroup realizes the universal
    group; order, abelianness and the core structure are read off the
    regular permutation action and checked against the expected label.
    """
    if ell not in (2, 3, 5):
        raise ValueError("ell must be 2, 3 or 5")
    # letters: 0 = sigma, 1 = sigma^-1, 2 = tau, 3 = tau^-1
    if ell in (2, 3):
        relators = ((0,) * ell, (2, 2), (3, 0, 2, 0))
        words = (f"s^{ell}", "t^2", "t^-1 s t s")
    else:
        relators = ((0,) * 5, (2,) * 4, (3, 3, 0, 2, 2, 0),
                    (0, 3, 0, 2, 1, 3, 1, 2))
        words = ("s^5", "t^4", "t^-2 s t^2 s", "[s, t^-1 s t]")
    tbl = _coset_table(2, relators)
    s_perm = tuple(row[0] for row in tbl)
    t_perm = tuple(row[2] for row in tbl)
    elements = _perm_closure([s_perm, t_perm])
    if len(elements) != len(tbl):
        raise AssertionError("coset table and permutation group disagree")
    order = len(tbl)
    abelian = _compose(s_perm, t_perm) == _compose(t_perm, s_perm)

    core = {s_perm}
    frontier = [s_perm]
    while frontier:
        grown = []
        for h in frontier:
            for g in (s_perm, t_perm):
                q = _compose(_perm_inverse(g), _compose(h, g))
                if q not in core:
                    core.add(q)
                    grown.append(q)
        frontier = grown
    core_group = _perm_closure(list(core))
    core_order = len(core_group)
    core_abelian = all(_compose(a, b) == _compose(b, a)
                       for a in core_group for b in core_group)
    core_exponent = lcm(*(_perm_order(h) for h in core_group))
    core_rank = 0
    if core_abelian and core_exponent == ell:
        core_rank = ord_at(core_order, ell)
    elif core_order > 1:
        core_rank = 1

    inverts: bool | None = None
    if ell == 5:
        t2 = _compose(t_perm, t_perm)
        t2i = _perm_inverse(t2)
        inverts = all(_compose(t2i, _compose(h, t2)) == _perm_inverse(h)
                      for h in core_group)

    if ell == 2:
        if not (order == 4 and abelian):
            raise AssertionError("ell = 2 quotient is not abelian of order 4")
        if any(_perm_order(p) > 2 for p in elements):
            raise AssertionError("ell = 2 quotient has an element of order 4")
        label = "Z/2 x Z/2"
    elif ell == 3:
        if not (order == 6 and not abelian and core_order == 3):
            raise AssertionError("ell = 3 quotient is not S3")
        label = "S3"
    else:
        if not (order == 100 and core_order == 25):
            raise AssertionError("ell = 5 quotient or core has wrong order")
        if not (core_abelian and core_exponent == 5 and core_rank == 2):
            raise AssertionError("ell = 5 core is not Z/5 x Z/5")
        if not inverts:
            raise AssertionError("t^2 does not invert the ell = 5 core")
        label = "(Z/5 x Z/5) : Z/4"
    return QuotientBound(ell, words, order, abelian, label, core_order,
                         core_abelian, core_exponent, core_rank, inverts)


def _reduced(mat: PadicMatrix, ctx: PadicContext) -> PadicMatrix:
    return PadicMatrix.from_rows(ctx, mat.rows)


# Desk-scale limits of build_rep, checked before any work.  verify-identities
# multiplies 2d x 2d matrices over Z/l^N; at both limits with l = 5 (a
# 46,000-bit modulus) it answers in under a second on a 2-vCPU host.
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
    """One nonzero vector of (Z/l^n)^rank per orbit of the unit group.

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


def _word_algebra(rep: GaloisRep,
                  ctx: PadicContext) -> tuple[PadicMatrix, ...]:
    """Echelon basis of A, the span over ctx's ring of all words in sigma
    and tau.

    Grown from the identity by the right products X g, g in {sigma, tau},
    that fall outside the span so far; every X put on `todo` has both
    products inside once popped, so the span is closed under right
    multiplication and is the span of all positive words.  sigma and tau
    have finite order, so their inverses are positive words: A is the span
    of all words and is closed on both sides.
    """
    rank = rep.rank
    gens = (_reduced(rep.sigma, ctx), _reduced(rep.tau, ctx))
    flat = lambda mat: tuple(x for row in mat.rows for x in row)
    ident = PadicMatrix.identity(ctx, rank)
    span = Lattice.from_generators(ctx, rank * rank, [flat(ident)])
    todo = [ident]
    while todo:
        x = todo.pop()
        for g in gens:
            y = x @ g
            if not span.contains(flat(y)):
                span = Lattice.from_generators(
                    ctx, rank * rank, span.basis + (flat(y),))
                todo.append(y)
    return tuple(PadicMatrix(ctx, tuple(b[i * rank:(i + 1) * rank]
                                        for i in range(rank)))
                 for b in span.basis)


def _atom(algebra: tuple[PadicMatrix, ...], vec: tuple[int, ...]) -> Lattice:
    """The stable closure A vec of vec: one echelon pass over its images."""
    ctx, rank = algebra[0].ctx, algebra[0].nrows
    return Lattice.from_generators(ctx, rank,
                                   [a.apply(vec) for a in algebra])


def stable_submodules(rep: GaloisRep, n: int) -> list[Lattice]:
    """Every sigma,tau-stable submodule of (Z/l^n)^(2d).

    Exhaustive at desk scale; the guard keeps the ambient module small.
    A stable module is the sum of the stable closures of its elements, its
    atoms, and the closure of u*x equals that of x for a unit u, so closing
    one vector per unit orbit finds every atom.  The closure of x is A x
    for the word algebra A, so it is one echelon pass over the images of x
    under a basis of A, which is computed once per call.  Since an atom is
    A x, it lies in a stable module exactly when x does, and every
    containment test below is one membership test of a generator.  An atom
    that is the sum of the smaller atoms inside it is dropped; by induction
    on size, every atom is a sum of the kept ones.  The kept atoms are then
    added one at a time to every module found so far that does not contain
    them, so after k atoms every sum of a subset of the first k is found,
    and after the last every stable module.  Modules come rebased (divisors
    read off their echelon basis), ordered by size then basis.
    """
    ell = rep.ell
    require_searchable(ell, n, rep.d)
    ctx = PadicContext(ell, n)
    rank = rep.rank
    algebra = _word_algebra(rep, ctx)
    # atom basis -> (atom, a vector that generates it)
    atoms: dict[tuple, tuple[Lattice, tuple[int, ...]]] = {}
    for vec in _orbit_representatives(ell, n, rank):
        lat = _atom(algebra, vec)
        atoms.setdefault(lat.basis, (lat, vec))
    irreducible: list[tuple[Lattice, tuple[int, ...]]] = []
    for atom, vec in sorted(atoms.values(),
                            key=lambda av: av[0].member_count()):
        inside = [b for a, g in irreducible if atom.contains(g)
                  for b in a.basis]
        if Lattice.from_generators(ctx, rank, inside).basis != atom.basis:
            irreducible.append((atom, vec))
    # Largest atoms first: later ones then often lie inside and need no join.
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


@dataclass(frozen=True)
class FiltrationData:
    """Toric step of the weight filtration at a fixed level.

    Both steps coincide here (one toric line per block), so M1 = M2 = the
    span of the first basis vector of every block, reduced mod l^level.
    Each step is a coordinate sublattice, the span of e_i for i in a set of
    toric positions; component_transfer counts meets through that and
    refuses a step of any other shape.
    """

    level: int
    M1: Lattice
    M2: Lattice


def filtration(rep: GaloisRep, level: int) -> FiltrationData:
    ctx = PadicContext(rep.ell, level)
    gens = [tuple(1 if i == 2 * j else 0 for i in range(rep.rank))
            for j in range(rep.d)]
    m2 = Lattice.from_generators(ctx, rep.rank, gens)
    return FiltrationData(level, m2, m2)


def _coordinate_meet_count(kernel: Lattice, step: Lattice) -> int:
    """|kernel meet step| for a coordinate sublattice step of kernel's module.

    The projection pi that drops step's coordinates has kernel exactly
    step, so restricted to kernel its kernel is kernel meet step, and
    |kernel meet step| = |kernel| / |pi(kernel)|: one echelon pass on
    shorter vectors instead of a general intersection.
    """
    rank = kernel.ambient_rank
    coordinate = step.ctx == kernel.ctx and step.ambient_rank == rank and all(
        v == 0 and not any(x for i, x in enumerate(b) if i != row)
        for b, (v, row) in zip(step.basis, step.pivots))
    if not coordinate:
        raise ValueError("filtration step is not a coordinate sublattice "
                         "of the kernel's module")
    toric = {row for _v, row in step.pivots}
    keep = [i for i in range(rank) if i not in toric]
    image = Lattice.from_generators(
        kernel.ctx, len(keep),
        [tuple(b[i] for i in keep) for b in kernel.basis])
    return kernel.member_count() // image.member_count()


def component_transfer(kernel: Lattice, phi_ell: int,
                       filt: FiltrationData) -> int:
    """Push an l-part of a component-group order through a quotient.

    Result is phi * |kernel meet M2| / |kernel / (kernel meet M1)| and must
    come out a positive integer; anything else means the kernel is not
    compatible with the filtration.  Each meet is counted as |kernel| over
    the size of kernel's projection away from the toric coordinates, once
    when M1 = M2; a step that is not a coordinate sublattice is refused.
    """
    if phi_ell < 1:
        raise ValueError("phi_ell must be a positive integer")
    if kernel.ctx != filt.M2.ctx or kernel.ambient_rank != filt.M2.ambient_rank:
        raise ValueError("kernel and filtration live in different modules")
    meet2 = _coordinate_meet_count(kernel, filt.M2)
    meet1 = (meet2 if filt.M1 == filt.M2
             else _coordinate_meet_count(kernel, filt.M1))
    num = phi_ell * meet2
    den = kernel.member_count() // meet1
    if num % den:
        raise ValueError("transfer is not integral for this kernel")
    return num // den


def _raw_quotient_lattice(rep: GaloisRep, kernel: Lattice, n: int) -> Lattice:
    """l^n T + lifts of the kernel basis, inside the ambient at precision N."""
    q = rep.ell ** n
    gens = [tuple(q if i == j else 0 for i in range(rep.rank))
            for j in range(rep.rank)]
    gens += [tuple(int(x) for x in b) for b in kernel.basis]
    return Lattice.from_generators(rep.ctx, rep.rank, gens)


def node_lattice(rep: GaloisRep, kernel: Lattice, n: int) -> Lattice:
    """Quotient lattice for a level-n kernel, homothety-normalized.

    Common l factors are divided out so that kernels describing the same
    quotient (0 and the full level, a kernel and its level bump) land on
    one canonical representative.
    """
    if rep.ctx.precision < n + 2:
        raise ValueError("precision too small for a level-n node")
    lat = _raw_quotient_lattice(rep, kernel, n)
    ell = rep.ell
    while lat.basis and all(x % ell == 0 for b in lat.basis for x in b):
        lat = Lattice.from_generators(
            rep.ctx, rep.rank, [tuple(x // ell for x in b) for b in lat.basis])
    return lat


def sigma_trivial_mod_ell(rep: GaloisRep, lat: Lattice) -> bool:
    """Does sigma act as the identity on lat / (l * lat)?"""
    m = rep.ctx.modulus
    scaled = Lattice.from_generators(
        rep.ctx, rep.rank,
        [tuple((rep.ell * x) % m for x in b) for b in lat.basis])
    for b in lat.basis:
        image = rep.sigma.apply(b)
        diff = tuple((image[i] - b[i]) % m for i in range(rep.rank))
        if not scaled.contains(diff):
            return False
    return True


@dataclass(frozen=True)
class MaximalNode:
    """One homothety class of quotient lattices reached by a stable kernel."""

    lattice: Lattice
    ell_part: int
    sigma_trivial: bool
    kernels: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]


@dataclass(frozen=True)
class MaximalSearchReport:
    ell: int
    d: int
    s: int
    n_max: int
    phi_start: int
    nodes: tuple[MaximalNode, ...]
    maximal_part: int
    maximal_count: int
    sigma_trivial_exactly_on_maximal: bool


def find_ell_maximal(rep: GaloisRep, phi_ell_start: int,
                     n_max: int) -> MaximalSearchReport:
    """Search the stable-kernel graph for the largest transferred l-part.

    Nodes are homothety classes of quotient lattices.  Every stable kernel
    of level <= n_max feeds the node it lands on; two kernels with the same
    node must transfer to the same value, and that is asserted.  On each
    node the first-layer action of sigma is classified trivial or not, in
    the node's own basis.
    """
    if phi_ell_start < 1:
        raise ValueError("phi_ell_start must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    require_searchable(rep.ell, n_max, rep.d)
    if rep.ctx.precision < n_max + 2:
        raise ValueError("precision too small for the requested depth")
    nodes: dict[tuple, list] = {}
    for n in range(1, n_max + 1):
        filt = filtration(rep, n)
        for kernel in stable_submodules(rep, n):
            part = component_transfer(kernel, phi_ell_start, filt)
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
        ell=rep.ell, d=rep.d, s=rep.s, n_max=n_max, phi_start=phi_ell_start,
        nodes=tuple(built), maximal_part=top,
        maximal_count=sum(1 for nd in built if nd.ell_part == top),
        sigma_trivial_exactly_on_maximal=exact)


def toric_complement_check(rep: GaloisRep) -> bool:
    """tau moves the toric sublattice onto an exact complement.

    Checks M2 meet tau(M2) = 0 and M2 + tau(M2) = full ambient, both at
    working precision.
    """
    ctx = rep.ctx
    gens = [tuple(1 if i == 2 * j else 0 for i in range(rep.rank))
            for j in range(rep.d)]
    m2 = Lattice.from_generators(ctx, rep.rank, gens)
    tau_m2 = Lattice.from_generators(
        ctx, rep.rank, [rep.tau.apply(b) for b in m2.basis])
    total, direct, _pure = lattice_sum(m2, tau_m2)
    return direct and total.same_module(Lattice.full(ctx, rep.rank))


def product_kernel(k1: Lattice, k2: Lattice) -> Lattice:
    """Block sum of two kernels inside the product module."""
    if k1.ctx != k2.ctx:
        raise ValueError("kernels live over different work rings")
    rank = k1.ambient_rank + k2.ambient_rank
    gens = [tuple(b) + (0,) * k2.ambient_rank for b in k1.basis]
    gens += [(0,) * k1.ambient_rank + tuple(b) for b in k2.basis]
    return Lattice.from_generators(k1.ctx, rank, gens)


def dual_transfer_roundtrip(rep: GaloisRep, kernel: Lattice, phi_ell: int,
                            n: int) -> tuple[int, int]:
    """Transfer across a kernel, then across the complementary dual kernel.

    The composite of the two quotients is multiplication by l^n, so the
    second transfer must restore the original l-part.  The dual kernel is
    l^n T / l^n T' inside T'/l^n T', and every count is an index of one
    lattice in another at working precision, hence exact.
    """
    ctx = rep.ctx
    if ctx.precision < 2 * n + 2:
        raise ValueError("precision too small for a roundtrip at this level")
    phi_mid = component_transfer(kernel, phi_ell, filtration(rep, n))
    m = ctx.modulus
    q = rep.ell ** n

    def scaled(lat: Lattice) -> Lattice:
        return Lattice.from_generators(
            ctx, rep.rank, [tuple((q * x) % m for x in b) for b in lat.basis])

    full = Lattice.full(ctx, rep.rank)
    lat = _raw_quotient_lattice(rep, kernel, n)
    toric = Lattice.from_generators(
        ctx, rep.rank,
        [tuple(1 if i == 2 * j else 0 for i in range(rep.rank))
         for j in range(rep.d)])
    m2p = intersect(lat, toric)
    lat_q = scaled(lat)
    dual_order = full.member_count() // lat.member_count()
    meet = intersect(scaled(full), lattice_sum(m2p, lat_q)[0])
    dual_m2 = meet.member_count() // lat_q.member_count()
    den = dual_order // dual_m2
    num = phi_mid * dual_m2
    if num % den:
        raise ValueError("dual transfer is not integral")
    return phi_mid, num // den
