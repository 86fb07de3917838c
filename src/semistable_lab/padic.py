"""Exact finite-precision l-adic lattice calculus.

Everything lives over the work ring Z/l^N for a prime l and precision N.
A Lattice is the submodule of (Z/l^N)^r generated by explicit columns; the
stored basis is a canonical column echelon form (pivots are powers of l,
columns sorted by increasing pivot valuation then pivot row), so module
equality is a matrix comparison (Lattice == compares modules) and
membership is a greedy division pass over the (valuation, row) pivots that
the echelon pass records.

One engine, `_echelon_columns`, computes every such basis.  Its pivot is
the entry of least valuation among the free rows and unpivoted columns,
first by (row, column), and it is found in stages without computing any
valuation: stage v scans the free rows in order for the first entry that
is nonzero mod l^(v+1).  Elimination never lowers a valuation below the
current pivot's, so a stage needs one pass over the rows.  Generators are
reduced mod l^N once, on the way in; bases of existing lattices, which are
reduced already, go straight to the engine.

The engine also gives the elementary divisors, with no Smith form.  Its
column operations are invertible, every entry of a basis column has
valuation at least that of its pivot, and a basis column is zero in the
pivot rows found before its own.  So each basis column is l^v times a
column with a unit pivot, these unit-pivot columns are triangular in the
pivot rows and extend to a basis of (Z/l^N)^r, and the presentation is
equivalent to the diagonal of the l^v plus one zero column per dependent
generator.  Its Smith valuations, clipped at N, are therefore the pivot
valuations padded with N up to min(r, number of generators).  At N = 1 the
same engine is the reduced row echelon form over F_l (`fl_echelon`).

Meets, sums and kernels come from the same engine with its pivots kept
to the first `top` rows, a Zassenhaus pass taken to Howell form (Howell,
"Spans in the module (Z_m)^s", 1986).  Every column it leaves unpivoted is
zero on top.  The top entries of a pivot column have valuation at least
its pivot's and the top parts are triangular in the pivot rows, so the
span's elements with top part zero are spanned by the unpivoted columns
and l^(N-v) times each pivot column of valuation v.  On (b; b) for b in X
and (c; 0) for c in Y, the pivot columns' top parts are the canonical
basis of X + Y and those elements' bottom parts span X ∩ Y; on
(M e_j; e_j), their bottom parts span the kernel of M.

Purity of X in T = (Z/l^N)^r means T/X is torsion free, detected by the
Nakayama criterion: every elementary divisor of the basis is 0, equivalently
the mod-l projection of X has dimension equal to the number of basis columns.
A divisor that reaches the precision N is indistinguishable from an exact
relation and is reported as a precision loss rather than silently dropped.

All objects are immutable and every operation returns fresh values.
PadicContext, PadicMatrix and Lattice are slotted `arith.Frozen` classes,
whose attributes cannot be assigned once built; Pairing is a NamedTuple.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .arith import Frozen, is_prime


class PrecisionLossError(ArithmeticError):
    """A computation hit the bottom of the work ring Z/l^N."""


class PairingError(ValueError):
    """The supplied gram matrix does not define a perfect pairing."""


class PadicContext(Frozen):
    """Work ring descriptor: arithmetic happens in Z/ell^precision.

    `modulus`, ell^precision, is computed once, when the context is built.
    """

    __slots__ = ("ell", "precision", "modulus")
    _fields = ("ell", "precision")

    def __init__(self, ell: int, precision: int) -> None:
        if not is_prime(ell):
            raise ValueError(f"ell must be prime, got {ell}")
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "modulus", ell**precision)

    def invert_unit(self, u: int) -> int:
        """The inverse of a unit of the work ring."""
        u %= self.modulus
        if u % self.ell == 0:
            raise ZeroDivisionError(f"{u} is not a unit mod {self.ell}^{self.precision}")
        return pow(u, -1, self.modulus)


class PadicMatrix(Frozen):
    """Immutable matrix over Z/l^N, stored as a tuple of row tuples."""

    __slots__ = _fields = ("ctx", "rows")

    def __init__(self, ctx: PadicContext, rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def from_rows(ctx: PadicContext, rows) -> "PadicMatrix":
        m = ctx.modulus
        norm = tuple(tuple(int(x) % m for x in r) for r in rows)
        if norm and any(len(r) != len(norm[0]) for r in norm):
            raise ValueError("ragged matrix rows")
        return PadicMatrix(ctx, norm)

    @staticmethod
    def identity(ctx: PadicContext, n: int) -> "PadicMatrix":
        return PadicMatrix.from_rows(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        self._check(other)
        m = self.ctx.modulus
        return PadicMatrix(
            self.ctx,
            tuple(
                tuple((a - b) % m for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        if self.ctx != other.ctx:
            raise ValueError("mixed work rings")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        m = self.ctx.modulus
        ocols = other.ncols
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(ocols):
                row.append(sum(self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)) % m)
            out.append(tuple(row))
        return PadicMatrix(self.ctx, tuple(out))

    def scale(self, c: int) -> "PadicMatrix":
        m = self.ctx.modulus
        return PadicMatrix(self.ctx, tuple(tuple((c * x) % m for x in r) for r in self.rows))

    def apply(self, vec) -> tuple[int, ...]:
        m = self.ctx.modulus
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, r, vec)) % m for r in self.rows)

    def block_diag(self, copies: int) -> "PadicMatrix":
        n, k = self.nrows, self.ncols
        out = [[0] * (k * copies) for _ in range(n * copies)]
        for c in range(copies):
            for i in range(n):
                for j in range(k):
                    out[c * n + i][c * k + j] = self.rows[i][j]
        return PadicMatrix.from_rows(self.ctx, out)

    def _check(self, other: "PadicMatrix") -> None:
        if self.ctx != other.ctx:
            raise ValueError("mixed work rings")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")


def _echelon_columns(ctx: PadicContext, cols, top: int | None = None):
    """Column engine behind every Lattice, on vectors reduced mod l^N.

    Returns the canonical basis and, per basis column, the (valuation, row)
    of its pivot.  The pivot is always the entry of least valuation v among
    the columns not yet pivoted and the rows not yet used, ties broken by
    (row, column).  It is found in stages: stage v scans the free rows in
    order and, in each, the unpivoted columns in order, for the first entry
    x with x mod l^(v+1) != 0.  No valuation is computed.  Elimination
    never lowers a valuation below the pivot's, and a row scanned without
    success in stage v stays divisible by l^(v+1), so one pass over the rows
    per stage finds every pivot of that stage, in increasing row order, and
    the pivots come out sorted.  The pivot column is scaled by the inverse
    of its unit part (skipped when that is 1), so the pivot is l^v; the
    pivot row is then cleared in the unpivoted columns and reduced mod l^v
    in the pivoted ones.

    With `top`, pivots are taken in the first `top` rows only, and a third
    value holds the nonzero columns left unpivoted, whose first `top`
    entries are zero.
    """
    m, ell = ctx.modulus, ctx.ell
    work = [c for c in cols if any(c)]
    # live: the unpivoted columns with a nonzero entry in a row that may
    # take a pivot, in order
    if top is None:
        nonzero, rows = any, range(len(work[0]) if work else 0)
        live = list(range(len(work)))
    else:
        def nonzero(col):
            return any(col[:top])
        rows = range(top)
        live = [k for k, col in enumerate(work) if nonzero(col)]
    pivoted = [False] * len(work)
    row_used = [False] * len(rows)
    found: list[tuple[int, int, int]] = []  # (valuation, row, column)
    piv, v = 1, 0  # l^v
    while live:
        if v == ctx.precision:
            raise AssertionError("a nonzero column kept no entry below the precision")
        nxt = piv * ell
        for i in rows:
            if row_used[i]:
                continue
            for j in live:
                if work[j][i] % nxt:
                    break
            else:
                continue
            col = work[j]
            u = col[i] // piv
            if u != 1:
                u_inv = ctx.invert_unit(u)
                col = work[j] = [u_inv * x % m for x in col]
            for k, other in enumerate(work):
                entry = other[i]
                if not entry or k == j:
                    continue
                q, rem = divmod(entry, piv)
                if rem and not pivoted[k]:
                    raise AssertionError("pivot was not minimal in its stage")
                if q:
                    work[k] = [(x - q * y) % m for x, y in zip(other, col)]
            found.append((v, i, j))
            pivoted[j] = row_used[i] = True
            live = [k for k in live if k != j and nonzero(work[k])]
            if not live:
                break
        piv, v = nxt, v + 1
    basis = tuple(tuple(work[j]) for _v, _i, j in found)
    pivots = tuple((v, i) for v, i, _j in found)
    if top is None:
        return basis, pivots
    return basis, pivots, tuple(tuple(col) for k, col in enumerate(work)
                                if not pivoted[k] and any(col))


class Lattice(Frozen):
    """Submodule of (Z/l^N)^r given by a canonical echelon basis.

    `pivots` holds the (valuation, row) of each basis column, as the
    echelon pass found them.  Since the basis is canonical, == compares
    modules: two presentations of one module are equal even when their
    elementary divisors differ, and the hash reads only the context, the
    ambient rank and the basis.  Those divisors belong to the presentation
    a lattice was built from; `generator_count` is its size, and with the
    pivots it determines them (see the module docstring).
    """

    __slots__ = _fields = ("ctx", "ambient_rank", "basis", "pivots",
                           "generator_count")

    def __init__(self, ctx: PadicContext, ambient_rank: int,
                 basis: tuple[tuple[int, ...], ...],
                 pivots: tuple[tuple[int, int], ...], generator_count: int) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "generator_count", generator_count)

    def __eq__(self, other):
        if type(other) is not Lattice:
            return NotImplemented
        return (self.ctx, self.ambient_rank, self.basis) == (
            other.ctx, other.ambient_rank, other.basis)

    def __hash__(self) -> int:
        return hash((self.ctx, self.ambient_rank, self.basis))

    @staticmethod
    def from_generators(ctx: PadicContext, ambient_rank: int, generators) -> "Lattice":
        m = ctx.modulus
        cols = []
        for g in generators:
            col = tuple([int(x) % m for x in g])
            if len(col) != ambient_rank:
                raise ValueError(
                    f"generator length {len(col)} != ambient rank {ambient_rank}"
                )
            cols.append(col)
        return Lattice._from_reduced(ctx, ambient_rank, tuple(cols))

    @staticmethod
    def _from_reduced(ctx: PadicContext, ambient_rank: int,
                      cols: tuple[tuple[int, ...], ...]) -> "Lattice":
        """The lattice spanned by cols, which are already reduced mod l^N
        and of length ambient_rank (as the basis of any Lattice is)."""
        basis, pivots = _echelon_columns(ctx, cols)
        return Lattice(ctx, ambient_rank, basis, pivots, len(cols))

    @staticmethod
    def zero(ctx: PadicContext, ambient_rank: int) -> "Lattice":
        return Lattice(ctx, ambient_rank, (), (), 0)

    @staticmethod
    def full(ctx: PadicContext, ambient_rank: int) -> "Lattice":
        gens = [
            tuple(1 if i == j else 0 for i in range(ambient_rank))
            for j in range(ambient_rank)
        ]
        return Lattice.from_generators(ctx, ambient_rank, gens)

    @property
    def elementary_divisors(self) -> tuple[int, ...]:
        """Smith valuations of the presentation, clipped at the precision:
        the pivot valuations, then N for each dependent generator, up to
        min(ambient rank, generator count)."""
        pad = min(self.ambient_rank, self.generator_count) - len(self.pivots)
        return tuple(v for v, _row in self.pivots) + (self.ctx.precision,) * pad

    @property
    def declared_rank(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def rebased(self) -> "Lattice":
        """Same module, divisors recomputed from the minimal echelon basis.

        The echelon basis has one pivot per column with distinct pivot rows,
        so its Smith valuations are exactly the sorted pivot valuations; a
        redundant generating set's divisors (which may include the precision
        itself) are discarded.  Operation outputs are rebased so purity
        reflects the module, not a presentation.
        """
        return Lattice(self.ctx, self.ambient_rank, self.basis, self.pivots,
                       len(self.basis))

    def contains(self, vec) -> bool:
        """Membership by the greedy pass of coordinates(), keeping no
        coefficients."""
        m, ell = self.ctx.modulus, self.ctx.ell
        v = [int(x) % m for x in vec]
        if len(v) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        for col, (val, row) in zip(self.basis, self.pivots):
            q = v[row]
            if val:
                q, rem = divmod(q, ell**val)
                if rem:
                    return False
            if q:
                v = [(x - q * y) % m for x, y in zip(v, col)]
        return not any(v)

    def coordinates(self, vec) -> list[int] | None:
        """Coefficients expressing vec in the basis, or None if outside.

        The greedy pass is exact: later basis columns are zero in earlier
        pivot rows, and coefficient ambiguity at a pivot of valuation v is a
        multiple of l^(N-v), which kills the whole column mod l^N.
        """
        m, ell = self.ctx.modulus, self.ctx.ell
        v = [int(x) % m for x in vec]
        if len(v) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        coeffs = []
        for col, (val, row) in zip(self.basis, self.pivots):
            q = v[row]
            if val:
                q, rem = divmod(q, ell**val)
                if rem:
                    return None
            if q:
                v = [(x - q * y) % m for x, y in zip(v, col)]
            coeffs.append(q)
        if any(v):
            return None
        return coeffs

    def members(self):
        """Iterate every element of the module (small cases only)."""
        m = self.ctx.modulus
        if not self.basis:
            yield (0,) * self.ambient_rank
            return
        counts = [m // (self.ctx.ell ** v) for v, _row in self.pivots]
        idx = [0] * len(counts)
        while True:
            vec = [0] * self.ambient_rank
            for c, col in zip(idx, self.basis):
                for i in range(self.ambient_rank):
                    vec[i] = (vec[i] + c * col[i]) % m
            yield tuple(vec)
            k = 0
            while k < len(idx):
                idx[k] += 1
                if idx[k] < counts[k]:
                    break
                idx[k] = 0
                k += 1
            if k == len(idx):
                return

    def member_count(self) -> int:
        n = 1
        for v, _row in self.pivots:
            n *= self.ctx.modulus // (self.ctx.ell ** v)
        return n

    def same_module(self, other: "Lattice") -> bool:
        """Span equality by mutual membership; == compares canonical bases."""
        if self.ctx != other.ctx or self.ambient_rank != other.ambient_rank:
            return False
        return all(other.contains(c) for c in self.basis) and all(
            self.contains(c) for c in other.basis
        )


def is_pure(lattice: Lattice) -> bool:
    """Nakayama purity test: every elementary divisor of the basis is zero.

    Raises PrecisionLossError when a divisor equals the precision N: at this
    precision an exact relation and a unit times l^N cannot be told apart,
    so the purity verdict would be meaningless.
    """
    divisors = lattice.elementary_divisors
    if any(d >= lattice.ctx.precision for d in divisors):
        raise PrecisionLossError(
            "an elementary divisor reached the precision; purity is undecidable "
            f"at N={lattice.ctx.precision}"
        )
    return all(d == 0 for d in divisors)


def _kernel_pass(ctx: PadicContext, top: int, cols):
    """The one kernel route: the engine on cols with pivots in the first
    `top` rows.

    Returns the top parts of the pivot columns with their pivots, which are
    the canonical basis and pivots of the span of the top parts, and
    generators of the bottom parts of the span's elements whose top part is
    zero: the bottoms of the columns left unpivoted, and l^(N-v) times the
    bottom of each pivot column of valuation v.
    """
    m, ell, n = ctx.modulus, ctx.ell, ctx.precision
    basis, pivots, rest = _echelon_columns(ctx, cols, top)
    kernel = tuple(col[top:] for col in rest) + tuple(
        tuple(ell ** (n - v) * x % m for x in col[top:])
        for col, (v, _row) in zip(basis, pivots) if v)
    return tuple(col[:top] for col in basis), pivots, kernel


def _zassenhaus(x: Lattice, y: Lattice):
    """The kernel pass on (b; b) for b in X's basis and (c; 0) for c in Y's,
    whose span is {(u + w; u) : u in X, w in Y}: its top parts make X + Y,
    and the elements with top part zero have bottoms X ∩ Y."""
    _check_compatible(x, y)
    zero = (0,) * x.ambient_rank
    return _kernel_pass(x.ctx, x.ambient_rank,
                        [b + b for b in x.basis] + [c + zero for c in y.basis])


def intersect(x: Lattice, y: Lattice) -> Lattice:
    """X ∩ Y inside the common ambient module."""
    _sum, _pivots, meet = _zassenhaus(x, y)
    return Lattice._from_reduced(x.ctx, x.ambient_rank, meet).rebased()


def lattice_sum(x: Lattice, y: Lattice) -> tuple[Lattice, bool, bool]:
    """X + Y with directness and purity verdicts.

    Returns (sum, is_direct, sum_is_pure); is_direct means X ∩ Y = 0.
    Both come from one Zassenhaus pass.  When both summands are pure and
    their mod-l projections meet trivially, the sum is guaranteed direct
    and pure, and this is asserted.
    """
    basis, pivots, meet = _zassenhaus(x, y)
    total = Lattice(x.ctx, x.ambient_rank, basis, pivots, len(basis))
    direct = not any(map(any, meet))
    try:
        pure = is_pure(total)
    except PrecisionLossError:
        pure = False
    try:
        hypothesis = (
            is_pure(x)
            and is_pure(y)
            and _fl_dim_intersection(project_mod_ell(x), project_mod_ell(y), x.ctx.ell) == 0
        )
    except PrecisionLossError:
        hypothesis = False
    if hypothesis and not (direct and pure):
        raise AssertionError(
            "trivial mod-l intersection of pure summands must give a pure direct sum"
        )
    return total, direct, pure


def fl_echelon(vectors, ell: int) -> list[tuple[int, ...]]:
    """Reduced echelon basis of the F_ell span of the vectors, by pivot.

    Each basis vector has pivot entry 1 and is zero in every other pivot
    position; the rank of the span is the length of the basis.  This is the
    column engine over Z/l^1: every pivot has valuation 0, so its row is
    cleared in every other column, and the pivots come out in row order.
    """
    basis, _pivots = _echelon_columns(
        PadicContext(ell, 1), [tuple(x % ell for x in v) for v in vectors])
    return list(basis)


def project_mod_ell(x: Lattice) -> list[tuple[int, ...]]:
    """Basis (reduced echelon over F_l) of the image of X in F_l^r."""
    return fl_echelon(x.basis, x.ctx.ell)


def _fl_dim_intersection(a: list[tuple[int, ...]], b: list[tuple[int, ...]], ell: int) -> int:
    if not a or not b:
        return 0
    return len(a) + len(b) - len(fl_echelon(a + b, ell))


class Pairing(NamedTuple("Pairing", [("ctx", PadicContext), ("gram", PadicMatrix)])):
    """Bilinear form e(x, y) = x^T * gram * y over the work ring."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, ctx: PadicContext, gram: PadicMatrix) -> "Pairing":
        if gram.ctx != ctx:
            raise ValueError("gram matrix lives in a different work ring")
        return tuple.__new__(cls, (ctx, gram))

    def is_perfect(self) -> bool:
        """The gram matrix is square of full rank over F_l: its det is a unit."""
        r = self.gram.nrows
        return r == self.gram.ncols and len(fl_echelon(self.gram.rows, self.ctx.ell)) == r

    @staticmethod
    def standard(ctx: PadicContext, r: int) -> "Pairing":
        return Pairing(ctx, PadicMatrix.identity(ctx, r))


def orthogonal(x: Lattice, pairing: Pairing) -> Lattice:
    """X-perp = {y : e(b, y) = 0 for every basis vector b of X}."""
    if not pairing.is_perfect():
        raise PairingError("orthogonal complements need a perfect pairing")
    if pairing.gram.nrows != x.ambient_rank:
        raise ValueError("pairing rank does not match the ambient module")
    # X-perp is the kernel of M = B^T gram: column j is (M e_j; e_j).
    ctx, m = x.ctx, x.ctx.modulus
    cols = [tuple(sum(map(mul, b, g)) % m for b in x.basis) + e
            for g, e in zip(zip(*pairing.gram.rows),
                            PadicMatrix.identity(ctx, x.ambient_rank).rows)]
    _image, _pivots, perp = _kernel_pass(ctx, len(x.basis), cols)
    return Lattice._from_reduced(ctx, x.ambient_rank, perp).rebased()


def _check_compatible(x: Lattice, y: Lattice) -> None:
    if x.ctx != y.ctx:
        raise ValueError("lattices live in different work rings")
    if x.ambient_rank != y.ambient_rank:
        raise ValueError(
            f"ambient rank mismatch: {x.ambient_rank} != {y.ambient_rank}"
        )
