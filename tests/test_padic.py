"""Lattice calculus: frozen examples plus randomized property suites.

Derived expectations are frozen constants here; each frozen test also
re-derives the value from an independent oracle in tests/oracles.py so a
regression in either side is caught.
"""

import random

import pytest

import oracles
from oracles import column_reduce
from semistable_lab.arith import ord_at
from semistable_lab.padic import (
    Lattice,
    PadicContext,
    PadicMatrix,
    Pairing,
    PairingError,
    PrecisionLossError,
    intersect,
    is_pure,
    lattice_sum,
    orthogonal,
    project_mod_ell,
)
from semistable_lab import padic


def make_context(ell=2, precision=4):
    return PadicContext(ell, precision)


def random_lattice(rng, ctx, r, n_gens, require_pure=False, max_members=None):
    """Draw a random lattice; None if constraints cannot be met quickly."""
    for _ in range(120):
        gens = [[rng.randrange(ctx.modulus) for _ in range(r)] for _ in range(n_gens)]
        lat = Lattice.from_generators(ctx, r, gens)
        if require_pure:
            try:
                if not is_pure(lat):
                    continue
            except PrecisionLossError:
                continue
        if max_members is not None and lat.member_count() > max_members:
            continue
        return lat, gens
    return None, None


class TestContext:
    def test_rejects_composite_ell(self):
        with pytest.raises(ValueError):
            PadicContext(6, 3)

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            PadicContext(3, 0)

    def test_unit_inverse(self):
        ctx = PadicContext(3, 4)
        assert (ctx.invert_unit(2) * 2) % ctx.modulus == 1

    def test_invert_non_unit_fails(self):
        ctx = PadicContext(2, 3)
        with pytest.raises(ZeroDivisionError):
            ctx.invert_unit(4)


def random_units(rng, ell, m, count):
    units = [1, m - 1]
    while len(units) < count:
        u = rng.randrange(m)
        if u % ell:
            units.append(u)
    return units


class TestInvertUnit:
    """invert_unit against CPython's pow(u, -1, m), the plain inverse."""

    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_matches_pow(self, ell):
        rng = random.Random(ell)
        for n in [*range(1, 41), 64, 1000, 6200]:
            ctx = PadicContext(ell, n)
            m = ctx.modulus
            for u in random_units(rng, ell, m, 4 if n > 64 else 12):
                assert ctx.invert_unit(u) == pow(u, -1, m), (ell, n, u)

    @pytest.mark.parametrize("n", [16, 17])
    def test_lift_has_the_same_inverse(self, n):
        rng = random.Random(n)
        for ell in (2, 3, 5, 7):
            ctx = PadicContext(ell, n)
            m = ctx.modulus
            for u in random_units(rng, ell, m, 50):
                assert ctx.invert_unit(u) == pow(u, -1, m), (ell, n, u)
                # u is reduced first: a lift of u has the same inverse
                assert ctx.invert_unit(u + 3 * m) == pow(u, -1, m)

    @pytest.mark.parametrize("n", [17, 1000])
    def test_non_unit_fails_above_the_base(self, n):
        ctx = PadicContext(5, n)
        for x in (0, 5, 10 * ctx.modulus + 25, ctx.modulus - 5):
            with pytest.raises(ZeroDivisionError):
                ctx.invert_unit(x)


class TestPadicMatrix:
    def test_inverse_roundtrip(self):
        # the elimination inverse is a test oracle: no request inverts a
        # matrix since verify_identities takes closed-form block inverses
        rng = random.Random(11)
        for _ in range(40):
            ell = rng.choice([2, 3, 5])
            ctx = PadicContext(ell, rng.randint(2, 4))
            n = rng.randint(1, 4)
            # unit-triangular times permutation-ish: guaranteed invertible
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.choice([x for x in range(1, ctx.modulus) if x % ell])
                for j in range(i + 1, n):
                    rows[i][j] = rng.randrange(ctx.modulus)
            m = PadicMatrix.from_rows(ctx, rows)
            inv = oracles.matrix_inverse(m)
            assert (m @ inv).rows == PadicMatrix.identity(ctx, n).rows

    def test_singular_matrix_rejected(self):
        ctx = PadicContext(2, 4)
        m = PadicMatrix.from_rows(ctx, [[2, 0], [0, 1]])
        with pytest.raises(ZeroDivisionError):
            oracles.matrix_inverse(m)

    def test_block_diag(self):
        ctx = PadicContext(3, 2)
        m = PadicMatrix.from_rows(ctx, [[1, 2], [0, 1]])
        b = m.block_diag(2)
        assert b.nrows == 4 and b.ncols == 4
        assert b.rows[2][3] == 2 and b.rows[0][2] == 0

    def test_det_matches_bareiss_on_random(self):
        rng = random.Random(5)
        for _ in range(30):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            n = rng.randint(1, 3)
            rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
            m = PadicMatrix.from_rows(ctx, rows)
            # permanent-style cofactor expansion as a second route
            def cof(mat):
                if len(mat) == 1:
                    return mat[0][0]
                total = 0
                for j in range(len(mat)):
                    minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
                    total += (-1) ** j * mat[0][j] * cof(minor)
                return total

            assert m.det() == cof([list(r) for r in rows]) % ctx.modulus


class TestColumnReduce:
    def test_identity(self):
        ctx = make_context(2, 4)
        reduced, divisors = column_reduce(PadicMatrix.identity(ctx, 2))
        assert divisors == [0, 0]
        assert reduced.rows == PadicMatrix.identity(ctx, 2).rows

    def test_already_diagonal(self):
        ctx = make_context(2, 4)
        m = PadicMatrix.from_rows(ctx, [[1, 0], [0, 4]])
        _reduced, divisors = column_reduce(m)
        assert divisors == [0, 2]

    def test_upper_triangular_two_columns(self):
        ctx = make_context(2, 4)
        m = PadicMatrix.from_rows(ctx, [[2, 2], [0, 4]])
        _reduced, divisors = column_reduce(m)
        assert divisors == [1, 2]
        assert divisors == oracles.smith_valuations([(2, 0), (2, 4)], 2, 4, 2)

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(60):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            k = rng.randint(1, 4)
            rows = [[rng.randrange(ctx.modulus) for _ in range(k)] for _ in range(r)]
            reduced, _ = column_reduce(PadicMatrix.from_rows(ctx, rows))
            again, _ = column_reduce(reduced)
            assert again.rows == reduced.rows

    def test_span_preserved(self):
        rng = random.Random(29)
        for _ in range(40):
            ctx = PadicContext(2, rng.randint(2, 3))
            r = rng.randint(1, 3)
            k = rng.randint(1, 3)
            gens = [[rng.randrange(ctx.modulus) for _ in range(r)] for _ in range(k)]
            reduced, _ = column_reduce(
                PadicMatrix.from_rows(ctx, [[g[i] for g in gens] for i in range(r)])
            )
            before = oracles.closure_members(gens, ctx.modulus, r)
            after = oracles.closure_members(oracles.matrix_columns(reduced),
                                            ctx.modulus, r)
            assert before == after

    def test_canonical_under_presentation_change(self):
        rng = random.Random(31)
        for _ in range(60):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            k = rng.randint(1, 3)
            gens = [[rng.randrange(ctx.modulus) for _ in range(r)] for _ in range(k)]
            lat = Lattice.from_generators(ctx, r, gens)
            # recombine: shuffle, add multiples of one generator to another,
            # append redundant sums
            alt = [list(g) for g in gens]
            rng.shuffle(alt)
            for _ in range(4):
                i, j = rng.randrange(k), rng.randrange(k)
                if i != j:
                    c = rng.randrange(ctx.modulus)
                    alt[i] = [(a + c * b) % ctx.modulus for a, b in zip(alt[i], alt[j])]
            alt.append([sum(g[t] for g in alt) % ctx.modulus for t in range(r)])
            lat2 = Lattice.from_generators(ctx, r, alt)
            assert lat.basis == lat2.basis


class TestMembership:
    def test_coordinates_reconstruct(self):
        rng = random.Random(37)
        for _ in range(60):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            lat, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            if lat is None or lat.is_zero():
                continue
            coeffs = [rng.randrange(ctx.modulus) for _ in lat.basis]
            vec = [0] * r
            for c, col in zip(coeffs, lat.basis):
                for i in range(r):
                    vec[i] = (vec[i] + c * col[i]) % ctx.modulus
            got = lat.coordinates(vec)
            assert got is not None
            rebuilt = [0] * r
            for c, col in zip(got, lat.basis):
                for i in range(r):
                    rebuilt[i] = (rebuilt[i] + c * col[i]) % ctx.modulus
            assert rebuilt == vec

    def test_contains_matches_closure_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            ctx = PadicContext(rng.choice([2, 3]), rng.randint(2, 3))
            r = rng.randint(1, 3)
            lat, gens = random_lattice(rng, ctx, r, rng.randint(1, r), max_members=2000)
            if lat is None:
                continue
            members = oracles.closure_members(gens, ctx.modulus, r)
            assert set(lat.members()) == members
            assert lat.member_count() == len(members)
            for _ in range(20):
                v = tuple(rng.randrange(ctx.modulus) for _ in range(r))
                assert lat.contains(v) == (v in members)
                assert lat.contains(v) == oracles.hnf_membership(gens, ctx.modulus, v)


class TestPurity:
    def test_unit_vector_pure(self):
        ctx = make_context(2, 4)
        assert is_pure(Lattice.from_generators(ctx, 2, [(1, 0)]))

    def test_doubled_vector_not_pure(self):
        ctx = make_context(2, 4)
        assert not is_pure(Lattice.from_generators(ctx, 2, [(2, 0)]))

    def test_odd_prime_case_matches_divisibility_criterion(self):
        ctx = PadicContext(3, 4)
        lat = Lattice.from_generators(ctx, 2, [(1, 2)])
        assert is_pure(lat)
        # direct reading of purity at finite level: X meet 3T equals 3X,
        # checked on explicit member sets
        members = oracles.closure_members([(1, 2)], ctx.modulus, 2)
        meets_3t = {w for w in members if all(c % 3 == 0 for c in w)}
        tripled = {tuple(3 * c % ctx.modulus for c in w) for w in members}
        assert meets_3t == tripled

    def test_divisibility_criterion_detects_impurity(self):
        ctx = PadicContext(2, 4)
        members = oracles.closure_members([(2, 0)], ctx.modulus, 2)
        meets_2t = {w for w in members if all(c % 2 == 0 for c in w)}
        doubled = {tuple(2 * c % ctx.modulus for c in w) for w in members}
        assert meets_2t != doubled
        assert not is_pure(Lattice.from_generators(ctx, 2, [(2, 0)]))

    def test_degenerate_presentation_hits_precision_floor(self):
        ctx = make_context(2, 4)
        lat = Lattice.from_generators(ctx, 2, [(1, 0), (3, 0)])
        assert ctx.precision in lat.elementary_divisors
        with pytest.raises(PrecisionLossError):
            is_pure(lat)

    def test_operation_outputs_use_minimal_basis(self):
        # self-intersection of a pure lattice must not raise even though the
        # raw kernel presentation is redundant
        ctx = make_context(2, 4)
        x = Lattice.from_generators(ctx, 2, [(1, 2)])
        assert is_pure(intersect(x, x))

    def test_pure_iff_projection_has_full_rank(self):
        rng = random.Random(43)
        for _ in range(80):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            lat, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            if lat is None:
                continue
            try:
                verdict = is_pure(lat)
            except PrecisionLossError:
                continue
            assert verdict == (len(project_mod_ell(lat)) == lat.declared_rank)


class TestIntersect:
    def test_transverse_axes(self):
        ctx = make_context(2, 4)
        x = Lattice.from_generators(ctx, 2, [(1, 0)])
        y = Lattice.from_generators(ctx, 2, [(0, 1)])
        assert intersect(x, y).is_zero()

    def test_idempotent(self):
        ctx = make_context(2, 4)
        x = Lattice.from_generators(ctx, 2, [(1, 2), (0, 4)])
        assert intersect(x, x).basis == x.basis

    def test_skew_lines_leave_top_scale_shadow(self):
        ctx = PadicContext(2, 3)
        x = Lattice.from_generators(ctx, 2, [(1, 1)])
        y = Lattice.from_generators(ctx, 2, [(1, 3)])
        got = intersect(x, y)
        # derive independently: scan all 64 ambient vectors for joint
        # membership
        mx = oracles.closure_members([(1, 1)], 8, 2)
        my = oracles.closure_members([(1, 3)], 8, 2)
        expected = mx & my
        assert set(got.members()) == expected
        assert got.basis == ((4, 4),)

    def test_mismatched_ambients_rejected(self):
        ctx = make_context(2, 3)
        x = Lattice.from_generators(ctx, 2, [(1, 0)])
        y = Lattice.from_generators(ctx, 3, [(1, 0, 0)])
        with pytest.raises(ValueError):
            intersect(x, y)

    def test_against_enumeration_oracle(self):
        rng = random.Random(47)
        done = 0
        while done < 40:
            ctx = PadicContext(rng.choice([2, 3]), rng.randint(2, 3))
            r = rng.randint(1, 3)
            x, gx = random_lattice(rng, ctx, r, rng.randint(1, r), max_members=1500)
            y, gy = random_lattice(rng, ctx, r, rng.randint(1, r), max_members=1500)
            if x is None or y is None:
                continue
            done += 1
            got = intersect(x, y)
            truth = {
                v
                for v in oracles.closure_members(gx, ctx.modulus, r)
                if oracles.hnf_membership(gy, ctx.modulus, v)
            }
            assert set(got.members()) == truth

    def test_cardinality_identity(self):
        # |X meet Y| * |X + Y| = |X| * |Y| in any finite ambient module
        rng = random.Random(53)
        for _ in range(60):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            x, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            y, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            if x is None or y is None:
                continue
            meet = intersect(x, y)
            join, _, _ = lattice_sum(x, y)
            assert meet.member_count() * join.member_count() == x.member_count() * y.member_count()

    def test_two_precision_artifact_law(self):
        # For pure inputs whose relation matrix has all Smith valuations
        # below the precision, the zero-divisor part of the intersection is
        # the true one and every positive divisor is a precision artifact:
        # recomputing with two more digits shifts each by exactly two.
        rng = random.Random(59)
        checked = 0
        while checked < 40:
            ell = rng.choice([2, 3, 5])
            n = rng.randint(2, 4)
            ctx, ctx2 = PadicContext(ell, n), PadicContext(ell, n + 2)
            r = rng.randint(1, 4)
            x1, gx = random_lattice(rng, ctx, r, rng.randint(1, r), require_pure=True)
            y1, gy = random_lattice(rng, ctx, r, rng.randint(1, r), require_pure=True)
            if x1 is None or y1 is None:
                continue
            relation = [
                [g[i] for g in gx] + [-g[i] for g in gy] for i in range(r)
            ]
            vals = oracles.smith_valuations(
                [tuple(row[j] for row in relation) for j in range(len(gx) + len(gy))],
                ell,
                10 * n,
                r,
            )
            if max(vals, default=0) >= n:
                continue
            checked += 1
            d1 = intersect(x1, y1).elementary_divisors
            d2 = intersect(
                Lattice.from_generators(ctx2, r, gx),
                Lattice.from_generators(ctx2, r, gy),
            ).elementary_divisors
            assert d1.count(0) == d2.count(0)
            assert sorted(v + 2 for v in d1 if v > 0) == sorted(v for v in d2 if v > 0)


class TestSum:
    def test_axes_sum_full(self):
        ctx = make_context(2, 4)
        x = Lattice.from_generators(ctx, 2, [(1, 0)])
        y = Lattice.from_generators(ctx, 2, [(0, 1)])
        total, direct, pure = lattice_sum(x, y)
        assert total.basis == Lattice.full(ctx, 2).basis
        assert direct and pure

    def test_overlapping_projections(self):
        ctx = make_context(2, 4)
        x = Lattice.from_generators(ctx, 2, [(1, 0)])
        y = Lattice.from_generators(ctx, 2, [(1, 2)])
        total, direct, pure = lattice_sum(x, y)
        assert total.declared_rank == 2
        assert not direct and not pure
        assert total.elementary_divisors == (0, 1)

    def test_zero_summand_is_identity(self):
        ctx = make_context(3, 3)
        y = Lattice.from_generators(ctx, 3, [(1, 2, 0), (0, 0, 1)])
        total, direct, pure = lattice_sum(Lattice.zero(ctx, 3), y)
        assert total.basis == y.basis
        assert direct

    def test_disjoint_projections_give_pure_direct_sum(self):
        rng = random.Random(61)
        checked = 0
        while checked < 50:
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(2, 4)
            x, _ = random_lattice(rng, ctx, r, rng.randint(1, r - 1), require_pure=True)
            y, _ = random_lattice(rng, ctx, r, rng.randint(1, r - 1), require_pure=True)
            if x is None or y is None:
                continue
            px, py = project_mod_ell(x), project_mod_ell(y)
            # trivial overlap of projections <=> ranks add up over F_ell
            dim_sum = _fl_rank(px + py, ctx.ell, r)
            if dim_sum != len(px) + len(py):
                continue  # projections overlap; sufficient condition absent
            checked += 1
            _total, direct, pure = lattice_sum(x, y)
            assert direct and pure

    def test_projection_of_sum_is_sum_of_projections(self):
        rng = random.Random(67)
        for _ in range(60):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            x, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            y, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            if x is None or y is None:
                continue
            total, _, _ = lattice_sum(x, y)
            lhs = project_mod_ell(total)
            rhs = _fl_span(project_mod_ell(x) + project_mod_ell(y), ctx.ell, r)
            assert _fl_span(lhs, ctx.ell, r) == rhs


def _fl_rank(vectors, ell, r):
    return len(_fl_span(vectors, ell, r))


def _fl_span(vectors, ell, r):
    """Fully reduced echelon basis (set) of the F_ell span: canonical."""
    return frozenset(oracles.fl_echelon(vectors, ell))


class TestProjection:
    def test_even_odd_vector(self):
        ctx = make_context(2, 4)
        lat = Lattice.from_generators(ctx, 2, [(2, 1)])
        assert project_mod_ell(lat) == [(0, 1)]

    def test_zero_lattice(self):
        ctx = make_context(2, 4)
        assert project_mod_ell(Lattice.zero(ctx, 2)) == []

    def test_mixed_generators(self):
        ctx = make_context(2, 4)
        lat = Lattice.from_generators(ctx, 2, [(1, 2), (0, 4)])
        assert project_mod_ell(lat) == [(1, 0)]

    def test_projection_of_intersection_inside_intersection_of_projections(self):
        rng = random.Random(71)
        for _ in range(50):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            x, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            y, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            if x is None or y is None:
                continue
            meet_proj = _fl_span(project_mod_ell(intersect(x, y)), ctx.ell, r)
            px = _fl_span(project_mod_ell(x), ctx.ell, r)
            py = _fl_span(project_mod_ell(y), ctx.ell, r)
            # membership of each projected basis vector in both spans
            for v in meet_proj:
                assert _fl_rank(list(px) + [v], ctx.ell, r) == len(px)
                assert _fl_rank(list(py) + [v], ctx.ell, r) == len(py)


class TestOrthogonal:
    def test_full_lattice_has_zero_complement(self):
        ctx = make_context(2, 4)
        full = Lattice.full(ctx, 2)
        assert orthogonal(full, Pairing.standard(ctx, 2)).is_zero()

    def test_zero_lattice_has_full_complement(self):
        ctx = make_context(2, 4)
        zero = Lattice.zero(ctx, 2)
        got = orthogonal(zero, Pairing.standard(ctx, 2))
        assert got.basis == Lattice.full(ctx, 2).basis

    def test_symplectic_line(self):
        ctx = PadicContext(3, 3)
        x = Lattice.from_generators(ctx, 2, [(1, 0)])
        gram = PadicMatrix.from_rows(ctx, [[0, 1], [-1, 0]])
        got = orthogonal(x, Pairing(ctx, gram))
        # independent route: scan the whole ambient module
        truth = oracles.brute_orthogonal([(1, 0)], [[0, 1], [-1, 0]], 27, 2)
        assert set(got.members()) == truth
        assert got.basis == ((1, 0),)

    def test_non_perfect_pairing_rejected(self):
        ctx = make_context(2, 4)
        x = Lattice.from_generators(ctx, 2, [(1, 0)])
        gram = PadicMatrix.from_rows(ctx, [[2, 0], [0, 1]])
        with pytest.raises(PairingError):
            orthogonal(x, Pairing(ctx, gram))

    def test_rank_additivity_for_pure(self):
        rng = random.Random(73)
        for _ in range(50):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            x, _ = random_lattice(rng, ctx, r, rng.randint(1, r), require_pure=True)
            if x is None:
                continue
            perp = orthogonal(x, Pairing.standard(ctx, r))
            assert x.declared_rank + perp.declared_rank == r

    def test_double_complement_and_cardinality(self):
        rng = random.Random(79)
        for _ in range(50):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            x, _ = random_lattice(rng, ctx, r, rng.randint(1, r))
            if x is None:
                continue
            gram = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
            for _ in range(5):
                i, j = rng.randrange(r), rng.randrange(r)
                if i != j:
                    c = rng.randrange(ctx.modulus)
                    gram[i] = [(a + c * b) % ctx.modulus for a, b in zip(gram[i], gram[j])]
            e = Pairing(ctx, PadicMatrix.from_rows(ctx, gram))
            perp = orthogonal(x, e)
            # complement with respect to the first slot uses the transpose
            back = orthogonal(perp, Pairing(ctx, oracles.transpose(e.gram)))
            assert back.basis == x.basis
            assert x.member_count() * perp.member_count() == ctx.modulus**r

    def test_complement_of_meet_contains_sum_of_complements(self):
        rng = random.Random(83)
        eq_seen = 0
        for _ in range(60):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(2, 4))
            r = rng.randint(1, 4)
            x, _ = random_lattice(rng, ctx, r, rng.randint(1, r), require_pure=True)
            y, _ = random_lattice(rng, ctx, r, rng.randint(1, r), require_pure=True)
            if x is None or y is None:
                continue
            e = Pairing.standard(ctx, r)
            lhs = orthogonal(intersect(x, y), e)
            rhs, _, rhs_pure = lattice_sum(orthogonal(x, e), orthogonal(y, e))
            for col in rhs.basis:
                assert lhs.contains(col)
            if rhs_pure:
                eq_seen += 1
                assert lhs.basis == rhs.basis
        assert eq_seen > 5


class TestDeferredDivisors:
    """Elementary divisors are read off the echelon pivots: no kernel is
    computed when a lattice is built or its divisors are read."""

    @staticmethod
    def refuse_kernel(monkeypatch):
        def refuse(ctx, top, cols):
            raise AssertionError("a kernel was computed")

        monkeypatch.setattr(padic, "_kernel_pass", refuse)

    def test_no_smith_form_when_divisors_are_read(self, monkeypatch):
        self.refuse_kernel(monkeypatch)
        ctx = make_context(3, 3)
        lat = Lattice.from_generators(ctx, 3, [(1, 2, 0), (0, 3, 0)])
        assert lat.contains((1, 5, 0))
        assert lat.member_count() == 27 * 9
        assert lat.coordinates((1, 5, 0)) == [1, 1]
        assert lat.rebased().elementary_divisors == (0, 1)
        assert lat.elementary_divisors == (0, 1)
        assert not is_pure(lat)

    def test_divisors_read_later_match_the_oracle(self):
        """Against sympy and against the integer Smith diagonal the
        divisors were once computed from, on redundant presentations,
        rank 0, all-zero generators, N = 1 and 17, and more generators
        than the rank."""
        rng = random.Random(89)
        floor_hits = 0
        for t in range(160):
            ctx = PadicContext(rng.choice([2, 3, 5]),
                               rng.choice([1, 2, 3, 4, 17]))
            r = rng.randint(0, 4)
            gens = [[rng.randrange(ctx.modulus) for _ in range(r)]
                    for _ in range(rng.randint(1, r + 2))]
            if t % 8 == 0:
                gens = [[0] * r for _ in gens]
            # redundant presentation: append combinations of the generators
            for _ in range(rng.randint(1, 3)):
                cs = [rng.randrange(ctx.modulus) for _ in gens]
                gens.append([sum(c * g[i] for c, g in zip(cs, gens)) % ctx.modulus
                             for i in range(r)])
            lat = Lattice.from_generators(ctx, r, gens)
            expected = oracles.smith_valuations(gens, ctx.ell, ctx.precision, r)
            # sympy leaves out zero invariants; each one reads N here
            expected += [ctx.precision] * (min(r, len(gens)) - len(expected))
            assert list(lat.elementary_divisors) == sorted(expected)
            diag = oracles.smith_diagonal(
                [[g[i] for g in gens] for i in range(r)])
            assert list(lat.elementary_divisors) == sorted(
                min(ord_at(d, ctx.ell), ctx.precision) if d else ctx.precision
                for d in diag)
            if ctx.precision in lat.elementary_divisors:
                floor_hits += 1
                with pytest.raises(PrecisionLossError):
                    is_pure(lat)
        assert floor_hits > 5

    def test_operation_outputs_need_no_smith_form(self, monkeypatch):
        ctx = make_context(2, 4)
        x = Lattice.from_generators(ctx, 2, [(1, 0), (2, 2)])
        y = Lattice.from_generators(ctx, 2, [(1, 1)])
        meet = intersect(x, y)  # its meet comes from the kernel pass
        self.refuse_kernel(monkeypatch)
        assert meet.elementary_divisors == tuple(v for v, _row in meet.pivots)
        assert meet.elementary_divisors == (1,)
        assert not is_pure(meet)


def _engine_input(rng, ell, precision, rank, ncols):
    """Columns for the echelon engine, reduced mod l^N: entries u * l^v of
    every valuation v <= N (v = N is 0), plus zero, duplicate, l-scaled and
    summed columns."""
    m = ell**precision

    def entry():
        return rng.randrange(1, m) * ell ** rng.randint(0, precision) % m

    cols = []
    for _ in range(ncols):
        kind = rng.randrange(6) if cols else 0
        if kind <= 1:
            col = [entry() for _ in range(rank)]
        elif kind == 2:
            col = [0] * rank
        elif kind == 3:
            col = list(rng.choice(cols))
        elif kind == 4:
            col = [ell * x % m for x in rng.choice(cols)]
        else:
            a, b = rng.choice(cols), rng.choice(cols)
            c = rng.randrange(m)
            col = [(x + c * y) % m for x, y in zip(a, b)]
        cols.append(tuple(col))
    rng.shuffle(cols)
    return cols


class TestStagedEngine:
    """The staged pivot search against the minimum search it replaced."""

    PRECISIONS = (1, 2, 3, 4, 5, 6, 17, 40)

    def test_same_basis_and_pivots_as_the_minimum_search(self):
        rng = random.Random(211)
        for t in range(20_000):
            ell = (2, 3, 5, 7)[t % 4]
            precision = self.PRECISIONS[t // 4 % len(self.PRECISIONS)]
            ctx = PadicContext(ell, precision)
            cols = _engine_input(rng, ell, precision, rng.randint(0, 8),
                                 rng.randint(0, 12))
            basis, pivots = padic._echelon_columns(ctx, cols)
            want = oracles.echelon_columns_by_minimum(ctx, cols)
            assert (list(basis), list(pivots)) == want, (ell, precision, cols)

    def test_column_reduce_as_before(self):
        rng = random.Random(223)
        for t in range(2_000):
            ell = (2, 3, 5, 7)[t % 4]
            precision = self.PRECISIONS[t // 4 % len(self.PRECISIONS)]
            ctx = PadicContext(ell, precision)
            rank = rng.randint(1, 6)
            cols = _engine_input(rng, ell, precision, rank, rng.randint(0, 7))
            matrix = PadicMatrix.from_rows(
                ctx, [[c[i] for c in cols] for i in range(rank)])
            reduced, divisors = column_reduce(matrix)
            want, want_divisors = oracles.column_reduce_by_minimum(matrix)
            assert (reduced, divisors) == (want, want_divisors)


class TestStoredPivots:
    def test_pivots_are_first_entries_of_least_valuation(self):
        rng = random.Random(97)
        for _ in range(80):
            ctx = PadicContext(rng.choice([2, 3, 5]), rng.randint(1, 4))
            r = rng.randint(1, 4)
            lat, _ = random_lattice(rng, ctx, r, rng.randint(1, 5))
            recomputed = []
            for col in lat.basis:
                vals = [ord_at(x, ctx.ell) if x else ctx.precision for x in col]
                v = min(vals)
                row = vals.index(v)
                assert col[row] == ctx.ell**v
                recomputed.append((v, row))
            assert list(lat.pivots) == recomputed == sorted(recomputed)

    def test_equality_is_module_equality(self):
        ctx = make_context(2, 4)
        lean = Lattice.from_generators(ctx, 2, [(1, 0)])
        redundant = Lattice.from_generators(ctx, 2, [(1, 0), (3, 0)])
        assert lean.elementary_divisors != redundant.elementary_divisors
        assert lean == redundant
        assert hash(lean) == hash(redundant)
        assert lean != Lattice.from_generators(ctx, 2, [(2, 0)])

    def test_context_keeps_its_modulus(self):
        ctx = PadicContext(3, 5)
        assert ctx.modulus == 243
        assert ctx == PadicContext(3, 5)
        assert repr(ctx) == "PadicContext(ell=3, precision=5)"


def _random_perfect_pairing(rng, ctx, r):
    while True:
        gram = PadicMatrix.from_rows(
            ctx, [[rng.randrange(ctx.modulus) for _ in range(r)]
                  for _ in range(r)])
        pairing = Pairing(ctx, gram)
        if pairing.is_perfect():
            return pairing


def _read(lat):
    return lat.basis, lat.pivots, lat.elementary_divisors


class TestKernelPass:
    """Meets, sums and complements read off one engine pass with its
    pivots kept to the top rows, against the integer Smith-form route."""

    PRECISIONS = (1, 2, 3, 4, 5, 6, 17)

    def test_meet_sum_and_complement_match_the_smith_route(self):
        rng = random.Random(307)
        zero_sides = meets = 0
        for t in range(1_400):
            ell = (2, 3, 5, 7)[t % 4]
            precision = self.PRECISIONS[t // 4 % len(self.PRECISIONS)]
            ctx = PadicContext(ell, precision)
            r = rng.randint(0, 6)
            x, y = (Lattice.from_generators(
                ctx, r, _engine_input(rng, ell, precision, r,
                                      rng.randint(0, 5)))
                    for _ in range(2))
            zero_sides += x.is_zero() or y.is_zero()
            meet = intersect(x, y)
            meets += not meet.is_zero()
            assert _read(meet) == _read(oracles.smith_route_intersect(x, y))
            total, direct, _pure = lattice_sum(x, y)
            want, want_direct = oracles.smith_route_sum(x, y)
            assert (_read(total), direct) == (_read(want), want_direct)
            pairing = _random_perfect_pairing(rng, ctx, r)
            assert _read(orthogonal(x, pairing)) == _read(
                oracles.smith_route_orthogonal(x, pairing))
        assert zero_sides > 200 and meets > 300

    def test_zero_sides(self):
        ctx = make_context(3, 2)
        zero = Lattice.zero(ctx, 3)
        x = Lattice.from_generators(ctx, 3, [(1, 3, 0), (0, 3, 6)])
        for a, b in ((zero, zero), (x, zero), (zero, x)):
            assert _read(intersect(a, b)) == _read(zero)
            total, direct, _pure = lattice_sum(a, b)
            assert direct and total == (a if b.is_zero() else b)
        pairing = _random_perfect_pairing(random.Random(5), ctx, 3)
        assert _read(orthogonal(zero, pairing)) == _read(Lattice.full(ctx, 3))
        assert padic._echelon_columns(ctx, [(0, 0, 0)] * 2) == ((), ())
        assert padic._echelon_columns(ctx, [(0, 0, 0)] * 2, 1) == ((), (), ())
        assert padic._echelon_columns(ctx, [], 0) == ((), (), ())

    def test_whole_column_limit_is_the_default_pass(self):
        """On the corpus of TestStagedEngine, a limit at the column length
        gives the default basis and pivots and no leftover column."""
        rng = random.Random(211)
        for t in range(3_000):
            ell = (2, 3, 5, 7)[t % 4]
            precision = TestStagedEngine.PRECISIONS[
                t // 4 % len(TestStagedEngine.PRECISIONS)]
            ctx = PadicContext(ell, precision)
            cols = _engine_input(rng, ell, precision, rng.randint(0, 8),
                                 rng.randint(0, 12))
            rank = len(cols[0]) if cols else 0
            basis, pivots = padic._echelon_columns(ctx, cols)
            assert padic._echelon_columns(ctx, cols, rank) == (
                basis, pivots, ())
