"""Tests for the inertia-pair matrix models and the isogeny bookkeeping."""

import itertools

import pytest

import oracles
from semistable_lab.galois import (
    _atom,
    _check_tau_block,
    _orbit_representatives,
    _ring_blocks,
    _unit_normal,
    _word_algebra,
    build_rep,
    component_transfer,
    find_ell_maximal,
    first_block_levels,
    node_lattice,
    product_kernel,
    require_searchable,
    sigma_trivial_mod_ell,
    stable_levels,
    stable_submodules,
    teichmuller_unit,
    verify_identities,
)
from semistable_lab import cli, galois, padic
from semistable_lab.padic import Lattice, PadicContext, PadicMatrix, intersect


class TestTeichmuller:
    def test_lift_of_two_mod_25(self):
        assert teichmuller_unit(PadicContext(5, 2), 2) == 7

    def test_lift_of_two_mod_625(self):
        assert teichmuller_unit(PadicContext(5, 4), 2) == 182

    def test_lift_is_a_fourth_root_of_unity(self):
        ctx = PadicContext(5, 9)
        w = teichmuller_unit(ctx, 2)
        assert pow(w, 4, ctx.modulus) == 1
        assert w % 5 == 2

    def test_mod_three_lift_of_two_is_minus_one(self):
        ctx = PadicContext(3, 5)
        assert teichmuller_unit(ctx, 2) == ctx.modulus - 1

    def test_non_unit_seed_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            teichmuller_unit(PadicContext(5, 3), 10)

    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
    def test_matches_frobenius_oracle(self, ell):
        # seed^(l^(N-1)) is the Teichmuller lift: x -> x^l fixes it and is
        # a contraction towards it on each residue class mod l.  A unit's
        # power x^(l^(N-1)) mod l^N depends only on x mod l, so for a
        # primitive root g mod l and seed = g^k mod l it is
        # (g^(l^(N-1)))^k: at N = 1000 one Frobenius power per l gives
        # every seed's, and below that each seed takes its own.
        g = next(g for g in range(2, ell)
                 if len({pow(g, k, ell) for k in range(ell - 1)}) == ell - 1)
        for n in (1, 2, 3, 17, 1000):
            ctx = PadicContext(ell, n)
            q = ctx.modulus
            if n <= 17:
                want = {seed: pow(seed, ell ** (n - 1), q)
                        for seed in range(1, ell)}
            else:
                lift = pow(g, ell ** (n - 1), q)
                want = {pow(g, k, ell): pow(lift, k, q)
                        for k in range(ell - 1)}
            for seed in range(1, ell):
                oracle = want[seed]
                assert teichmuller_unit(ctx, seed) == oracle, (ell, n, seed)
                assert teichmuller_unit(ctx, seed + 7 * ell) == oracle


class TestBuildRep:
    def test_ell_two_tau_block_is_the_swap(self):
        rep = build_rep(2, 1, 2, 4)
        assert rep.tau.rows == ((0, 1), (1, 0))
        assert rep.omega == rep.ctx.modulus - 1

    def test_sigma_block_structure(self):
        rep = build_rep(3, 2, 6, 4)
        m = rep.ctx.modulus
        assert rep.rank == 4
        assert rep.sigma.rows == (
            (1, 6, 0, 0), (0, 1, 0, 0), (0, 0, 1, 6), (0, 0, 0, 1))
        # off-block corners of tau vanish
        assert all(rep.tau.rows[i][j] == 0
                   for i in (0, 1) for j in (2, 3))
        assert rep.tau.rows[0][1] == (-rep.omega) % m

    def test_tau_satisfies_its_quadratic(self):
        for ell in (2, 3, 5):
            rep = build_rep(ell, 1, ell, 5)
            ctx, w = rep.ctx, rep.omega
            quad = oracles.mat_add(rep.tau @ rep.tau - rep.tau.scale(1 + w),
                                   PadicMatrix.identity(ctx, 2).scale(w))
            assert not any(x for row in quad.rows for x in row)
            (a, b), (c, d) = rep.tau.rows
            assert (a * d - b * c) % ctx.modulus == w

    @pytest.mark.parametrize(
        "args, message",
        [
            ((7, 1, 7, 4), "ell must be"),
            ((2, 0, 2, 4), "d must be"),
            ((2, 1, 2, 2), "precision"),
            ((2, 1, 3, 4), "multiple of ell"),
            ((2, 1, 0, 4), "multiple of ell"),
            ((2, 1, 16, 4), "vanishes"),
        ],
    )
    def test_invalid_inputs(self, args, message):
        with pytest.raises(ValueError, match=message):
            build_rep(*args)


class TestIdentities:
    def test_full_parameter_grid_passes(self):
        for ell in (2, 3, 5):
            for s in (ell, 2 * ell):
                for precision in (4, 6):
                    for d in (1, 2):
                        rep = build_rep(ell, d, s, precision)
                        checks = verify_identities(rep)
                        assert len(checks) == 2
                        assert all(oracles.identity_passed(c)
                                   for c in checks), (ell, s, precision, d)

    def test_identity_names_by_residue(self):
        names2 = [c.name for c in verify_identities(build_rep(2, 1, 2, 4))]
        names5 = [c.name for c in verify_identities(build_rep(5, 1, 5, 4))]
        assert names2 == ["twisted-commutation", "conjugate-difference"]
        assert names5 == ["twisted-commutation-tau-squared",
                          "conjugate-difference"]

    def test_conjugate_difference_prefactor_is_minus_s_squared_omega(self):
        # for l = 5 the inverse of omega is -omega, so the right-hand side
        # can be written with prefactor -s^2 omega; check that form verbatim
        rep = build_rep(5, 1, 5, 4)
        m, w, s = rep.ctx.modulus, rep.omega, rep.s
        assert (w * w) % m == m - 1
        check = verify_identities(rep)[1]
        expected = PadicMatrix.from_rows(
            rep.ctx, [[1, 2 * (1 + w)], [0, -1]]).scale(-s * s * w)
        assert check.rhs.rows == expected.rows
        assert check.lhs.rows == expected.rows

    def test_unit_rescaled_s_still_passes(self):
        # s only matters through its residue class times units
        assert all(oracles.identity_passed(c)
                   for c in verify_identities(build_rep(3, 1, 15, 5)))
        assert all(oracles.identity_passed(c)
                   for c in verify_identities(build_rep(5, 2, 35, 4)))
        assert all(oracles.identity_passed(c)
                   for c in verify_identities(build_rep(2, 1, -2, 4)))

    def test_lhs_and_rhs_are_recorded(self):
        check = verify_identities(build_rep(2, 1, 2, 4))[0]
        assert check.lhs.rows == check.rhs.rows == ((2, 0), (0, 2))


class TestStableSubmodules:
    def test_ell_two_level_one_frozen(self):
        rep = build_rep(2, 1, 2, 4)
        bases = [lat.basis for lat in stable_submodules(rep, 1)]
        assert bases == [(), ((1, 1),), ((1, 0), (0, 1))]

    def test_ell_three_level_one_has_both_diagonal_lines(self):
        rep = build_rep(3, 1, 3, 4)
        bases = [lat.basis for lat in stable_submodules(rep, 1)]
        assert bases == [(), ((1, 1),), ((1, 2),), ((1, 0), (0, 1))]

    def test_ell_five_level_one_lines_solve_the_tau_quadratic(self):
        rep = build_rep(5, 1, 5, 4)
        subs = stable_submodules(rep, 1)
        lines = [lat.basis[0] for lat in subs if lat.declared_rank == 1]
        # c^2 + (1 + w^-1)c + w^-1 = 0 mod 5 has roots 2 and 4
        assert lines == [(1, 2), (1, 4)]

    def test_everything_returned_is_stable(self):
        for ell, d, n in ((2, 1, 2), (2, 2, 1), (3, 1, 1), (5, 1, 1)):
            rep = build_rep(ell, d, ell, 5)
            ctx = PadicContext(ell, n)
            sg = PadicMatrix.from_rows(ctx, rep.sigma.rows)
            tu = PadicMatrix.from_rows(ctx, rep.tau.rows)
            subs = stable_submodules(rep, n)
            assert subs[0].is_zero()
            assert subs[-1].same_module(Lattice.full(ctx, rep.rank))
            for lat in subs:
                for b in lat.basis:
                    assert lat.contains(sg.apply(b))
                    assert lat.contains(tu.apply(b))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="l\\^n <= 9"):
            stable_submodules(build_rep(5, 1, 5, 4), 2)
        with pytest.raises(ValueError, match="at least 1"):
            stable_submodules(build_rep(2, 1, 2, 4), 0)

    @staticmethod
    def level_matrices(rep, n):
        m = rep.ell ** n
        return [tuple(tuple(x % m for x in row) for row in mat.rows)
                for mat in (rep.sigma, rep.tau)]

    @pytest.mark.parametrize("ell, n, d", [
        (2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1),
        (2, 1, 2), (3, 1, 2), (2, 2, 2),
    ])
    @pytest.mark.parametrize("shear", [1, 2])
    def test_matches_brute_force_closure(self, ell, n, d, shear):
        rep = build_rep(ell, d, shear * ell, max(4, n + 2))
        sigma, tau = self.level_matrices(rep, n)
        brute = oracles.stable_subgroups_brute(sigma, tau, ell ** n)
        subs = stable_submodules(rep, n)
        assert {frozenset(lat.members()) for lat in subs} == brute
        assert len(subs) == len(brute)

    @pytest.mark.parametrize("shear", [1, 2])
    def test_ell_five_d_two_by_count_and_stability(self, shear):
        # the brute-force closure takes seconds here, so check what is cheap
        rep = build_rep(5, 2, 5 * shear, 4)
        sigma, tau = self.level_matrices(rep, 1)
        subs = stable_submodules(rep, 1)
        assert len(subs) == 64
        assert len({lat.basis for lat in subs}) == 64
        for lat in subs:
            for b in lat.basis:
                for rows in (sigma, tau):
                    image = [sum(a * x for a, x in zip(row, b)) % 5
                             for row in rows]
                    assert lat.contains(image)

    def test_d_two_counts_frozen(self):
        counts = {ell ** n: len(stable_submodules(build_rep(ell, 2, ell, 4), n))
                  for ell, n in ((2, 1), (2, 2), (3, 1), (5, 1))}
        assert counts == {2: 15, 4: 59, 3: 36, 5: 64}

    def test_order_is_size_then_basis(self):
        subs = stable_submodules(build_rep(2, 2, 2, 4), 2)
        keys = [(lat.member_count(), lat.basis) for lat in subs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("ell, n, rank", [(2, 1, 4), (2, 3, 2), (3, 2, 2),
                                              (5, 1, 3), (2, 2, 3)])
    def test_one_representative_per_unit_orbit(self, ell, n, rank):
        q = ell ** n
        units = [u for u in range(q) if u % ell]
        reps = list(_orbit_representatives(ell, n, rank))
        orbits = set()
        for vec in itertools.product(range(q), repeat=rank):
            if any(vec):
                orbits.add(frozenset(tuple(u * x % q for x in vec)
                                     for u in units))
        assert len(reps) == len(set(reps)) == len(orbits)
        assert {orbit for orbit in orbits
                if any(r in orbit for r in reps)} == orbits

    def test_oversized_search_refused_before_any_work(self):
        with pytest.raises(ValueError, match="l\\^n <= 9"):
            require_searchable(3, 300000, 1)
        with pytest.raises(ValueError, match="l\\^n <= 9"):
            stable_levels(build_rep(2, 1, 2, 6), 4)
        require_searchable(3, 2, 2)
        require_searchable(2, 3, 1)


class TestComponentTransfer:
    def setup_method(self):
        self.ctx = PadicContext(2, 1)
        self.toric = Lattice.from_generators(self.ctx, 2, [(1, 0)])

    def test_diagonal_kernel_halves_the_order(self):
        diag = Lattice.from_generators(self.ctx, 2, [(1, 1)])
        assert component_transfer(diag, 2) == 1

    def test_toric_kernel_multiplies_by_ell(self):
        assert component_transfer(self.toric, 1) == 2

    def test_zero_kernel_is_the_identity_isogeny(self):
        zero = Lattice.zero(self.ctx, 2)
        assert component_transfer(zero, 7) == 7

    def test_full_kernel_is_multiplication_by_ell(self):
        assert component_transfer(Lattice.full(self.ctx, 2), 6) == 6

    def test_non_integral_transfer_rejected(self):
        diag = Lattice.from_generators(self.ctx, 2, [(1, 1)])
        with pytest.raises(ValueError, match="not integral"):
            component_transfer(diag, 1)

    def test_odd_rank_and_nonpositive_phi_rejected(self):
        kernel = Lattice.from_generators(self.ctx, 3, [(1, 0, 0)])
        with pytest.raises(ValueError, match="2x2 blocks, got rank 3"):
            component_transfer(kernel, 2)
        with pytest.raises(ValueError, match="positive"):
            component_transfer(self.toric, 0)


class TestMaximalSearch:
    def test_two_node_graph_frozen(self):
        rep = build_rep(2, 1, 2, 5)
        report = find_ell_maximal(rep, 2, stable_levels(rep, 1))
        assert [(n.lattice.basis, n.ell_part, n.sigma_trivial)
                for n in report.nodes] == [
            (((1, 0), (0, 1)), 2, True),
            (((1, 1), (0, 2)), 1, False),
        ]
        assert report.maximal_part == 2
        assert report.maximal_count == 1
        assert report.sigma_trivial_exactly_on_maximal

    def test_deeper_levels_add_no_new_nodes(self):
        rep = build_rep(2, 1, 2, 6)
        one = find_ell_maximal(rep, 2, stable_levels(rep, 1))
        three = find_ell_maximal(rep, 2, stable_levels(rep, 3))
        assert [n.lattice.basis for n in one.nodes] == \
            [n.lattice.basis for n in three.nodes]
        # level-2 and level-3 kernels pile extra witnesses onto the same nodes
        assert sum(len(n.kernels) for n in three.nodes) > \
            sum(len(n.kernels) for n in one.nodes)
        assert three.maximal_part == 2 and three.maximal_count == 1

    def test_product_graph_is_multiplicatively_maximal(self):
        rep1, rep2 = build_rep(2, 1, 2, 5), build_rep(2, 2, 2, 5)
        single = find_ell_maximal(rep1, 2, stable_levels(rep1, 1))
        product = find_ell_maximal(rep2, 4, stable_levels(rep2, 1))
        assert product.maximal_part == single.maximal_part ** 2
        assert product.sigma_trivial_exactly_on_maximal
        bases = {n.lattice.basis: n for n in product.nodes}
        standard = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        diagonal = ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 0, 2))
        assert bases[standard].ell_part == 4
        assert bases[diagonal].ell_part == 4
        assert len(product.nodes) == 14

    def test_transfer_is_multiplicative_on_product_kernels(self):
        subs = stable_submodules(build_rep(2, 1, 2, 5), 1)
        for k1 in subs:
            for k2 in subs:
                combined = component_transfer(product_kernel(k1, k2), 4)
                assert combined == (component_transfer(k1, 2)
                                    * component_transfer(k2, 2))

    def test_sigma_triviality_is_checked_in_the_node_basis(self):
        rep = build_rep(2, 1, 2, 5)
        ctx1 = PadicContext(2, 1)
        diag = Lattice.from_generators(ctx1, 2, [(1, 1)])
        quotient = node_lattice(rep, diag, 1)
        assert quotient.basis == ((1, 1), (0, 2))
        assert not sigma_trivial_mod_ell(rep, quotient)
        assert sigma_trivial_mod_ell(rep, Lattice.full(rep.ctx, 2))

    def test_input_guards(self):
        rep = build_rep(2, 1, 2, 4)
        with pytest.raises(ValueError, match="positive"):
            find_ell_maximal(rep, 0, stable_levels(rep, 1))
        with pytest.raises(ValueError, match="at least the level-1"):
            find_ell_maximal(rep, 2, ())
        with pytest.raises(ValueError, match="precision too small"):
            find_ell_maximal(rep, 2, stable_levels(rep, 3))


# every searchable (l, n) with l^n <= 9, at d = 1 and d = 2
_SEARCH_GRID = [(ell, n, d)
                for ell, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
                for d in (1, 2)]


class TestWordAlgebraSearch:
    """The one-echelon atoms and the projection-count transfer against the
    image-by-image closure and the two-intersection formula they replace."""

    @staticmethod
    def level_pair(rep, n):
        ctx = PadicContext(rep.ell, n)
        return (ctx, PadicMatrix.from_rows(ctx, rep.sigma.rows),
                PadicMatrix.from_rows(ctx, rep.tau.rows))

    @pytest.mark.parametrize("ell, n, d", _SEARCH_GRID)
    @pytest.mark.parametrize("shear", [1, 2])
    def test_atom_matches_image_by_image_closure(self, ell, n, d, shear):
        rep = build_rep(ell, d, shear * ell, max(4, n + 2))
        ctx, sigma, tau = self.level_pair(rep, n)
        algebra = _word_algebra(rep, ctx)
        for vec in _orbit_representatives(ell, n, rep.rank):
            assert _atom(algebra, vec) == oracles.close_by_images(
                sigma, tau, vec), vec

    @pytest.mark.parametrize("ell, n", [(2, 1), (2, 2), (3, 1), (5, 1)])
    @pytest.mark.parametrize("shear", [1, 2])
    def test_word_algebra_spans_the_product_closure(self, ell, n, shear):
        rep = build_rep(ell, 1, shear * ell, max(4, n + 2))
        ctx, sigma, tau = self.level_pair(rep, n)
        q = ctx.modulus
        flat = lambda rows: tuple(x for row in rows for x in row)
        words = oracles.word_closure(sigma.rows, tau.rows, q)
        span = Lattice.from_generators(
            ctx, 4, [flat(a.rows) for a in _word_algebra(rep, ctx)])
        assert set(span.members()) == oracles.closure_members(
            [flat(w) for w in words], q, 4)
        # both inverses are words, so the closure is two-sided
        assert span.contains(flat(oracles.matrix_inverse(sigma).rows))
        assert span.contains(flat(oracles.matrix_inverse(tau).rows))

    @pytest.mark.parametrize("ell, n, d", _SEARCH_GRID)
    @pytest.mark.parametrize("shear", [1, 2])
    def test_transfer_matches_two_intersections(self, ell, n, d, shear):
        rep = build_rep(ell, d, shear * ell, max(4, n + 2))
        ctx = PadicContext(ell, n)
        # the toric step: e_0, e_2, ..., the first coordinate of each block
        toric = Lattice.from_generators(
            ctx, rep.rank, [tuple(int(i == j) for i in range(rep.rank))
                            for j in range(0, rep.rank, 2)])
        # cyclic modules too (at d = 1, where they are few): tau swaps the
        # toric and etale lines, so on a stable kernel the two meets have
        # one size and a projection onto the wrong coordinates goes unseen
        cyclic = [Lattice.from_generators(ctx, rep.rank, [vec])
                  for vec in _orbit_representatives(ell, n, rep.rank)
                  if d == 1]
        for kernel in stable_submodules(rep, n) + cyclic:
            meet = intersect(kernel, toric).member_count()
            den = kernel.member_count() // meet
            for phi in (ell ** d, ell ** (2 * d * n)):
                num = phi * meet
                if num % den:
                    with pytest.raises(ValueError, match="not integral"):
                        component_transfer(kernel, phi)
                else:
                    assert component_transfer(kernel, phi) == num // den


class TestBlockInverses:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_block_inverse_is_the_inverse(self, ell, d):
        rep = build_rep(ell, d, ell, 20)
        assert rep.sigma == rep.sigma_block.block_diag(d)
        assert rep.tau == rep.tau_block.block_diag(d)
        c, _s, image, _sg, _tu, sg_inv, tu_inv = _ring_blocks(rep)
        assert image(sg_inv).block_diag(d) == oracles.matrix_inverse(rep.sigma)
        assert image(tu_inv).block_diag(d) == oracles.matrix_inverse(rep.tau)
        w_inv = c * rep.omega % rep.ctx.modulus  # omega^-1 = c omega
        assert w_inv == rep.ctx.invert_unit(rep.omega)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_tampered_block_is_refused(self, ell):
        rep = build_rep(ell, 2, ell, 20)
        ctx, w = rep.ctx, rep.omega
        tampered = (
            ("tau_block", [[0, -w], [1, 2 + w]]),
            ("tau_block", [[1, -w], [1, 1 + w]]),
            ("sigma_block", [[1, rep.s], [ell, 1]]),
        )
        for name, rows in tampered:
            bad = rep._replace(**{name: PadicMatrix.from_rows(ctx, rows)})
            with pytest.raises(ArithmeticError, match="closed-form inverse"):
                verify_identities(bad)
        # a wrong omega^-1 shows in the product that confirms tau^-1
        with pytest.raises(ArithmeticError, match="closed-form inverse"):
            verify_identities(rep._replace(omega=2))


class TestIdentitiesAgainstFullMatrices:
    """The block computation against the 2d x 2d one it replaced: whole
    matrices, elimination inverses, the unit inverse of omega and the
    Newton lift of omega at l = 3."""

    @pytest.mark.parametrize("ell", [2, 3, 5])
    @pytest.mark.parametrize("precision", [3, 4, 6, 17, 40, 600])
    def test_same_names_and_sides(self, ell, precision):
        for k in (1, 2, 7):
            for d in (1, 2, 3, 4):
                s = k * ell
                got = verify_identities(build_rep(ell, d, s, precision))
                want = oracles.identities_full(ell, d, s, precision)
                assert [c.name for c in got] == list(want)
                for c in got:
                    assert (c.lhs, c.rhs) == want[c.name], (ell, s, d)
                    assert oracles.identity_passed(c)

    @pytest.mark.parametrize("precision", [3, 17, 600])
    def test_omega_at_three_is_the_newton_lift(self, precision):
        rep = build_rep(3, 1, 3, precision)
        assert rep.omega == teichmuller_unit(rep.ctx, 2) == rep.ctx.modulus - 1


class TestIdentitiesOverZOmega:
    """Each side is computed on blocks over Z[omega], with s lifted to its
    least absolute residue, and mapped to Z/l^N once per entry."""

    @pytest.mark.parametrize("precision", [3, 17, 600])
    @pytest.mark.parametrize("ell, s", [(5, -5), (5, -95),
                                        (5, 5 * (10**40 + 1)), (3, -3)])
    def test_negative_and_wide_shears_match_full_matrices(self, ell, s,
                                                          precision):
        for d in (1, 2):
            rep = build_rep(ell, d, s, precision)
            m = rep.ctx.modulus
            lift = galois._ring_blocks(rep)[1]
            assert (lift - s) % m == 0 and 2 * abs(lift) <= m
            got = verify_identities(rep)
            want = oracles.identities_full(ell, d, s, precision)
            assert {c.name: (c.lhs, c.rhs) for c in got} == want
            assert all(oracles.identity_passed(c) for c in got)

    @pytest.mark.parametrize("ell", [3, 5])
    @pytest.mark.parametrize("precision", [3, 17, 600])
    def test_omega_wrong_only_mod_the_top_power_is_refused(self, ell,
                                                           precision):
        """omega' = omega + l^(N-1) agrees with omega below l^(N-1).  With
        tau rebuilt from omega' the blocks are the images of the standard
        ones under omega', so only omega's relation mod l^N refuses it."""
        rep = build_rep(ell, 2, ell, precision)
        ctx = rep.ctx
        w = (rep.omega + ell ** (precision - 1)) % ctx.modulus
        tau = PadicMatrix.from_rows(ctx, [[0, -w], [1, 1 + w]])
        _check_tau_block(tau, w)
        for bad in (rep._replace(omega=w),
                    rep._replace(omega=w, tau=tau.block_diag(2),
                                 tau_block=tau)):
            with pytest.raises(ArithmeticError, match="closed-form inverse"):
                verify_identities(bad)
            with pytest.raises(ArithmeticError, match="closed-form inverse"):
                _ring_blocks(bad)


class TestTauBlockCheck:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_tampered_trace_or_determinant_raises(self, ell):
        rep = build_rep(ell, 1, ell, 17)
        ctx, w = rep.ctx, rep.omega
        for rows, what in (([[0, -w], [1, 2 + w]], "trace"),
                           ([[2, -w], [1, 0]], "trace"),
                           ([[0, -w - 1], [1, 1 + w]], "determinant"),
                           ([[0, -w], [ell, 1 + w]], "determinant")):
            with pytest.raises(AssertionError, match=what):
                _check_tau_block(PadicMatrix.from_rows(ctx, rows), w)

    @pytest.mark.parametrize("ell, precision", [(2, 3), (3, 2), (5, 1)])
    def test_trace_and_determinant_say_the_quadratic_relation(self, ell,
                                                              precision):
        """Over every 2x2 matrix of Z/l^N: det = omega and tr = 1 + omega
        hold exactly when det = omega and (M - 1)(M - omega) = 0."""
        ctx = PadicContext(ell, precision)
        m = ctx.modulus
        w = teichmuller_unit(ctx, 2) if ell == 5 else m - 1
        ident = PadicMatrix.identity(ctx, 2)
        agree = 0
        for a, b, c, d in itertools.product(range(m), repeat=4):
            mat = PadicMatrix.from_rows(ctx, [[a, b], [c, d]])
            quad = oracles.mat_add(mat @ mat - mat.scale(1 + w), ident.scale(w))
            det = (a * d - b * c) % m
            want = det == w and not any(x for r in quad.rows for x in r)
            try:
                _check_tau_block(mat, w)
                got = True
            except AssertionError:
                got = False
            assert got == want, mat.rows
            agree += got
        assert agree > 0


def _admitted_searches():
    """(l, n, d, s) of every admitted level, at precision max(4, n + 2) as
    isogeny-maximal builds it."""
    for ell, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        for d in (1, 2):
            for s in (ell, 2 * ell, 7 * ell):
                yield ell, n, d, s


class TestSumsOfAtoms:
    """The atom-set join pass against the one that summed every pair."""

    @pytest.mark.parametrize("ell, n, d, s", list(_admitted_searches()))
    def test_same_modules_as_every_join(self, ell, n, d, s):
        rep = build_rep(ell, d, s, max(4, n + 2))
        got = stable_submodules(rep, n)
        want = oracles.stable_submodules_by_every_join(rep, n)
        assert ([(lat.basis, lat.pivots) for lat in got]
                == [(lat.basis, lat.pivots) for lat in want])

    def test_work_counts_of_one_search(self, monkeypatch):
        """isogeny-maximal --ell 2 --s 2 --n 2: the d = 2, n = 2 search,
        the only one the request runs, sums its atoms in at most 250
        echelon passes (616 when every pair was summed), and a node takes
        none."""
        records, scope = [], []
        engine = padic._echelon_columns

        def counted_engine(ctx, cols):
            if scope:
                scope[-1][1] += 1
            return engine(ctx, cols)

        def scoped(name, key):
            inner = getattr(galois, name)

            def run(*args):
                rec = [key(*args), 0]
                records.append(rec)
                scope.append(rec)
                try:
                    return inner(*args)
                finally:
                    scope.pop()
            monkeypatch.setattr(galois, name, run)

        monkeypatch.setattr(padic, "_echelon_columns", counted_engine)
        scoped("_sums_of_atoms",
               lambda ctx, rank, atoms: (rank // 2, ctx.precision))
        scoped("node_lattice", lambda rep, kernel, n: "node")
        report, status = cli.run(
            ["isogeny-maximal", "--ell", "2", "--s", "2", "--n", "2"])
        assert status == 0
        joins = {key: count for key, count in records if key != "node"}
        assert set(joins) == {(2, 2)}
        assert joins[(2, 2)] <= 250
        nodes = [count for key, count in records if key == "node"]
        assert nodes and set(nodes) == {0}


class TestLevelsFromOneSearch:
    """The lists isogeny-maximal reads off its one search against the
    searches they replace."""

    @staticmethod
    def key(lat):
        return (lat.ctx, lat.ambient_rank, lat.basis, lat.pivots,
                lat.generator_count)

    @pytest.mark.parametrize("ell, n, d, s", list(_admitted_searches()))
    def test_levels_and_blocks_match_their_own_searches(self, ell, n, d, s):
        precision = max(4, n + 2)
        rep = build_rep(ell, d, s, precision)
        levels = stable_levels(rep, n)
        assert len(levels) == n
        for k, got in enumerate(levels, 1):
            want = stable_submodules(rep, k)
            assert [self.key(l) for l in got] == [self.key(l) for l in want]
        if d == 1:
            return
        rep1 = build_rep(ell, 1, s, precision)
        blocks = first_block_levels(levels)
        assert len(blocks) == n
        for k, got in enumerate(blocks, 1):
            want = stable_submodules(rep1, k)
            assert [self.key(l) for l in got] == [self.key(l) for l in want]
        for kernels in blocks:
            for k1, k2 in itertools.product(kernels, repeat=2):
                cols = (tuple(b + (0, 0) for b in k1.basis)
                        + tuple((0, 0) + b for b in k2.basis))
                want = Lattice._from_reduced(k1.ctx, 4, cols)
                assert self.key(product_kernel(k1, k2)) == self.key(want)

    def test_block_lists_need_a_d_two_search(self):
        levels = stable_levels(build_rep(2, 1, 2, 4), 1)
        with pytest.raises(ValueError, match="d = 2 search"):
            first_block_levels(levels)


class TestJoinCounts:
    """Every echelon pass of the atom sums makes a module not found before."""

    # (l, n, d) -> echelon passes in _sums_of_atoms when v_l(s) = 1
    PINNED = {(2, 2, 2): 25, (2, 3, 2): 75}

    @pytest.mark.parametrize("ell, n, d, s", list(_admitted_searches()))
    def test_each_pass_makes_a_new_module(self, monkeypatch, ell, n, d, s):
        rep = build_rep(ell, d, s, max(4, n + 2))
        bases, scope, memberships = [], [], []
        engine = padic._echelon_columns
        inner = galois._sums_of_atoms
        contains = Lattice.contains

        def counted_engine(ctx, cols):
            basis, pivots = engine(ctx, cols)
            if scope:
                bases.append(basis)
            return basis, pivots

        def scoped(*args):
            scope.append(True)
            try:
                return inner(*args)
            finally:
                scope.pop()

        def counted_contains(self, vec):
            memberships.append(vec)
            return contains(self, vec)

        monkeypatch.setattr(padic, "_echelon_columns", counted_engine)
        monkeypatch.setattr(galois, "_sums_of_atoms", scoped)
        monkeypatch.setattr(Lattice, "contains", counted_contains)
        got = {lat.basis for lat in stable_submodules(rep, n)}
        assert len(set(bases)) == len(bases)
        assert set(bases) <= got
        if (ell, n, d) in self.PINNED and s % (ell * ell):
            assert len(bases) == self.PINNED[(ell, n, d)]
        if (ell, n, d) == (2, 3, 2) and s % (ell * ell):
            assert 0 < len(memberships) <= 2400


class TestClosedForms:
    """node_lattice against the echelon passes it replaced."""

    @pytest.mark.parametrize("ell, n, d, s", list(_admitted_searches()))
    def test_every_kernel_and_node(self, ell, n, d, s):
        rep = build_rep(ell, d, s, max(4, n + 2))
        for kernel in stable_submodules(rep, n):
            node = node_lattice(rep, kernel, n)
            want = oracles.node_lattice_by_single_divisions(rep, kernel, n)
            assert (node.basis, node.pivots) == (want.basis, want.pivots)

    def test_node_refuses_a_kernel_of_another_level(self):
        rep = build_rep(2, 1, 2, 5)
        kernel = Lattice.from_generators(PadicContext(2, 2), 2, [(1, 1)])
        with pytest.raises(ValueError, match="level n"):
            node_lattice(rep, kernel, 1)
        assert node_lattice(rep, kernel, 2).basis == ((1, 1), (0, 4))

    def test_work_counts_of_one_search(self, monkeypatch):
        """isogeny-maximal --ell 2 --s 2 --n 2: sigma mod l takes no
        echelon pass, a node at most two per kernel, and no unit inverted
        is 1."""
        scope = []
        passes = {"node_lattice": [], "sigma_trivial_mod_ell": []}
        units = []
        engine = padic._echelon_columns
        invert = PadicContext.invert_unit

        def counted_engine(ctx, cols):
            if scope:
                passes[scope[-1]][-1] += 1
            return engine(ctx, cols)

        def scoped(name):
            inner = getattr(galois, name)

            def run(*args):
                scope.append(name)
                passes[name].append(0)
                try:
                    return inner(*args)
                finally:
                    scope.pop()
            return run

        def recorded_invert(self, u):
            units.append(u)
            return invert(self, u)

        monkeypatch.setattr(padic, "_echelon_columns", counted_engine)
        monkeypatch.setattr(PadicContext, "invert_unit", recorded_invert)
        for name in passes:
            monkeypatch.setattr(galois, name, scoped(name))
        report, status = cli.run(
            ["isogeny-maximal", "--ell", "2", "--s", "2", "--n", "2"])
        assert status == 0
        assert passes["sigma_trivial_mod_ell"]
        assert set(passes["sigma_trivial_mod_ell"]) == {0}
        assert passes["node_lattice"] and max(passes["node_lattice"]) <= 2
        assert units and 1 not in units


class TestOrbitWalk:
    """One closure per orbit of <sigma, tau> x units, with the atoms that
    closing every unit-orbit representative keeps."""

    # (l, n, d) -> closures per search at s = l (1,095, 1,120, 135 and 156
    # when every unit-orbit representative was closed)
    PINNED = {(2, 3, 2): 108, (3, 2, 2): 144, (2, 2, 2): 36, (5, 1, 2): 48}

    @pytest.mark.parametrize("ell, n, d", list(PINNED))
    def test_closures_per_search(self, monkeypatch, ell, n, d):
        calls = []
        atom = galois._atom

        def counted(algebra, vec):
            calls.append(vec)
            return atom(algebra, vec)

        monkeypatch.setattr(galois, "_atom", counted)
        stable_submodules(build_rep(ell, d, ell, max(4, n + 2)), n)
        assert len(calls) == len(set(calls)) == self.PINNED[(ell, n, d)]

    @pytest.mark.parametrize("ell, n, d, s", list(_admitted_searches()))
    def test_same_atoms_as_closing_every_representative(self, monkeypatch,
                                                        ell, n, d, s):
        rep = build_rep(ell, d, s, max(4, n + 2))
        kept = []

        def recorded(ctx, rank, atoms):
            kept.extend((lat.basis, vec) for lat, vec in atoms)
            return []

        monkeypatch.setattr(galois, "_sums_of_atoms", recorded)
        stable_submodules(rep, n)
        want = oracles.atoms_by_every_representative(rep, n)
        assert kept == [(lat.basis, vec) for lat, vec in want]

    @pytest.mark.parametrize("ell, n, rank", [(2, 3, 2), (3, 2, 2),
                                              (5, 1, 3), (2, 2, 3)])
    def test_representatives_are_their_unit_normal_forms(self, ell, n, rank):
        ctx = PadicContext(ell, n)
        q = ctx.modulus
        units = [u for u in range(q) if u % ell]
        for vec in _orbit_representatives(ell, n, rank):
            for u in units:
                assert _unit_normal(ctx, tuple(u * x % q for x in vec)) == vec
        with pytest.raises(AssertionError, match="zero vector"):
            _unit_normal(ctx, (0,) * rank)


class TestSigmaTrivialClosedForm:
    @pytest.mark.parametrize("ell, n, d, s", list(_admitted_searches()))
    def test_matches_the_matrix_product(self, ell, n, d, s):
        """One membership in the node per column agrees with sigma b - b
        through the matrix tested in l * L, on the node of every kernel of
        the search."""
        rep = build_rep(ell, d, s, max(4, n + 2))
        for kernel in stable_submodules(rep, n):
            node = node_lattice(rep, kernel, n)
            assert (sigma_trivial_mod_ell(rep, node)
                    == oracles.sigma_trivial_by_matrix(rep, node))

    def test_lattice_below_full_rank_refused(self):
        """l z in l L and z in L agree only when L contains l^(N-1) T."""
        rep = build_rep(2, 1, 2, 5)
        line = Lattice.from_generators(rep.ctx, 2, [(1, 1)])
        with pytest.raises(ValueError, match="full rank"):
            sigma_trivial_mod_ell(rep, line)
