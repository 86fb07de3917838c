"""Tests for ramification filtrations, transition functions, and towers."""

import random
import time
from fractions import Fraction

import pytest

from semistable_lab.ramification import (
    RamFiltration,
    TowerData,
    check_break_bound,
    check_tower_equivalence,
    conductor_exponent,
    herbrand_phi,
    herbrand_psi,
    upper_jumps,
)

from oracles import (
    RamProfile,
    controlled_predicate,
    is_trivial,
    phi_by_integration,
    psi_by_steps,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def random_ell_chain(rng: random.Random, ell: int, max_exp: int = 3) -> tuple[int, ...]:
    """Non-increasing chain of ell-powers with the first two entries equal."""
    e = rng.randint(0, max_exp)
    exps = [e, e]
    while exps[-1] > 0:
        exps.append(rng.randint(0, exps[-1]))
    return tuple(ell**k for k in exps)


def random_rational(rng: random.Random, max_num: int = 40, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


class TestFiltrationValidation:
    def test_normalization(self):
        assert RamFiltration((4, 1, 1, 1)).orders == (4, 1)
        assert RamFiltration((4,)).orders == (4, 1)
        assert RamFiltration(()).orders == (1,)
        assert RamFiltration((1, 1, 1)).orders == (1,)
        assert RamFiltration((2,) + (1,) * 2048).orders == (2, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            RamFiltration((2, 4, 1))

    def test_rejects_nondividing(self):
        with pytest.raises(ValueError):
            RamFiltration((6, 4, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RamFiltration((4, 0))
        with pytest.raises(ValueError):
            RamFiltration((-2, 1))

    def test_order_extension(self):
        f = RamFiltration((4, 2, 1))
        assert [f.order(i) for i in range(6)] == [4, 2, 1, 1, 1, 1]
        with pytest.raises(ValueError):
            f.order(-1)

    def test_last_break(self):
        assert RamFiltration((4, 2, 1)).last_break == 1
        assert RamFiltration((2, 1)).last_break == 0
        assert RamFiltration.trivial().last_break is None
        assert is_trivial(RamFiltration.trivial())
        assert not is_trivial(RamFiltration((2, 1)))


class TestHerbrandPhi:
    def test_tame_value_all_small_primes(self):
        for ell in SMALL_PRIMES:
            f = RamFiltration((ell - 1, 1))
            assert herbrand_phi(f, 1) == Fraction(1, ell - 1)

    def test_trivial_is_identity(self):
        f = RamFiltration.trivial()
        for u in (0, 1, Fraction(7, 3), 10):
            assert herbrand_phi(f, u) == Fraction(u)

    def test_two_adic_quartic_values(self):
        # slope is 1 up to u = 1 (G_1 = G_0), then 1/2: phi(2) = 3/2,
        # and only the longer filtration [2,2,2,1] reaches phi(2) = 2
        assert herbrand_phi(RamFiltration((2, 2, 1)), 2) == Fraction(3, 2)
        assert herbrand_phi(RamFiltration((2, 2, 2, 1)), 2) == 2

    def test_matches_integration_oracle(self):
        rng = random.Random(411)
        for _ in range(300):
            ell = rng.choice((2, 3, 5))
            f = RamFiltration(random_ell_chain(rng, ell))
            u = random_rational(rng)
            assert herbrand_phi(f, u) == phi_by_integration(f.orders, u)

    def test_zero_and_negative(self):
        f = RamFiltration((4, 2, 1))
        assert herbrand_phi(f, 0) == 0
        with pytest.raises(ValueError):
            herbrand_phi(f, -1)

    def test_increasing_and_concave(self):
        rng = random.Random(412)
        for _ in range(60):
            f = RamFiltration(random_ell_chain(rng, rng.choice((2, 3, 5)), 4))
            values = [herbrand_phi(f, Fraction(k, 2)) for k in range(12)]
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert all(d > 0 for d in diffs)
            assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))


class TestHerbrandPsi:
    def test_roundtrip(self):
        rng = random.Random(413)
        for _ in range(200):
            f = RamFiltration(random_ell_chain(rng, rng.choice((2, 3, 5))))
            u = random_rational(rng)
            y = random_rational(rng, max_num=20)
            assert herbrand_psi(f, herbrand_phi(f, u)) == u
            assert herbrand_phi(f, herbrand_psi(f, y)) == y

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            herbrand_psi(RamFiltration.trivial(), -1)

    def test_tail_past_the_last_break_in_closed_form(self):
        # past the last break phi has slope 1/|G_0|: psi(60) = 60 |G_0|,
        # with no walk over the 60 * 5^12 integers below it
        t0 = time.perf_counter()
        assert herbrand_psi(RamFiltration((5**12, 1)), 60) == 60 * 5**12
        assert time.perf_counter() - t0 < 0.1


def random_divisor_chain(rng: random.Random, top: int) -> tuple[int, ...]:
    """Chain from top down to 1, each order a divisor of the previous one,
    repeats allowed: the ratios need not be prime powers."""
    chain = [top, top]
    while chain[-1] > 1:
        chain.append(rng.choice([d for d in range(1, chain[-1] + 1)
                                 if chain[-1] % d == 0]))
    return tuple(chain)


def every_ratio_shape(rng: random.Random):
    """Seeded filtrations of each shape: l-power chains, non-prime-power
    ratios, flat chains of at least 500 orders, and the powers 2^k, ..., 1."""
    yield (1,)
    for _ in range(30):
        yield random_ell_chain(rng, rng.choice((2, 3, 5, 7)), 4)
    yield (12, 6, 2, 1)
    for _ in range(30):
        yield random_divisor_chain(rng, rng.choice((12, 60, 360, 720)))
    for length in (500, rng.randint(501, 700)):
        yield (4,) + (2,) * (length - 2) + (1,)
    for k in (1, 2, 7, 20):
        yield tuple(2**i for i in range(k, -1, -1))


class TestClosedForms:
    """phi and psi read from the prefix sums, against the integration and
    step-walk oracles on every ratio shape."""

    def test_against_the_oracles(self):
        rng = random.Random(418)
        for chain in every_ratio_shape(rng):
            f = RamFiltration(chain + (1,) * rng.randint(0, 2))
            breaks = [i for i, o in enumerate(chain) if o > 1]
            assert f.last_break == (breaks[-1] if breaks else None), chain
            c = f.last_break or 0
            # half-integers before, at and past the last break, and a few
            # anywhere up to three past it
            points = [Fraction(k, 2) for k in range(max(0, 2 * c - 2), 2 * c + 7)]
            points += [Fraction(rng.randint(0, 2 * c + 6), 2) for _ in range(4)]
            for u in points:
                y = herbrand_phi(f, u)
                assert y == phi_by_integration(f.orders, u), (chain, u)
                assert herbrand_psi(f, y) == psi_by_steps(f.orders, y) == u
            # psi at half-integers too, from 0 up to phi(c + 3)
            top = int(2 * herbrand_phi(f, c + 3))
            for k in {0, top, *(rng.randint(0, top) for _ in range(6))}:
                y = Fraction(k, 2)
                assert herbrand_psi(f, y) == psi_by_steps(f.orders, y), (chain, y)

    def test_sums_are_the_prefix_sums(self):
        f = RamFiltration((12, 6, 2, 1, 1))
        assert f.sums == (0, 6, 8, 9)
        assert RamFiltration.trivial().sums == (0,)
        # a cached value on the instance, outside equality, hash and repr
        assert f == RamFiltration((12, 6, 2, 1))
        assert hash(f) == hash(RamFiltration((12, 6, 2, 1)))
        assert repr(f) == "RamFiltration(orders=(12, 6, 2, 1), base_field_tag='')"

    def test_far_tail_in_constant_time(self):
        f = RamFiltration((4, 2, 1))
        t0 = time.perf_counter()
        # phi(u) = (u + 1) / 4 from u = 2 on
        assert herbrand_phi(f, 10**6) == Fraction(10**6 + 1, 4)
        assert herbrand_psi(f, 10**6) == 4 * 10**6 - 1
        assert time.perf_counter() - t0 < 0.1


class TestUpperJumps:
    def test_frozen_cases(self):
        assert upper_jumps(RamFiltration((2, 2, 1))) == [1]
        assert upper_jumps(RamFiltration((4, 1))) == [0]
        assert upper_jumps(RamFiltration.trivial()) == []
        assert upper_jumps(RamFiltration((4, 2, 2, 1))) == [0, 1]
        assert upper_jumps(RamFiltration((9, 3, 3, 1))) == [0, Fraction(2, 3)]

    def test_jumps_strictly_increase(self):
        rng = random.Random(414)
        for _ in range(100):
            f = RamFiltration(random_ell_chain(rng, rng.choice((2, 3, 5)), 4))
            jumps = upper_jumps(f)
            assert all(a < b for a, b in zip(jumps, jumps[1:]))
            if f.last_break is not None:
                assert jumps[-1] == herbrand_phi(f, f.last_break)


class TestConductor:
    def test_frozen_cases(self):
        assert conductor_exponent(RamFiltration.trivial()) == 0
        assert conductor_exponent(RamFiltration((2, 2, 1))) == 2
        for ell in SMALL_PRIMES[1:]:
            assert conductor_exponent(RamFiltration((ell - 1, 1))) == 1
        # at ell = 2 the "tame part" is the trivial group, hence unramified
        assert conductor_exponent(RamFiltration((1, 1))) == 0
        assert conductor_exponent(RamFiltration((3, 3, 3, 1))) == 3

    def test_small_conductor_iff_second_group_trivial(self):
        # for a wild chain with G_0 = G_1, f <= 2 exactly when G_2 = 1
        rng = random.Random(415)
        for _ in range(200):
            f = RamFiltration(random_ell_chain(rng, rng.choice((2, 3, 5))))
            assert (conductor_exponent(f) <= 2) == (f.order(2) == 1)


class TestBreakBound:
    def test_frozen_cases(self):
        for ell in SMALL_PRIMES:
            assert check_break_bound(RamFiltration((ell - 1, 1)), ell)
        # phi(1) = 1 sits exactly at 1/(2-1): the tie is allowed
        assert check_break_bound(RamFiltration((2, 2, 1)), 2)
        assert not check_break_bound(RamFiltration((2, 2, 2, 1)), 2)

    def test_trivial_always_passes(self):
        for ell in SMALL_PRIMES:
            assert check_break_bound(RamFiltration.trivial(), ell)

    def test_bad_ell(self):
        with pytest.raises(ValueError):
            check_break_bound(RamFiltration.trivial(), 1)

    @pytest.mark.parametrize("ell", [4, 9])
    def test_composite_ell_refused(self, ell):
        # 1/(ell - 1) is no break bound when ell is not prime
        with pytest.raises(ValueError, match=f"ell must be prime, got {ell}"):
            check_break_bound(RamFiltration((4, 2, 1)), ell)


def make_total(ell: int, h_orders: tuple[int, ...]) -> RamFiltration:
    """Attach the full tame layer of degree ell - 1 on top of a wild chain."""
    return RamFiltration(((ell - 1) * h_orders[0],) + h_orders[1:])


def composed_tower(rng: random.Random, ell: int) -> TowerData:
    """Random tower with nontrivial sub and quotient layers.

    The quotient multiplier may only drop where the sub-layer transition
    function takes an integer value, which is exactly the consistency rule
    the constructor enforces.
    """
    n = RamFiltration(random_ell_chain(rng, ell, 2))
    m = ell ** rng.randint(0, 2)
    h = [n.order(0) * m, n.order(1) * m]
    x = 1
    while m > 1 or n.order(x) > 1:
        if herbrand_phi(n, x).denominator == 1 and m > 1:
            if x > 10 or rng.random() < 0.4:
                m //= ell ** rng.randint(1, max(1, m.bit_length() // ell.bit_length()))
        x += 1
        h.append(n.order(x) * m)
        if x > 60:  # the integral positions recur, so this cannot trigger
            raise AssertionError("tower generator failed to terminate")
    return TowerData(make_total(ell, tuple(h)), n)


class TestTowerExamples:
    def test_tame_only(self):
        t = TowerData(RamFiltration((4, 1)), RamFiltration.trivial())
        rep = check_tower_equivalence(t, 5)
        assert is_trivial(t.quotient)
        assert rep.l4_holds and rep.f_top == 0 and rep.f_bottom == 0
        assert rep.equivalence_witnessed

    def test_two_adic_quartic_over_base(self):
        t = TowerData(RamFiltration((2, 2, 1)), RamFiltration.trivial())
        assert t.quotient.orders == (2, 2, 1)
        rep = check_tower_equivalence(t, 2)
        assert rep.l4_holds and rep.f_top == 0 and rep.f_bottom == 2
        assert rep.equivalence_witnessed

    def test_three_adic_wild_cube(self):
        t = TowerData(RamFiltration((6, 3, 3, 1)), RamFiltration((3, 3, 3, 1)))
        assert is_trivial(t.quotient)
        rep = check_tower_equivalence(t, 3)
        assert not rep.l4_holds
        assert rep.f_top == 3 and rep.f_bottom == 0
        assert rep.equivalence_witnessed

    def test_split_wild_square(self):
        # both floors carry a step; the total break sits exactly at the bound
        t = TowerData(RamFiltration((18, 9, 1)), RamFiltration((3, 3, 1)))
        assert t.quotient.orders == (3, 3, 1)
        rep = check_tower_equivalence(t, 3)
        assert rep.l4_holds
        assert rep.f_top == 2 and rep.f_bottom == 2
        assert rep.equivalence_witnessed

    def test_explicit_quotient_checked(self):
        t = TowerData(
            RamFiltration((2, 2, 1)),
            RamFiltration.trivial(),
            RamFiltration((2, 2, 1)),
        )
        assert t.quotient.orders == (2, 2, 1)
        with pytest.raises(ValueError, match="does not match derived"):
            TowerData(
                RamFiltration((2, 2, 1)),
                RamFiltration.trivial(),
                RamFiltration((2, 1)),
            )


class TestTowerValidation:
    def test_sub_with_tame_part_rejected(self):
        with pytest.raises(ValueError, match="tame quotient"):
            TowerData(RamFiltration((6, 3, 3, 1)), RamFiltration((6, 3, 1)))

    def test_nondividing_sub_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            TowerData(RamFiltration((6, 3, 1)), RamFiltration((2, 2, 1)))
        # the sub outlasts the ambient group: n(2) = 2 against h(2) = 1
        with pytest.raises(ValueError, match="does not divide"):
            TowerData(RamFiltration((2, 2)), RamFiltration((2, 2, 2)))

    def test_overlarge_sub_rejected(self):
        with pytest.raises(ValueError):
            TowerData(RamFiltration((6, 3, 1)), RamFiltration((9, 9, 1)))

    def test_nonintegral_quotient_jump_rejected(self):
        # every pointwise divisibility condition holds, yet the quotient
        # would have to jump at 5/3; no group tower realizes these orders
        with pytest.raises(ValueError, match="non-integer"):
            TowerData(RamFiltration((18, 9, 3, 3, 1)), RamFiltration((3, 3, 1)))

    def test_sub_not_embedding_stepwise_rejected(self):
        # |N_1/N_2| = 3 cannot embed in |H_1/H_2| = 1
        with pytest.raises(ValueError):
            TowerData(RamFiltration((6, 3, 3, 3, 1)), RamFiltration((3, 3, 3, 1)))

    def test_equivalence_checker_validates_shape(self):
        t = TowerData(RamFiltration((2, 2, 1)), RamFiltration.trivial())
        with pytest.raises(ValueError, match="tame degree"):
            check_tower_equivalence(t, 3)
        with pytest.raises(ValueError, match="prime"):
            check_tower_equivalence(t, 4)
        bad_wild = TowerData(RamFiltration((8, 2, 1)), RamFiltration.trivial())
        with pytest.raises(ValueError, match="not a power"):
            check_tower_equivalence(bad_wild, 5)


def assert_tower_properties(t: TowerData, ell: int) -> None:
    rep = check_tower_equivalence(t, ell)
    assert rep.equivalence_witnessed
    # under tower validity the break bound is exactly "no wild part past 1"
    assert rep.l4_holds == (t.total.order(2) == 1)

    h = RamFiltration((t.total.order(1),) + t.total.orders[1:])
    n, q = t.sub, t.quotient
    span = len(h.orders) + len(n.orders) + 2
    for x in range(span):
        pos = herbrand_phi(n, x)
        ceil_pos = -(-pos.numerator // pos.denominator)
        quotient_trivial_here = q.order(ceil_pos) == 1
        assert (h.order(x) == 1) == (n.order(x) == 1 and quotient_trivial_here)
    # transition functions compose through the tower
    for k in range(0, 2 * span, 3):
        u = Fraction(k, 3)
        assert herbrand_phi(q, herbrand_phi(n, u)) == herbrand_phi(h, u)


class TestRandomTowers:
    def test_sub_trivial_family(self):
        rng = random.Random(416)
        for _ in range(60):
            ell = rng.choice((2, 3, 5))
            h = random_ell_chain(rng, ell)
            t = TowerData(make_total(ell, h), RamFiltration.trivial())
            assert t.quotient.orders == RamFiltration(h).orders
            assert_tower_properties(t, ell)

    def test_sub_full_family(self):
        rng = random.Random(417)
        for _ in range(60):
            ell = rng.choice((2, 3, 5))
            h = random_ell_chain(rng, ell)
            t = TowerData(make_total(ell, h), RamFiltration(h))
            assert is_trivial(t.quotient)
            assert_tower_properties(t, ell)

    def test_composed_family(self):
        rng = random.Random(418)
        nontrivial_both = 0
        for _ in range(120):
            ell = rng.choice((2, 3, 5))
            t = composed_tower(rng, ell)
            if not is_trivial(t.sub) and not is_trivial(t.quotient):
                nontrivial_both += 1
            assert_tower_properties(t, ell)
        assert nontrivial_both > 20

    def test_rejection_family(self):
        # arbitrary divisor chains: whatever the constructor accepts must
        # still witness the equivalence
        rng = random.Random(419)
        accepted = 0
        for _ in range(400):
            ell = rng.choice((2, 3))
            h = random_ell_chain(rng, ell)
            n = []
            for i, o in enumerate(h):
                cap = n[-1] if n else o
                divisors = [d for d in (ell**k for k in range(8)) if o % d == 0 and d <= cap]
                n.append(rng.choice(divisors))
            n[0] = n[1] = min(n[0], n[1])
            try:
                t = TowerData(make_total(ell, h), RamFiltration(tuple(n)))
            except ValueError:
                continue
            accepted += 1
            assert_tower_properties(t, ell)
        assert accepted > 40


class TestCyclicModel:
    """Towers built from actual subgroups of a cyclic group.

    In a cyclic group every intersection and join is determined by gcd and
    lcm of orders, so the filtration of N and the quotient positions can be
    computed without any of the library's tower machinery.
    """

    def test_matches_direct_construction(self):
        rng = random.Random(420)
        checked = 0
        for _ in range(300):
            ell = rng.choice((2, 3, 5))
            g = random_ell_chain(rng, ell)  # orders of G_x for x >= 1
            m = ell ** rng.randint(0, len(g))
            if g[0] % m:
                continue
            n_orders = tuple(min(m, gx) for gx in g)  # gcd of ell-powers
            total = make_total(ell, g)
            sub = RamFiltration(n_orders)
            values = [gx // min(m, gx) for gx in g] + [1]
            drops = [
                herbrand_phi(sub, x)
                for x in range(len(values) - 1)
                if values[x] > values[x + 1]
            ]
            if any(p.denominator != 1 for p in drops):
                with pytest.raises(ValueError, match="non-integer"):
                    TowerData(total, sub)
                continue
            t = TowerData(total, sub)
            checked += 1
            # assemble the quotient directly from (position, value) pairs
            expected = []
            y = 0
            while True:
                val = 1
                for pos, x in ((herbrand_phi(sub, x), x) for x in range(len(values))):
                    if pos >= y:
                        val = values[x]
                        break
                expected.append(val)
                if val == 1:
                    break
                y += 1
            assert t.quotient.orders == tuple(expected)
            assert_tower_properties(t, ell)
        assert checked > 80


class TestControlledPredicate:
    def test_unramified_profile(self):
        assert controlled_predicate(RamProfile({}, None), 3, set())
        assert controlled_predicate(RamProfile({7: 1, 11: 1}, None), 3, set())

    def test_degree_must_be_ell_over_s(self):
        assert controlled_predicate(RamProfile({41: 5}, None), 5, {41})
        assert not controlled_predicate(RamProfile({41: 25}, None), 5, {41})

    def test_ramified_outside_s_fails(self):
        assert not controlled_predicate(RamProfile({7: 5}, None), 5, {41})

    def test_ell_exempt_from_degree_condition(self):
        assert controlled_predicate(RamProfile({5: 20}, None), 5, set())

    def test_galois_flag_gates_everything(self):
        assert not controlled_predicate(
            RamProfile({}, None), 3, set(), galois_with_roots_of_unity=False
        )

    def test_break_bound_at_ell(self):
        good = RamProfile({2: 1}, RamFiltration((2, 2, 1)))
        bad = RamProfile({2: 1}, RamFiltration((2, 2, 2, 1)))
        assert controlled_predicate(good, 2, set())
        assert not controlled_predicate(bad, 2, set())

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            controlled_predicate(RamProfile({7: 0}, None), 3, {7})
