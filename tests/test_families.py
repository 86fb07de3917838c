"""Curve families: square-plus-64 pairs, box search, dagger selection."""

from itertools import product
from math import isqrt

import pytest

import oracles
from oracles import box_models_by_coefficient_tuples
from semistable_lab import cli, families
from semistable_lab.arith import is_prime, prime_power, prime_power_table
from semistable_lab.curves import (
    SingularCurveError,
    WeierstrassCurve,
    _b_invariants,
    _disc_from_b,
    has_rational_ell_torsion,
    invariants,
    local_data,
    request_memo,
    trace_of_frobenius,
)
from semistable_lab.families import (
    EXCEPTIONAL_PRIME,
    EXCEPTIONAL_SEED,
    SEEDS,
    conductor_congruence,
    dagger_report,
    identify_dagger,
    miyawaki_search,
    ns_enumerate,
    ord_at,
    two_torsion_field_unramified_at,
)


class TestNsEnumerate:
    def test_frozen_up_to_200(self):
        pairs = ns_enumerate(200)
        assert [(q.p, q.u) for q in pairs] == [(73, -3), (89, 5), (113, -7)]
        assert pairs[0].disc_p.coefficients() == (1, -1, 0, -1, 0)
        assert pairs[0].disc_p_squared.coefficients() == (1, -1, 0, 4, -3)
        assert pairs[1].disc_p.coefficients() == (1, 1, 0, -1, 0)
        assert pairs[2].disc_p_squared.coefficients() == (1, -2, 0, 4, -7)

    def test_empty_below_first_prime(self):
        assert ns_enumerate(72) == []

    def test_frozen_up_to_10000(self):
        pairs = ns_enumerate(10000)
        assert len(pairs) == 19
        assert [q.p for q in pairs[:6]] == [73, 89, 113, 233, 353, 593]
        assert all(q.p % 8 == 1 for q in pairs)

    def test_pair_structure(self):
        for q in ns_enumerate(3000):
            assert q.u % 4 == 1
            assert q.p == q.u * q.u + 64
            assert invariants(q.disc_p).disc == q.p
            assert invariants(q.disc_p_squared).disc == -q.p * q.p
            assert trace_of_frobenius(q.disc_p, 2) % 2 == 1
            assert local_data(q.disc_p, q.p).kind == "multiplicative"
            assert local_data(q.disc_p_squared, q.p).kind == "multiplicative"

    def test_ordered_by_p(self):
        ps = [q.p for q in ns_enumerate(10000)]
        assert ps == sorted(ps)

    def test_sieve_keeps_every_prime(self):
        """Near each u^2 + 64 up to u = 59, where the sieve's prime limit
        min(2000, u_max) moves and u^2 + 64 = q is kept, across u_max =
        2,000, and at 10^k up to 10^7."""
        bounds = ({u * u + 64 + k for u in range(60) for k in (-1, 0)}
                  | {2000**2 + 63, 2000**2 + 64, 2001**2 + 64}
                  | {10**k for k in range(2, 8)})
        for bound in sorted(bounds):
            assert ([q.p for q in ns_enumerate(bound)]
                    == oracles.square_plus_64_primes(bound)), bound


    def test_work_at_10_6(self, monkeypatch):
        """The sieve strikes every u with a prime q = 1 mod 4, q < 2,000,
        dividing u^2 + 64, so 368 primality tests (the sieve's own and the
        survivors') find the 119 pairs; a sieve that struck nothing would
        find the same pairs with more tests."""
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(families, "is_prime", counted)
        assert len(ns_enumerate(10**6)) == 119
        assert len(calls) == 368


class TestMiyawakiSearch:
    def test_frozen_hits(self):
        assert {
            p: [c.coefficients() for c in cs] for p, cs in miyawaki_search(3).items()
        } == {19: [(0, 1, 1, 1, 0)], 37: [(0, 1, 1, -3, 1)]}
        assert {
            p: [c.coefficients() for c in cs] for p, cs in miyawaki_search(5).items()
        } == {11: [(0, -1, 1, 0, 0)]}
        assert miyawaki_search(7) == {}

    def test_hits_verify_their_defining_properties(self):
        for ell in (3, 5):
            for p, curves in miyawaki_search(ell).items():
                assert conductor_congruence(ell, p)
                for e in curves:
                    disc = abs(invariants(e).disc)
                    assert p ** ord_at(disc, p) == disc
                    assert local_data(e, p).kind == "multiplicative"
                    assert has_rational_ell_torsion(e, ell)[0]

    def test_smaller_box_is_a_subset(self):
        small = set(miyawaki_search(3, 4))
        assert small <= set(miyawaki_search(3, 8))
        assert small == {19, 37}  # both witnesses already fit in the tiny box

    def test_even_or_large_ell_rejected(self):
        with pytest.raises(ValueError):
            miyawaki_search(2)
        with pytest.raises(ValueError):
            miyawaki_search(11)


def per_model_survivors(coeff_bound):
    """The box filter done model by model: build every nonsingular curve,
    take its invariants, keep (curve, p, c4, disc) when |disc| = p^k with p
    not dividing c4."""
    out = []
    span = range(-coeff_bound, coeff_bound + 1)
    for a1 in (0, 1):
        for a2 in (-1, 0, 1):
            for a3 in (0, 1):
                for a4 in span:
                    for a6 in span:
                        try:
                            e = WeierstrassCurve(a1, a2, a3, a4, a6)
                        except SingularCurveError:
                            continue
                        inv = invariants(e)
                        pk = prime_power(abs(inv.disc))
                        if pk is None or inv.c4 % pk[0] == 0:
                            continue
                        out.append((e, pk[0], inv.c4, inv.disc))
    return out


@pytest.fixture(scope="module")
def box_12():
    return per_model_survivors(12)


class TestBoxFilter:
    def test_survivors_match_the_per_model_route(self, box_12):
        for bound in range(11):
            expected = [model for model in box_12
                        if abs(model[0].a4) <= bound
                        and abs(model[0].a6) <= bound]
            assert families._prime_power_models(bound) == tuple(expected)
        assert len(families._prime_power_models(8)) == 400

    def test_a6_quadratic_is_the_discriminant(self):
        # every model with |a4|, |a6| <= 8, so every box B = 0..8, survivor
        # or not; a singular model's quadratic must vanish
        span = range(-8, 9)
        for a1, a2, a3, a4 in product((0, 1), (-1, 0, 1), (0, 1), span):
            c4, d0, d1 = families._a6_quadratic(a1, a2, a3, a4)
            for a6 in span:
                disc = d0 + a6 * (d1 - 432 * a6)
                try:
                    inv = invariants(WeierstrassCurve(a1, a2, a3, a4, a6))
                except SingularCurveError:
                    assert disc == 0
                    continue
                assert (disc, c4) == (inv.disc, inv.c4)

    def test_hoisted_b_invariants_match_the_coefficient_tuple_loop(self):
        for bound in range(13):
            assert (families._prime_power_models(bound)
                    == box_models_by_coefficient_tuples(bound))

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_hits_match_the_per_model_loop(self, box_12, ell):
        by_j = {}
        for e, p, _c4, _disc in box_12:
            if has_rational_ell_torsion(e, ell)[0]:
                by_j.setdefault(p, {})[invariants(e).j] = e
        hits = miyawaki_search(ell, 12)
        assert list(hits) == sorted(by_j)
        assert {p: {invariants(e).j: e for e in cs}
                for p, cs in hits.items()} == by_j

    def test_last_model_stands_for_its_j(self, monkeypatch):
        # two models with 3-torsion, posed as sharing p and j
        first = WeierstrassCurve(0, 1, 1, -3, 1)
        last = WeierstrassCurve(0, 1, 1, 1, 0)
        monkeypatch.setattr(families, "_prime_power_models",
                            lambda bound: ((first, 19, 1, 1),
                                           (last, 19, 1, 1)))
        assert miyawaki_search(3) == {19: [last]}

    def test_filtered_once_per_request_and_bound(self, monkeypatch):
        calls = []
        inner = families._prime_power_models

        def counted(bound):
            calls.append(bound)
            return inner(bound)

        monkeypatch.setattr(families, "_prime_power_models", counted)
        _, status = cli.run(["paper-suite"])
        assert status == 0
        assert len(calls) == 1  # paper-suite's three searches share one
        calls.clear()
        assert miyawaki_search(3, 4) == miyawaki_search(3, 4)
        assert calls == [4, 4]  # outside a request nothing is kept
        calls.clear()
        with request_memo():
            miyawaki_search(3, 4)
            miyawaki_search(3, 4)
        assert calls == [4]


class TestBoxDiscBound:
    """The prime-power table of the box filter reaches every discriminant
    of every admitted box, and agrees with prime_power at the top."""

    def test_bound_covers_every_admitted_box(self):
        limit = families._BOX_LIMIT
        # top[m]: the largest |disc| of the models with max(|a4|, |a6|) = m
        top = [0] * (limit + 1)
        span = range(-limit, limit + 1)
        for coeffs in product((0, 1), (-1, 0, 1), (0, 1), span, span):
            m = max(abs(coeffs[3]), abs(coeffs[4]))
            top[m] = max(top[m], abs(_disc_from_b(*_b_invariants(coeffs))))
        for bound in range(limit + 1):
            assert max(top[:bound + 1]) <= families._box_disc_bound(bound)
        assert families._box_disc_bound(8) == 96_777 < 2**17
        assert families._box_disc_bound(limit) == 3_054_057

    def test_table_matches_prime_power_at_the_top_of_the_limit(self):
        limit = families._box_disc_bound(families._BOX_LIMIT)
        sieve, powers = prime_power_table(limit)
        for n in range(limit - 4000, limit + 1):
            pk = prime_power(n)
            assert (n if sieve[n] else powers.get(n)) == (pk and pk[0]), n
        # the largest prime square and the largest powers of 2 and 3
        p = max(q for q in range(isqrt(limit) + 1) if is_prime(q))
        for q, k in ((p, 2), (2, 21), (3, 13)):
            assert q**k <= limit < q**(k + 1) and powers[q**k] == q


class TestSeeds:
    def test_seed_table(self):
        assert SEEDS == {
            (2, 17): EXCEPTIONAL_SEED,
            (3, 19): WeierstrassCurve(0, 1, 1, 1, 0),
            (3, 37): WeierstrassCurve(0, 1, 1, -3, 1),
            (5, 11): WeierstrassCurve(0, -1, 1, 0, 0),
        }

    def test_odd_seeds_agree_with_the_box_search(self):
        for (ell, p), seed in SEEDS.items():
            if ell > 2:
                assert seed in miyawaki_search(ell)[p]


class TestDaggerReports:
    def test_frozen_reports(self):
        expected = {
            (2, 17): ((1, -1, 1, -1, -14), 4, (1, 1, 2, 4), True),
            (2, 73): ((1, -1, 0, 4, -3), 2, (1, 2), True),
            (3, 19): ((0, 1, 1, -9, -15), 3, (1, 1, 3), None),
            (3, 37): ((0, 1, 1, -23, -50), 3, (1, 1, 3), None),
            (5, 11): ((0, -1, 1, -10, -20), 5, (1, 1, 5), None),
        }
        for (ell, p), (dag, v, vals, signal) in expected.items():
            r = dagger_report(ell, p)
            assert r.dagger.coefficients() == dag
            assert r.dagger_valuation == v
            assert r.valuations == vals
            assert r.congruence_ok
            assert r.unramified_signal is signal

    def test_exceptional_prime_wiring(self):
        r = dagger_report(2, EXCEPTIONAL_PRIME)
        assert r.seed == EXCEPTIONAL_SEED
        assert len(r.members) == 4

    def test_dagger_valuation_is_ell_on_generic_families(self):
        for ell, p in ((2, 73), (2, 89), (2, 113), (3, 19), (3, 37), (5, 11)):
            assert dagger_report(ell, p).dagger_valuation == ell

    def test_ambiguous_class_is_an_error(self):
        # at ell = 3 the conductor-11 class has no member with 3 | ord_p(disc)
        members = dagger_report(5, 11).members
        with pytest.raises(ValueError, match="unique"):
            identify_dagger(members, 3, 11)

    def test_unknown_seeds_rejected(self):
        with pytest.raises(ValueError, match="u\\^2"):
            dagger_report(2, 11)
        with pytest.raises(ValueError, match="no seed"):
            dagger_report(3, 11)
        with pytest.raises(ValueError, match="no seed"):
            dagger_report(5, 19)


class TestConductorCongruence:
    def test_values(self):
        assert conductor_congruence(2, 17)
        assert conductor_congruence(2, 73)
        assert not conductor_congruence(2, 7)
        assert not conductor_congruence(2, 19)  # 19 = 3 mod 8
        assert conductor_congruence(3, 19)
        assert not conductor_congruence(3, 5)
        assert conductor_congruence(5, 11)
        assert conductor_congruence(7, 29)
        assert not conductor_congruence(7, 13)


class TestTwoTorsionFieldProxy:
    def test_daggers_pass(self):
        assert two_torsion_field_unramified_at(WeierstrassCurve(1, -1, 1, -1, -14), 17)
        assert two_torsion_field_unramified_at(WeierstrassCurve(1, -1, 0, 4, -3), 73)

    def test_odd_valuation_members_fail(self):
        assert not two_torsion_field_unramified_at(WeierstrassCurve(1, -1, 0, -1, 0), 73)
        assert not two_torsion_field_unramified_at(WeierstrassCurve(1, -1, 1, -1, 0), 17)

    def test_even_valuation_without_splitting_fails(self):
        # good reduction at 5, but the cubic keeps an irreducible quadratic
        assert not two_torsion_field_unramified_at(WeierstrassCurve(1, -1, 0, -1, 0), 5)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            two_torsion_field_unramified_at(EXCEPTIONAL_SEED, 2)
        with pytest.raises(ValueError):
            two_torsion_field_unramified_at(EXCEPTIONAL_SEED, 15)
