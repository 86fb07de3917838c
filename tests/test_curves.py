"""Weierstrass curve layer: invariants, reduction, counting, torsion, quotients."""

import random
import time
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
import sympy

from oracles import (count_points_by_enumeration, order_by_repeated_addition,
                     scale_down_by_fractions, transform,
                     velu_by_repeated_addition)
from semistable_lab import cli, curves, families, polynomials
from semistable_lab.curves import (
    LocalData,
    SingularCurveError,
    WeierstrassCurve,
    add_points,
    count_points,
    division_poly,
    has_rational_ell_torsion,
    hyperelliptic_odd_disc,
    invariants,
    is_ordinary,
    isogeny_class,
    local_data,
    multiply_point,
    negate,
    on_curve,
    point_order,
    reduce_model,
    trace_of_frobenius,
    two_division_poly,
    velu_quotient,
)
from semistable_lab.polynomials import peval, rational_roots

E1 = WeierstrassCurve(1, -1, 0, -1, 0)
E2 = WeierstrassCurve(1, -1, 0, 4, -3)


def random_curve(rng: random.Random, span: int = 12) -> WeierstrassCurve:
    while True:
        try:
            return WeierstrassCurve(*(rng.randint(-span, span) for _ in range(5)))
        except SingularCurveError:
            continue


def naive_count(e: WeierstrassCurve, p: int) -> int:
    # direct double loop over the affine plane, plus infinity
    total = 1
    for x in range(p):
        for y in range(p):
            lhs = (y * y + e.a1 * x * y + e.a3 * y) % p
            rhs = (x**3 + e.a2 * x * x + e.a4 * x + e.a6) % p
            total += lhs == rhs
    return total


def weil_count(e: WeierstrassCurve, p: int, k: int) -> int:
    # trace over F_{p^k} from the trace over F_p via t_k = t_1 t_{k-1} - p t_{k-2}
    t1 = p + 1 - count_points(e, p)
    prev, cur = 2, t1
    for _ in range(k - 1):
        prev, cur = cur, t1 * cur - p * prev
    return p**k + 1 - cur


def ord_at(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestInvariants:
    def test_frozen_values(self):
        inv = invariants(E1)
        assert (inv.b2, inv.b4, inv.b6, inv.b8) == (-3, -2, 0, -1)
        assert (inv.c4, inv.c6, inv.disc) == (57, 243, 73)
        assert inv.j == Fraction(185193, 73)
        inv2 = invariants(E2)
        assert (inv2.c4, inv2.disc) == (-183, -5329)
        assert inv2.j == Fraction(6128487, 5329)
        assert invariants(WeierstrassCurve(0, 0, 0, -1, 0)).disc == 64

    def test_special_j_values(self):
        assert invariants(WeierstrassCurve(0, 0, 0, 0, 1)).j == 0
        assert invariants(WeierstrassCurve(0, 0, 0, 1, 0)).j == 1728

    def test_identities_hold_on_random_curves(self):
        # invariants() asserts 4 b8 = b2 b6 - b4^2 and 1728 disc = c4^3 - c6^2
        rng = random.Random("curve-invariants")
        for _ in range(300):
            invariants(random_curve(rng))

    def test_singular_models_rejected(self):
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(0, 0, 0, 0, 0)
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(0, 0, 0, -3, 2)  # (x - 1)^2 (x + 2)

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(TypeError):
            WeierstrassCurve(0, 0, 0, Fraction(1, 2), 1)


class TestLocalData:
    def test_frozen_reduction_types(self):
        assert local_data(E1, 73) == LocalData(73, "multiplicative", 1)
        assert local_data(E2, 73) == LocalData(73, "multiplicative", 2)
        assert local_data(E1, 5) == LocalData(5, "good", 1)
        assert local_data(WeierstrassCurve(0, 0, 0, 0, 25), 5).kind == "additive"

    def test_kind_matches_divisibility(self):
        rng = random.Random("curve-local")
        for _ in range(200):
            e = random_curve(rng)
            inv = invariants(e)
            p = rng.choice((2, 3, 5, 7, 11, 13))
            data = local_data(e, p)
            if inv.disc % p:
                assert data.kind == "good"
            elif inv.c4 % p:
                assert data.kind == "multiplicative"
                assert data.component_order == ord_at(inv.disc, p)
            else:
                assert data.kind == "additive"

    def test_multiplicative_curves_have_nonintegral_j(self):
        # p not dividing c4 makes ord_p(j) = -ord_p(disc) on the nose
        for e, p in ((E1, 73), (E2, 73), (WeierstrassCurve(0, -1, 1, -10, -20), 11)):
            data = local_data(e, p)
            assert data.kind == "multiplicative"
            assert ord_at(invariants(e).j.denominator, p) == data.component_order

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            local_data(E1, 6)


class TestCounting:
    def test_frozen_counts(self):
        assert count_points(E1, 2) == 2
        assert count_points(E1, 4) == 8
        assert count_points(E1, 8) == 14
        cube = WeierstrassCurve(0, 0, 0, 0, 1)
        assert count_points(cube, 5) == 6
        assert count_points(cube, 25) == 36

    def test_frozen_traces(self):
        assert trace_of_frobenius(E1, 2) == 1
        assert trace_of_frobenius(E1, 4) == -3
        assert trace_of_frobenius(WeierstrassCurve(0, 0, 0, 0, 1), 5) == 0

    def test_ordinary_flags(self):
        assert is_ordinary(E1, 2)
        assert not is_ordinary(WeierstrassCurve(0, 0, 0, 0, 1), 5)

    def test_against_naive_count(self):
        rng = random.Random("curve-count")
        checked = 0
        while checked < 60:
            e = random_curve(rng)
            p = rng.choice((3, 5, 7, 11, 13, 17))
            if invariants(e).disc % p == 0:
                continue
            assert count_points(e, p) == naive_count(e, p)
            checked += 1

    def test_prime_power_counts_satisfy_weil_recursion(self):
        rng = random.Random("curve-weil")
        cases = [(E1, 2, 3), (E1, 3, 2), (WeierstrassCurve(0, 0, 0, 0, 1), 5, 2)]
        while len(cases) < 15:
            e = random_curve(rng)
            p, k = rng.choice(((2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (3, 3)))
            if invariants(e).disc % p == 0:
                continue
            cases.append((e, p, k))
        for e, p, k in cases:
            assert count_points(e, p**k) == weil_count(e, p, k)

    def test_hasse_bound(self):
        rng = random.Random("curve-hasse")
        checked = 0
        while checked < 80:
            e = random_curve(rng)
            q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27))
            if invariants(e).disc % (q if q in (2, 3, 5, 7, 11, 13) else {4: 2, 8: 2, 9: 3, 25: 5, 27: 3}[q]) == 0:
                continue
            t = trace_of_frobenius(e, q)
            assert t * t <= 4 * q
            checked += 1

    def test_bad_reduction_rejected(self):
        with pytest.raises(ValueError):
            count_points(E1, 73)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            count_points(E1, 6)

    def test_oversized_field_rejected(self):
        with pytest.raises(ValueError):
            count_points(E1, 10**6 + 3)


def _good_curve(rng: random.Random, p: int) -> WeierstrassCurve:
    while True:
        e = random_curve(rng)
        if invariants(e).disc % p:
            return e


class TestPrimePowerCounts:
    """#E(F_{p^k}) from #E(F_p) by the trace recurrence."""

    def test_matches_enumeration(self):
        # every q = p^k <= 729 with k >= 2: 23 fields, 3 curves each
        rng = random.Random("curve-prime-powers")
        qs = [p**k for p in sympy.primerange(2, 28)
              for k in range(2, 10) if p**k <= 729]
        assert len(qs) == 23
        for q in qs:
            p = sympy.factorint(q).popitem()[0]
            for _ in range(3):
                e = _good_curve(rng, p)
                assert count_points(e, q) == count_points_by_enumeration(e, q)

    def test_largest_powers_answer_fast(self):
        # every prime p < 1,000 at its largest power p^k <= 10^6, k >= 2
        rng = random.Random("curve-largest-powers")
        cases = []
        for p in sympy.primerange(2, 1000):
            q = p * p
            while q * p <= curves._COUNT_LIMIT:
                q *= p
            cases.append((_good_curve(rng, p), q))
        t0 = time.perf_counter()
        traces = [q + 1 - count_points(e, q) for e, q in cases]
        assert time.perf_counter() - t0 < 1.0
        assert len(cases) == 168
        assert all(t * t <= 4 * q for t, (_, q) in zip(traces, cases))

    def test_prime_count_shared_through_the_memo(self, monkeypatch):
        counts = counting(monkeypatch, "count_points")
        with curves.request_memo():
            assert curves._count(E1, 2**5) == count_points_by_enumeration(E1, 32)
            assert curves._count(E1, 2) == 2
            assert curves._count(E1, 2**3) == 14
        assert [q for _, q in counts] == [32, 2, 8]


class TestPointArithmetic:
    def test_five_torsion_cycle(self):
        c = WeierstrassCurve(0, -1, 1, 0, 0)
        p = (Fraction(0), Fraction(0))
        seen = [p]
        for _ in range(4):
            seen.append(add_points(c, seen[-1], p))
        assert seen[1] == (1, -1)
        assert seen[2] == (1, 0)
        assert seen[3] == (0, -1)
        assert seen[4] is None
        assert point_order(c, p) == 5

    def test_group_laws_on_small_multiples(self):
        # (0, 0) has infinite order here, so multiples are distinct
        g = WeierstrassCurve(0, 0, 1, -1, 0)
        base = (Fraction(0), Fraction(0))
        pts = {k: multiply_point(g, k, base) for k in range(-4, 5)}
        for k in pts:
            assert on_curve(g, pts[k])
        rng = random.Random("curve-group")
        for _ in range(40):
            k, m = rng.randint(-4, 4), rng.randint(-4, 4)
            assert add_points(g, pts[k], pts[m]) == multiply_point(g, k + m, base)
        assert add_points(g, pts[2], pts[-2]) is None
        assert negate(g, negate(g, pts[3])) == pts[3]

    def test_point_order_rejects_nontorsion(self):
        g = WeierstrassCurve(0, 0, 1, -1, 0)
        with pytest.raises(ValueError, match="not torsion"):
            point_order(g, (Fraction(0), Fraction(0)))

    def test_point_order_rejects_off_curve(self):
        with pytest.raises(ValueError, match="not on curve"):
            point_order(E1, (Fraction(1), Fraction(1)))


# A model with (0, 0) of each order Mazur allows: y^2 = x^3 + x and
# y^2 + y = x^3 for orders 2 and 3, then Kubert's Tate normal forms
# y^2 + (1 - c) x y - b y = x^3 - b x^2 at small t, scaled to integers.
MAZUR_MODELS = {
    2: (0, 0, 0, 1, 0),
    3: (0, 0, 1, 0, 0),
    4: (1, -1, -1, 0, 0),
    5: (0, -1, -1, 0, 0),
    6: (0, -2, -2, 0, 0),
    7: (-1, -4, -4, 0, 0),
    8: (-7, -90, -270, 0, 0),
    9: (-3, -12, -12, 0, 0),
    10: (-5, -24, -24, 0, 0),
    12: (293, -14820, -118560, 0, 0),
}
ORIGIN = (Fraction(0), Fraction(0))


class TestMultiplesChain:
    """point_order and velu_quotient read the order and the multiples
    P, ..., (l // 2) P off one chain; both agree with repeated addition."""

    @pytest.mark.parametrize("n", list(MAZUR_MODELS))
    def test_point_order_agrees_with_repeated_addition(self, n):
        e = WeierstrassCurve(*MAZUR_MODELS[n])
        assert order_by_repeated_addition(e, ORIGIN) == n
        for k in range(1, n):
            pt = multiply_point(e, k, ORIGIN)
            assert point_order(e, pt) == order_by_repeated_addition(e, pt)
        assert point_order(e, None) == 1

    @pytest.mark.parametrize("n", list(MAZUR_MODELS))
    def test_chain_holds_the_multiples(self, n):
        e = WeierstrassCurve(*MAZUR_MODELS[n])
        # ORIGIN = (0, 0) on e is (X, Y) = (4x, 8y) = (0, 0) on _scaled(e)
        chain, order = curves._chain(e, (0, 0))
        assert order == n and len(chain) == n // 2 + n % 2
        assert [(Fraction(X, 4), Fraction(Y, 8)) for X, Y in chain] == [
            multiply_point(e, k, ORIGIN) for k in range(1, len(chain) + 1)]

    @pytest.mark.parametrize("n", list(MAZUR_MODELS))
    def test_half_the_order_additions(self, monkeypatch, n):
        e = WeierstrassCurve(*MAZUR_MODELS[n])
        calls = counting(monkeypatch, "add_points")
        assert point_order(e, ORIGIN) == n
        assert len(calls) == (n - 1) // 2  # n - 1 by repeated addition

    @pytest.mark.parametrize("n", list(MAZUR_MODELS))
    def test_velu_agrees_with_repeated_addition(self, n):
        e = WeierstrassCurve(*MAZUR_MODELS[n])
        for k in range(1, n):
            pt = multiply_point(e, k, ORIGIN)
            order = order_by_repeated_addition(e, pt)
            if order in (2, 3, 5, 7):
                assert velu_quotient(e, pt) == velu_by_repeated_addition(e, pt)
            else:
                with pytest.raises(ValueError,
                                   match=f"kernel point order {order} is "
                                         "not prime"):
                    velu_quotient(e, pt)

    def test_refusals_keep_their_messages(self):
        g = WeierstrassCurve(0, 0, 1, -1, 0)  # (0, 0) has infinite order
        for fn in (point_order, velu_quotient):
            with pytest.raises(ValueError,
                               match="^point is not torsion of small order$"):
                fn(g, ORIGIN)
        off = (Fraction(1), Fraction(1))
        with pytest.raises(ValueError, match="^point not on curve$"):
            point_order(E1, off)
        with pytest.raises(ValueError, match="^kernel point not on curve$"):
            velu_quotient(E1, off)
        with pytest.raises(ValueError, match="point at infinity"):
            velu_quotient(E1, None)


class TestDivisionPolynomials:
    def test_shapes(self):
        rng = random.Random("curve-divpoly")
        for _ in range(30):
            e = random_curve(rng)
            for ell, deg, lead in ((3, 4, 3), (5, 12, 5), (7, 24, 7)):
                poly = division_poly(e, ell)
                assert len(poly) == deg + 1
                assert poly[-1] == lead

    def test_known_roots(self):
        # x-coordinates of rational ell-torsion are roots of the ell-division poly
        assert peval(two_division_poly(E1), Fraction(0)) == 0
        assert peval(division_poly(WeierstrassCurve(0, 1, 1, 1, 0), 3), Fraction(0)) == 0
        assert peval(division_poly(WeierstrassCurve(0, -1, 1, 0, 0), 5), Fraction(0)) == 0
        assert peval(division_poly(WeierstrassCurve(1, -1, 1, -3, 3), 7), Fraction(-1)) == 0

    def test_unsupported_ell_rejected(self):
        with pytest.raises(ValueError):
            division_poly(E1, 9)


class TestRationalTorsion:
    def test_two_torsion_witnesses(self):
        found, pt = has_rational_ell_torsion(E1, 2)
        assert found and pt == (0, 0)
        found, pt = has_rational_ell_torsion(E2, 2)
        assert found and pt == (Fraction(3, 4), Fraction(-3, 8))
        found, pt = has_rational_ell_torsion(WeierstrassCurve(0, 0, 0, 0, 2), 2)
        assert not found and pt is None

    def test_odd_torsion_witnesses(self):
        cases = (
            (WeierstrassCurve(0, 1, 1, 1, 0), 3, (0, 0)),
            (WeierstrassCurve(0, -1, 1, 0, 0), 5, (0, 0)),
            (WeierstrassCurve(1, -1, 1, -3, 3), 7, (-1, 2)),
        )
        for e, ell, expected in cases:
            found, pt = has_rational_ell_torsion(e, ell)
            assert found and pt == expected
            assert point_order(e, pt) == ell

    def test_torsion_injects_into_good_fibres(self):
        # a rational point of order ell forces ell | #E(F_p) at good odd p
        cases = (
            (WeierstrassCurve(0, 1, 1, 1, 0), 3),
            (WeierstrassCurve(0, -1, 1, 0, 0), 5),
            (WeierstrassCurve(1, -1, 1, -3, 3), 7),
        )
        for e, ell in cases:
            disc = invariants(e).disc
            for p in (3, 5, 7, 11, 13, 17, 23):
                if disc % p == 0 or p == 2:
                    continue
                assert count_points(e, p) % ell == 0

    def test_unsupported_ell_rejected(self):
        with pytest.raises(ValueError):
            has_rational_ell_torsion(E1, 11)


def division_poly_torsion(e: WeierstrassCurve, ell: int):
    """The division-polynomial route alone: the first rational root x whose
    lift is a rational point of exact order ell, with no point counts."""
    poly = two_division_poly(e) if ell == 2 else division_poly(e, ell)
    for x in rational_roots(poly):
        hx = e.a1 * x + e.a3
        gx = x**3 + e.a2 * x * x + e.a4 * x + e.a6
        square = hx * hx + 4 * gx
        if square < 0:
            continue
        rn, rd = isqrt(square.numerator), isqrt(square.denominator)
        if rn * rn != square.numerator or rd * rd != square.denominator:
            continue
        pt = (x, (Fraction(rn, rd) - hx) / 2)
        if point_order(e, pt) == ell:
            return True, pt
    return False, None


def small_box(bound: int):
    for a1 in (0, 1):
        for a2 in (-1, 0, 1):
            for a3 in (0, 1):
                for a4 in range(-bound, bound + 1):
                    for a6 in range(-bound, bound + 1):
                        try:
                            yield WeierstrassCurve(a1, a2, a3, a4, a6)
                        except SingularCurveError:
                            continue


TORSION_CURVES = (
    (WeierstrassCurve(1, -1, 0, 4, -3), 2),  # (3/4, -3/8) reduces to O mod 2
    (WeierstrassCurve(0, 1, 1, 1, 0), 3),
    (WeierstrassCurve(0, -1, 1, 0, 0), 5),
    (WeierstrassCurve(1, -1, 1, -3, 3), 7),
)


def counting(monkeypatch, name):
    """Patch curves.<name> with a wrapper that records its arguments."""
    calls = []
    inner = getattr(curves, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(curves, name, wrapper)
    return calls


class TestPointCountFilter:
    @pytest.mark.parametrize("ell", (2, 3, 5, 7))
    def test_same_verdicts_as_division_polynomials(self, ell):
        hits = 0
        for e in small_box(4):
            expected = division_poly_torsion(e, ell)
            assert has_rational_ell_torsion(e, ell) == expected, e
            hits += expected[0]
        assert hits > 0

    def test_rejected_curve_never_reaches_rational_roots(self, monkeypatch):
        calls = counting(monkeypatch, "rational_roots")
        # #E1(F_2) = 2, so the first filter prime rules out odd torsion
        assert count_points(E1, 2) == 2
        for ell in (3, 5, 7):
            assert has_rational_ell_torsion(E1, ell) == (False, None)
        assert calls == []
        assert has_rational_ell_torsion(E1, 2) == (True, (0, 0))
        assert len(calls) == 1

    def test_no_good_filter_prime_falls_through(self, monkeypatch):
        # disc = -432 n^4 is divisible by every prime up to 37, and (0, n)
        # has order 3 on y^2 = x^3 + n^2
        n = 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
        e = WeierstrassCurve(0, 0, 0, 0, n * n)
        assert all(invariants(e).disc % q == 0 for q in curves._FILTER_PRIMES)
        counts = counting(monkeypatch, "count_points")
        roots = counting(monkeypatch, "rational_roots")
        assert has_rational_ell_torsion(e, 3) == (True, (0, n))
        assert has_rational_ell_torsion(e, 2) == division_poly_torsion(e, 2)
        assert counts == [] and len(roots) == 2

    @pytest.mark.parametrize("e, ell", TORSION_CURVES)
    def test_never_counts_at_ell(self, monkeypatch, e, ell):
        counts = counting(monkeypatch, "count_points")
        found, pt = has_rational_ell_torsion(e, ell)
        assert found and (found, pt) == division_poly_torsion(e, ell)
        qs = [q for _, q in counts]
        assert ell not in qs
        assert len(qs) == curves._FILTER_GOOD_PRIMES


class TestVeluQuotient:
    def test_frozen_quotients(self):
        q = velu_quotient(E2, (Fraction(3, 4), Fraction(-3, 8)))
        assert q.coefficients() == (1, -1, 0, -1, 0)
        q = velu_quotient(
            WeierstrassCurve(0, -1, 1, -10, -20), (Fraction(5), Fraction(5))
        )
        assert q.coefficients() == (0, -1, 1, -7820, -263580)

    def test_quotient_preserves_traces(self):
        # isogenous curves share the trace of Frobenius at good primes
        pairs = (
            (E2, (Fraction(3, 4), Fraction(-3, 8))),
            (WeierstrassCurve(0, -1, 1, -10, -20), (Fraction(5), Fraction(5))),
            (WeierstrassCurve(0, 1, 1, 1, 0), (Fraction(0), Fraction(0))),
        )
        for e, pt in pairs:
            q = velu_quotient(e, pt)
            d = invariants(e).disc * invariants(q).disc
            for p in (3, 5, 7, 13, 23):
                if d % p == 0:
                    continue
                assert trace_of_frobenius(e, p) == trace_of_frobenius(q, p)

    def test_quotient_moves_conductor_valuation_by_ell(self):
        e = WeierstrassCurve(0, -1, 1, -10, -20)
        q = velu_quotient(e, (Fraction(5), Fraction(5)))
        v_before = ord_at(invariants(e).disc, 11)
        v_after = ord_at(invariants(q).disc, 11)
        assert {v_before, v_after} == {5, 1}

    def test_rejects_bad_kernels(self):
        with pytest.raises(ValueError):
            velu_quotient(E1, None)
        with pytest.raises(ValueError):
            velu_quotient(WeierstrassCurve(0, 0, 1, -1, 0), (Fraction(0), Fraction(0)))
        # (7, 13) has order 4 on this curve
        seed = WeierstrassCurve(1, -1, 1, -1, -14)
        pt = (Fraction(7), Fraction(13))
        assert point_order(seed, pt) == 4
        with pytest.raises(ValueError, match="not prime"):
            velu_quotient(seed, pt)


def fraction_torsion_points(e: WeierstrassCurve):
    """Every rational point of order 2, 3, 5 or 7, lifted from the roots
    of the division polynomials in Fractions, both square roots taken."""
    points = []
    for ell in (2, 3, 5, 7):
        poly = two_division_poly(e) if ell == 2 else division_poly(e, ell)
        for x in rational_roots(poly):
            hx = e.a1 * x + e.a3
            square = hx * hx + 4 * (x**3 + e.a2 * x * x + e.a4 * x + e.a6)
            if square < 0:
                continue
            rn, rd = isqrt(square.numerator), isqrt(square.denominator)
            if rn * rn != square.numerator or rd * rd != square.denominator:
                continue
            for root in {Fraction(rn, rd), -Fraction(rn, rd)}:
                pt = (x, (root - hx) / 2)
                if order_by_repeated_addition(e, pt) == ell:
                    points.append(pt)
    return points


def denominator_two_torsion():
    """The (curve, point) pairs of order 2 with x not an integer, in the
    box a1 = 1, a2 in {-1, 0, 1}, a3 in {0, 1}, |a4|, |a6| <= 6."""
    found = []
    for a2, a3, a4, a6 in product((-1, 0, 1), (0, 1), range(-6, 7),
                                  range(-6, 7)):
        try:
            e = WeierstrassCurve(1, a2, a3, a4, a6)
        except SingularCurveError:
            continue
        found += [(e, pt) for pt in fraction_torsion_points(e)
                  if pt[0].denominator > 1]
    return found


class TestIntegerTorsionRoute:
    """point_order, velu_quotient and has_rational_ell_torsion, which work
    on the 2-scaled model in integers, against repeated addition in
    Fractions and the division-polynomial route alone."""

    @staticmethod
    def check(e, points):
        for pt in points:
            order = order_by_repeated_addition(e, pt)
            assert point_order(e, pt) == order, (e, pt)
            if order in (2, 3, 5, 7):
                assert velu_quotient(e, pt) == velu_by_repeated_addition(
                    e, pt), (e, pt)
        for ell in (2, 3, 5, 7):
            assert (has_rational_ell_torsion(e, ell)
                    == division_poly_torsion(e, ell)), (e, ell)

    @pytest.mark.parametrize("n", list(MAZUR_MODELS))
    def test_mazur_models(self, n):
        e = WeierstrassCurve(*MAZUR_MODELS[n])
        self.check(e, [multiply_point(e, k, ORIGIN) for k in range(1, n)])

    def test_seed_table_classes(self):
        swept = 0
        for seed in families.SEEDS.values():
            for e in isogeny_class(seed):
                points = fraction_torsion_points(e)
                self.check(e, points)
                swept += len(points)
        assert swept >= 10

    def test_order_two_points_with_denominators(self):
        pairs = denominator_two_torsion()
        assert len(pairs) == 10
        assert (E2, (Fraction(3, 4), Fraction(-3, 8))) in pairs
        assert (WeierstrassCurve(1, -1, 1, -6, -4),
                (Fraction(-5, 4), Fraction(1, 8))) in pairs
        for e, pt in pairs:
            self.check(e, [pt])


class TestReduceModel:
    def test_canonical_ranges(self):
        rng = random.Random("curve-reduce")
        for _ in range(150):
            e = reduce_model(random_curve(rng))
            assert e.a1 in (0, 1) and e.a3 in (0, 1) and -1 <= e.a2 <= 1

    def test_idempotent_and_invariant_under_shifts(self):
        rng = random.Random("curve-reduce-shift")
        for _ in range(100):
            e = random_curve(rng)
            red = reduce_model(e)
            assert reduce_model(red) == red
            r, s, t = (rng.randint(-6, 6) for _ in range(3))
            moved = WeierstrassCurve(*(int(c) for c in transform(e, 1, r, s, t)))
            assert reduce_model(moved) == red
            assert invariants(moved).j == invariants(red).j

    def test_scale_down_matches_the_fraction_trials(self):
        """Integer numerators pick the same move as the 64 Fraction trials:
        on models blown up by u = 2 and shifted, on the seeds themselves,
        and on blown-up models with a6 moved by 32, which a move with
        u = 2 cannot undo."""
        rng = random.Random("curve-scale-down")
        outcomes = {"scaled": 0, "none": 0, "none-past-disc": 0}
        for k in range(2000):
            e = random_curve(rng)
            blown = WeierstrassCurve(
                2 * e.a1, 4 * e.a2, 8 * e.a3, 16 * e.a4, 64 * e.a6
            )
            r, s, t = (rng.randint(-9, 9) for _ in range(3))
            moved = WeierstrassCurve(*(int(c) for c in transform(blown, 1, r, s, t)))
            cases = [moved, e]
            if k % 2:
                try:
                    cases.append(WeierstrassCurve(*moved.coefficients()[:4],
                                                  moved.a6 + 32))
                except SingularCurveError:
                    pass
            for c in cases:
                got = curves._try_scale_down(c)
                assert got == scale_down_by_fractions(c), c
                if got is not None:
                    outcomes["scaled"] += 1
                elif invariants(c).disc % 2**12:
                    outcomes["none"] += 1
                else:
                    outcomes["none-past-disc"] += 1
        assert outcomes["scaled"] >= 2000
        assert min(outcomes.values()) >= 100

    def test_unwinds_scale_two(self):
        rng = random.Random("curve-reduce-scale")
        for _ in range(50):
            e = random_curve(rng)
            blown = WeierstrassCurve(
                2 * e.a1, 4 * e.a2, 8 * e.a3, 16 * e.a4, 64 * e.a6
            )
            assert reduce_model(blown) == reduce_model(e)


class TestIsogenyClass:
    def test_prime_73_class(self):
        expected = {(1, -1, 0, -1, 0), (1, -1, 0, 4, -3)}
        for seed in (E1, E2):
            cls = isogeny_class(seed)
            assert {c.coefficients() for c in cls} == expected
        assert sorted(
            ord_at(abs(invariants(c).disc), 73) for c in isogeny_class(E1)
        ) == [1, 2]

    def test_prime_17_class(self):
        cls = isogeny_class(WeierstrassCurve(1, -1, 1, -1, -14))
        assert {c.coefficients() for c in cls} == {
            (1, -1, 1, -91, -310),
            (1, -1, 1, -6, -4),
            (1, -1, 1, -1, -14),
            (1, -1, 1, -1, 0),
        }
        assert sorted(ord_at(abs(invariants(c).disc), 17) for c in cls) == [1, 1, 2, 4]

    def test_prime_11_class(self):
        cls = isogeny_class(WeierstrassCurve(0, -1, 1, 0, 0))
        assert {c.coefficients() for c in cls} == {
            (0, -1, 1, -7820, -263580),
            (0, -1, 1, -10, -20),
            (0, -1, 1, 0, 0),
        }
        assert sorted(ord_at(abs(invariants(c).disc), 11) for c in cls) == [1, 1, 5]

    def test_prime_19_and_37_classes(self):
        cls19 = isogeny_class(WeierstrassCurve(0, 1, 1, 1, 0))
        assert {c.coefficients() for c in cls19} == {
            (0, 1, 1, -769, -8470),
            (0, 1, 1, -9, -15),
            (0, 1, 1, 1, 0),
        }
        cls37 = isogeny_class(WeierstrassCurve(0, 1, 1, -3, 1))
        assert {c.coefficients() for c in cls37} == {
            (0, 1, 1, -1873, -31833),
            (0, 1, 1, -23, -50),
            (0, 1, 1, -3, 1),
        }
        for cls, p in ((cls19, 19), (cls37, 37)):
            assert sorted(ord_at(abs(invariants(c).disc), p) for c in cls) == [1, 1, 3]

    def test_members_share_traces(self):
        for seed in (
            WeierstrassCurve(1, -1, 1, -1, -14),
            WeierstrassCurve(0, -1, 1, 0, 0),
            WeierstrassCurve(0, 1, 1, 1, 0),
        ):
            cls = isogeny_class(seed)
            for p in (3, 5, 7, 13, 23, 29):
                if any(invariants(c).disc % p == 0 for c in cls):
                    continue
                assert len({trace_of_frobenius(c, p) for c in cls}) == 1

    def test_class_is_seed_independent_within_itself(self):
        cls = isogeny_class(WeierstrassCurve(1, -1, 1, -1, -14))
        keys = {c.coefficients() for c in cls}
        for member in cls:
            assert {c.coefficients() for c in isogeny_class(member)} == keys


class TestRequestMemo:
    """Within a request each point count, each torsion verdict and each
    one-step quotient list is computed once; outside one nothing is
    cached."""

    SEED_17 = WeierstrassCurve(1, -1, 1, -1, -14)

    def test_library_calls_outside_a_request_are_never_cached(self,
                                                              monkeypatch):
        counts = counting(monkeypatch, "count_points")
        first = isogeny_class(self.SEED_17)
        n = len(counts)
        assert n > 0
        assert isogeny_class(self.SEED_17) == first
        assert trace_of_frobenius(E1, 3) == trace_of_frobenius(E1, 3)
        assert len(counts) == 2 * n + 2
        assert curves._MEMO.get() is None

    def test_a_request_block_computes_once_and_keeps_nothing(self,
                                                             monkeypatch):
        counts = counting(monkeypatch, "count_points")
        quotients = counting(monkeypatch, "velu_quotient")
        cls = isogeny_class(self.SEED_17)
        n, m = len(counts), len(quotients)
        with curves.request_memo():
            assert isogeny_class(self.SEED_17) == cls
            inside = len(counts) - n
            assert isogeny_class(self.SEED_17) == cls
            assert (len(counts), len(quotients)) == (n + inside, 2 * m)
        # the search shares the counts of a curve across its four ell
        assert 0 < inside < n
        assert curves._MEMO.get() is None
        assert isogeny_class(self.SEED_17) == cls
        assert (len(counts), len(quotients)) == (2 * n + inside, 3 * m)

    def test_paper_suite_computes_each_fact_once(self, monkeypatch, capsys):
        counts = counting(monkeypatch, "count_points")
        quotients = counting(monkeypatch, "velu_quotient")
        assert cli.main(["paper-suite"]) == 0
        keys = [(e.coefficients(), q) for e, q in counts]
        assert len(keys) == len(set(keys)) > 0
        kernels = [(e.coefficients(), pt) for e, pt in quotients]
        assert len(kernels) == len(set(kernels)) > 0
        assert curves._MEMO.get() is None

    def test_miyawaki_search_decides_each_torsion_once(self, monkeypatch,
                                                      capsys):
        """The handler re-checks every hit the search found: the verdict
        and witness come from the memo."""
        searches = counting(monkeypatch, "_division_points")
        assert cli.main(["miyawaki-search", "--ell", "3"]) == 0
        keys = [(e.coefficients(), ell) for e, ell in searches]
        assert len(keys) == len(set(keys)) > 0
        assert curves._MEMO.get() is None

    def test_paper_suite_decides_each_torsion_once(self, monkeypatch,
                                                   capsys):
        """The torsion verdicts and the one-step quotients read the same
        memoized points of each (curve, ell)."""
        searches = counting(monkeypatch, "_division_points")
        assert cli.main(["paper-suite"]) == 0
        keys = [(e.coefficients(), ell) for e, ell in searches]
        assert len(keys) == len(set(keys)) > 0
        assert curves._MEMO.get() is None

    @pytest.mark.parametrize("argv, status", [
        (["class-number", "--disc", "-164"], 0),
        (["dagger", "--ell", "3", "--p", "19"], 0),
    ])
    def test_dropped_after_a_report(self, capsys, argv, status):
        assert cli.main(argv) == status
        assert curves._MEMO.get() is None

    @pytest.mark.parametrize("argv", [
        ["isogeny-maximal", "--ell", "2", "--s", "4", "--n", "2"],
        ["dagger", "--ell", "2", "--p", "18"],
    ])
    def test_dropped_after_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert curves._MEMO.get() is None

    def test_set_while_the_handler_runs_and_dropped_after_exit_3(
            self, monkeypatch, capsys):
        seen = []

        def broken(args):
            seen.append(curves._MEMO.get())
            raise RuntimeError("invariant broke")

        monkeypatch.setattr(cli, "_cmd_class_number", broken)
        assert cli.main(["class-number", "--disc", "-4"]) == 3
        assert seen == [{}]
        assert curves._MEMO.get() is None

    @pytest.mark.parametrize("ell, p", [(2, 17), (3, 19), (5, 11)])
    def test_closure_check_still_sees_a_truncated_class(self, monkeypatch,
                                                        ell, p):
        """The closure check reuses the quotients the class search made,
        yet still fails when that search stops one step early."""
        monkeypatch.setattr(families, "isogeny_class",
                            lambda e: isogeny_class(e, 1))
        report, status = cli.run(["dagger", "--ell", str(ell), "--p", str(p)])
        assert status == 1
        closed = next(c for c in report["checks"]
                      if c["name"] == "class-closed-under-quotients")
        assert closed["pass"] is False


class TestTorsionFactsDerivedOnce:
    """Per request: the box filter evaluates each discriminant as a
    quadratic in a6, a survivor's p spares the count filter its
    discriminant, one chain per torsion point, kept in the request memo,
    gives its order, the handler's re-check and Velu's multiples, and a
    division polynomial squarefree mod a small prime takes no integer gcd.  Without these the counts were 5,594, 96, 21
    and 157 for paper-suite, and 4,375, 8, 8 and 101 for the search."""

    PINNED = {  # argv -> (_disc_from_b, add_points, pgcd, count_points)
        ("paper-suite",): (1076, 12, 0, 157),
        ("miyawaki-search", "--ell", "3"): (711, 2, 0, 101),
    }

    @pytest.mark.parametrize("argv", list(PINNED))
    def test_work_per_request(self, monkeypatch, argv):
        calls = dict.fromkeys(("_disc_from_b", "add_points", "pgcd",
                               "count_points"), 0)

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        # families imports _disc_from_b by name, so both bindings count
        for module, name in ((curves, "_disc_from_b"),
                             (families, "_disc_from_b"),
                             (curves, "add_points"), (polynomials, "pgcd"),
                             (curves, "count_points")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        _, status = cli.run(list(argv))
        assert status == 0
        assert tuple(calls.values()) == self.PINNED[argv]


class TestCountsByResidueClass:
    """Within a request #E(F_q) is kept under the coefficients mod q, so
    curves congruent mod q share one count; outside one nothing is
    shared."""

    @pytest.mark.parametrize("argv, calls", [
        (["miyawaki-search", "--ell", "3"], 101),
        (["paper-suite"], 157),
    ])
    def test_count_points_calls_per_request(self, monkeypatch, capsys, argv,
                                            calls):
        counts = counting(monkeypatch, "count_points")
        assert cli.main(argv) == 0
        assert len(counts) == calls

    def test_congruent_curves_share_one_count(self, monkeypatch):
        mod_9 = WeierstrassCurve(*(a + 9 for a in E1))
        mod_3 = WeierstrassCurve(*(a + 3 for a in E1))
        curves_ = (E1, mod_9, mod_3)
        counts = counting(monkeypatch, "count_points")
        with curves.request_memo():
            traces = [trace_of_frobenius(e, 9) for e in curves_]
        # #E1(F_9) is derived from #E1(F_3); mod_9 reads both counts, and
        # mod_3 reads the one at 3, so #E(F_9) agrees for all three
        assert counts == [(E1, 9), (E1, 3), (mod_3, 9)]
        assert traces == [traces[0]] * 3
        counts.clear()
        assert [trace_of_frobenius(e, 9) for e in curves_] == traces
        assert counts == [(e, q) for e in curves_ for q in (9, 3)]

    def test_a_count_depends_only_on_the_residues(self):
        rng = random.Random(28)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 25, 27):
            p = min(d for d in range(2, q + 1) if q % d == 0)
            checked = 0
            while checked < 5:
                e = random_curve(rng)
                try:
                    shifted = WeierstrassCurve(
                        *(a + q * rng.randint(-3, 3) for a in e))
                except SingularCurveError:
                    continue
                if invariants(e).disc % p:
                    assert count_points(shifted, q) == count_points(e, q)
                    checked += 1


class TestHyperellipticOddDisc:
    def test_frozen_value(self):
        assert hyperelliptic_odd_disc((0, -1, 2, -2, 0, 1), (1,)) == 277

    def test_matches_sympy_discriminant(self):
        x = sympy.symbols("x")
        rng = random.Random("curve-genus2")
        checked = 0
        while checked < 40:
            p_poly = tuple(rng.randint(-6, 6) for _ in range(5)) + (
                rng.choice((-2, -1, 1, 2)),
            )
            q_poly = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 4)))
            big = 4 * sum(c * x**i for i, c in enumerate(p_poly)) + (
                sum(c * x**i for i, c in enumerate(q_poly)) ** 2
            )
            d = int(sympy.discriminant(sympy.expand(big), x))
            if d == 0:
                continue
            expected = d
            while expected % 2 == 0:
                expected //= 2
            assert hyperelliptic_odd_disc(p_poly, q_poly) == expected
            checked += 1

    def test_rejects_bad_models(self):
        with pytest.raises(ValueError, match="degree exactly 5"):
            hyperelliptic_odd_disc((1, 0, 0, 0, 1), (0,))
        with pytest.raises(ValueError, match="degree at most 3"):
            hyperelliptic_odd_disc((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1))
        # 4P + Q^2 = 4 x^2 (x - 1)^2 (x + 1) has a repeated root
        with pytest.raises(ValueError, match="squarefree"):
            hyperelliptic_odd_disc((0, 0, 1, -1, -1, 1), (0,))
