"""Tests for reduced-form class numbers and the controlled 2-extension report."""

import random

import pytest

from semistable_lab import quadratic
from semistable_lab.arith import is_prime
from semistable_lab.quadratic import (
    QuadForm,
    class_number,
    controlled_two_extension,
    is_fundamental_discriminant,
    reduced_forms,
)

from oracles import (
    is_reduced,
    reduced_form_census,
    reduced_forms_brute,
    reduced_forms_by_disc,
)


class TestQuadForm:
    def test_discriminant(self):
        assert QuadForm(1, 0, 1).discriminant == -4
        assert QuadForm(2, 1, 3).discriminant == -23

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadForm(0, 0, 1)
        with pytest.raises(ValueError):
            QuadForm(-1, 0, -1)
        with pytest.raises(ValueError):
            QuadForm(1, 3, 1)  # positive discriminant

    def test_reduced_flag(self):
        assert is_reduced(QuadForm(1, 0, 1))
        assert is_reduced(QuadForm(2, 1, 3))
        assert is_reduced(QuadForm(2, -1, 3))
        assert not is_reduced(QuadForm(3, 1, 2))  # a > c
        assert not is_reduced(QuadForm(2, -2, 3))  # b = -a
        assert not is_reduced(QuadForm(2, -1, 2))  # a = c needs b >= 0


class TestFundamental:
    def test_examples(self):
        for d in (-3, -4, -7, -8, -11, -15, -20, -24, -163, -164):
            assert is_fundamental_discriminant(d)
        for d in (-9, -12, -16, -27, -75, -100, -5, 0, 5, -4 * 9):
            assert not is_fundamental_discriminant(d)


class TestClassNumber:
    def test_frozen_values(self):
        # classical table values, plus the committed regression constant
        # for discriminant -292
        table = {
            -3: 1,
            -4: 1,
            -7: 1,
            -8: 1,
            -11: 1,
            -15: 2,
            -20: 2,
            -23: 3,
            -24: 2,
            -47: 5,
            -68: 4,
            -163: 1,
            -164: 8,
            -292: 4,
        }
        for d, h in table.items():
            assert class_number(d) == h, d

    def test_rejects_bad_discriminants(self):
        for d in (4, 0, -1, -2, -5, -6, -9, -12, -100):
            with pytest.raises(ValueError):
                class_number(d)

    def test_forms_are_reduced_and_principal_present(self):
        for d in (-4, -23, -164, -292, -1003):
            forms = reduced_forms(d)
            assert len(forms) == len(set(forms))
            for f in forms:
                assert is_reduced(f)
                assert f.discriminant == d
            b0 = abs(d) % 2
            principal = QuadForm(1, b0, (b0 * b0 - d) // 4)
            assert principal in forms

    def test_counting_builds_no_forms(self, monkeypatch):
        def refuse(self):
            raise AssertionError("class_number built a QuadForm")

        monkeypatch.setattr(QuadForm, "__post_init__", refuse)
        assert class_number(-164) == 8
        assert class_number(-10000019) == 1275
        with pytest.raises(AssertionError, match="built a QuadForm"):
            reduced_forms(-164)


class TestCensusAgreement:
    def test_full_range(self):
        # same counts from the per-discriminant enumeration and from a
        # single sweep over all forms, for every fundamental |D| <= 10^5
        bound = 100000
        census = reduced_form_census(bound)
        checked = 0
        for absd in range(3, bound + 1):
            step = absd % 4
            if step in (1, 2):
                continue
            if step == 0 and (absd // 4) % 4 in (0, 3):
                continue
            d = -absd
            if not is_fundamental_discriminant(d):
                continue
            assert class_number(d) == census[absd], d
            checked += 1
        assert checked > 30000


def form_triples(disc):
    return [(f.a, f.b, f.c) for f in reduced_forms(disc)]


class TestRootEnumeration:
    """reduced_forms (square roots of D mod 4a) against the scan over b,
    or, up to |D| = 20000, against one sweep over the forms."""

    def test_every_fundamental_disc_to_20000(self):
        swept = reduced_forms_by_disc(20000)
        checked = 0
        for absd in range(3, 20001):
            if is_fundamental_discriminant(-absd):
                assert form_triples(-absd) == swept[absd], absd
                checked += 1
        assert checked == 6079

    def test_prime_discriminants_near_a_million(self):
        # D = -p for p = 3 mod 4 and D = -4p for p = 1 mod 4, |D| ~ 10^6
        minus_p = [p for p in range(10**6, 10**6 + 400)
                   if p % 4 == 3 and is_prime(p)][:10]
        minus_4p = [p for p in range(250000, 250400)
                    if p % 4 == 1 and is_prime(p)][:10]
        discs = [-p for p in minus_p] + [-4 * p for p in minus_4p]
        assert len(discs) == 20
        for d in discs:
            assert form_triples(d) == reduced_forms_brute(d), d

    @pytest.mark.parametrize("disc,h", [(-10000019, 1275), (-10000036, 876)])
    def test_frozen_values_near_ten_million(self, disc, h):
        forms = form_triples(disc)
        assert len(forms) == class_number(disc) == h
        assert forms == reduced_forms_brute(disc)


def fundamental_draws(rng, lo, hi, k, residue=None):
    """k distinct seeded fundamental D with lo <= |D| < hi; with a residue,
    each draw is moved down (|D| up by less than 8) to D = residue mod 8."""
    out = []
    while len(out) < k:
        d = -rng.randrange(lo, hi)
        if residue is not None:
            d -= (d - residue) % 8
        if is_fundamental_discriminant(d) and d not in out:
            out.append(d)
    return out


class TestSieveCount:
    """class_number adds up the root-count sieve for 4a^2 < |D| and lists
    roots only in the window above it; reduced_forms lists every a."""

    @pytest.mark.parametrize("band", [10**5, 10**6, 10**7, 10**8])
    def test_seeded_bands(self, band):
        for d in fundamental_draws(random.Random(band), band, 10 * band, 4):
            assert class_number(d) == len(reduced_forms(d)), d

    def test_leading_coefficient_at_the_window_edge(self):
        """|D| = 4a^2 + k puts a just below the window, |D| = 4a^2 - k puts
        it first in the window; forms with that leading a are met both
        ways."""
        rng = random.Random(41)
        met = {+1: 0, -1: 0}
        for a in rng.sample(range(2, 1500), 40):
            for k in range(1, 16):
                for sign in (+1, -1):
                    d = -(4 * a * a + sign * k)
                    if not is_fundamental_discriminant(d):
                        continue
                    forms = reduced_forms(d)
                    assert class_number(d) == len(forms), d
                    met[sign] += any(f.a == a for f in forms)
        assert met[+1] > 20 and met[-1] > 20

    @pytest.mark.parametrize("residue", [1, 5, 0, 4])
    def test_each_class_mod_8(self, residue):
        # D = 1 mod 8: 2 splits; 5 mod 8: 2 is inert; 0 and 4 mod 8: 2
        # ramifies (D = 4m with m = 2 mod 4 and m = 3 mod 4)
        rng = random.Random(residue)
        for d in fundamental_draws(rng, 2 * 10**4, 4 * 10**4, 3, residue):
            assert class_number(d) == len(reduced_forms(d)) == len(
                reduced_forms_brute(d)), d
        for d in fundamental_draws(rng, 10**6, 10**7, 6, residue):
            assert class_number(d) == len(reduced_forms(d)), d

    def test_smallest_discriminants(self):
        for d in (-3, -4, -7, -8):
            assert class_number(d) == len(reduced_forms(d)) == 1, d

    def test_near_the_limit(self):
        rng = random.Random(11)
        for d in fundamental_draws(rng, quadratic._DISC_LIMIT - 10**6,
                                   quadratic._DISC_LIMIT + 1, 3):
            assert class_number(d) == len(reduced_forms(d)), d

    @pytest.mark.parametrize("residue", [1, 5, 0, 4])
    def test_root_counts_match_a_scan_over_t(self, residue):
        """r[a] = #{t mod a : 4a | (2t + delta)^2 - D}, for every a the
        sieve covers, from the Kronecker symbols alone."""
        for d in fundamental_draws(random.Random(residue), 10**4, 10**5, 2,
                                   residue):
            top, _spf, r = quadratic._sieved(d)
            delta = d & 1
            assert r[1:] == [
                sum(((2 * t + delta) ** 2 - d) % (4 * a) == 0
                    for t in range(a))
                for a in range(1, top + 1)], d


class TestDiscLimit:
    def test_refused_before_squarefree_test(self, monkeypatch):
        def never(n):
            raise AssertionError("is_squarefree ran")

        monkeypatch.setattr(quadratic, "is_squarefree", never)
        with pytest.raises(ValueError, match=str(quadratic._DISC_LIMIT)):
            class_number(-quadratic._DISC_LIMIT - 1)
        with pytest.raises(ValueError, match="desk-scale limit"):
            controlled_two_extension(1000000000039)

    def test_prime_discriminant_has_odd_class_number(self):
        # genus theory: D = -p has one genus, so h is odd and n = 1
        rep = controlled_two_extension(1000000007)
        assert rep.disc == -1000000007
        assert rep.h % 2 == 1
        assert (rep.n, rep.degree_over_Q) == (1, 4)


class TestControlledExtension:
    def test_frozen_reports(self):
        rep = controlled_two_extension(41)
        assert (rep.disc, rep.h, rep.n) == (-164, 8, 8)
        assert rep.gal_MK_order == 16 and rep.degree_over_Q == 32

        rep = controlled_two_extension(3)
        assert (rep.disc, rep.h, rep.n, rep.degree_over_Q) == (-3, 1, 1, 4)

        rep = controlled_two_extension(17)
        assert (rep.disc, rep.h, rep.n, rep.degree_over_Q) == (-68, 4, 4, 16)

    def test_rejects_two_and_composites(self):
        for p in (2, 1, 9, 15, 91):
            with pytest.raises(ValueError):
                controlled_two_extension(p)

    def test_invariants_over_small_primes(self):
        for p in range(3, 500, 2):
            if not is_prime(p):
                continue
            rep = controlled_two_extension(p)
            assert rep.disc == (-p if p % 4 == 3 else -4 * p)
            assert is_fundamental_discriminant(rep.disc)
            assert rep.h % rep.n == 0
            assert (rep.h // rep.n) % 2 == 1
            assert rep.n & (rep.n - 1) == 0
            assert rep.gal_MK_order == 2 * rep.n
            assert rep.degree_over_Q == 4 * rep.n
            assert rep.dihedral
