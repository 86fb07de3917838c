"""Splitting data, congruence kernels, and unit-image ranks.

The heavy cross-check is `box_unit_scan` in oracles.py: a literal walk over
exponent boxes that multiplies out every candidate unit as an integer
polynomial, with its own inline residue-field arithmetic.  The library side
never enumerates, so agreement here pins the linear-algebra route.
"""

import pytest

from semistable_lab import cyclotomic
from semistable_lab.polynomials import QuotientRing, peval, pmul, resultant

import oracles
from oracles import box_unit_scan, pdivmod_monic

ELLS = (2, 3, 5, 7, 11, 13, 17, 19)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 191)


def cyclo(ell):
    return (1, 0, 1) if ell == 2 else (1,) * ell


def orbit_count(ell, p):
    """Orbits of multiplication by p on the units modulo 4 resp. ell.

    For odd ell the groups mod ell and mod 2*ell are identified, and only
    the former keeps p = 2 invertible.
    """
    m = 4 if ell == 2 else ell
    units = [j for j in range(1, m) if _gcd(j, m) == 1]
    seen, count = set(), 0
    for j in units:
        if j in seen:
            continue
        count += 1
        while j not in seen:
            seen.add(j)
            j = j * p % m
    return count


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestSplitting:
    def test_frozen(self):
        s = cyclotomic.splitting(5, 31)
        assert (s.f, s.g, s.g2, s.has_two_primes) == (1, 4, 4, True)
        s = cyclotomic.splitting(2, 73)
        assert (s.f, s.g2, s.has_two_primes) == (1, 2, True)
        s = cyclotomic.splitting(2, 17)
        assert (s.g2, s.has_two_primes) == (2, True)
        s = cyclotomic.splitting(3, 5)
        assert (s.f, s.g, s.has_two_primes) == (2, 1, False)
        s = cyclotomic.splitting(7, 29)
        assert (s.f, s.g, s.has_two_primes) == (1, 6, True)
        # p = 1 mod 4 but not mod 8: two primes over an odd place is not enough
        s = cyclotomic.splitting(2, 5)
        assert (s.g2, s.has_two_primes) == (2, False)

    def test_degree_relation(self):
        for ell in ELLS:
            for p in (2,) + ODD_PRIMES:
                if p == ell:
                    continue
                s = cyclotomic.splitting(ell, p)
                if ell == 2:
                    assert (s.f, s.g) == (1, 1)
                    assert s.g2 == (2 if p % 4 == 1 else 1)
                else:
                    assert s.f * s.g == ell - 1
                    assert pow(p, s.f, ell) == 1
                    assert all(pow(p, k, ell) != 1 for k in range(1, s.f))
                    assert s.g2 == s.g
                assert s.has_two_primes == (s.g2 >= 2 and (ell != 2 or p % 8 == 1))

    def test_place_count_matches_orbit_count(self):
        for ell in ELLS:
            for p in (2, 3, 7, 13, 29, 41):
                if p == ell:
                    continue
                assert cyclotomic.splitting(ell, p).g2 == orbit_count(ell, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclotomic.splitting(23, 2)
        with pytest.raises(ValueError):
            cyclotomic.splitting(4, 7)
        with pytest.raises(ValueError):
            cyclotomic.splitting(5, 5)
        with pytest.raises(ValueError):
            cyclotomic.splitting(5, 21)


class TestGammaRank:
    def test_frozen(self):
        assert cyclotomic.splitting(5, 31).g2 == 4
        assert cyclotomic.splitting(2, 17).g2 == 2
        assert cyclotomic.splitting(3, 7).g2 == 2
        assert cyclotomic.splitting(7, 29).g2 == 6
        assert cyclotomic.splitting(3, 5).g2 == 1

    def test_equals_place_count(self):
        for ell in ELLS:
            for p in (2, 11, 31):
                if p == ell:
                    continue
                assert cyclotomic.splitting(ell, p).g2 == orbit_count(ell, p)


class TestUnitGenerators:
    def test_counts(self):
        assert len(cyclotomic.unit_generators(2)) == 2
        assert len(cyclotomic.unit_generators(3)) == 2
        assert len(cyclotomic.unit_generators(5)) == 3
        assert len(cyclotomic.unit_generators(7)) == 4
        assert len(cyclotomic.unit_generators(19)) == 10

    def test_generators_are_units(self):
        # the norm of each generator down to Q is the resultant with the
        # minimal polynomial of the root, and units have norm +-1
        for ell in ELLS:
            for g in cyclotomic.unit_generators(ell):
                assert resultant(cyclo(ell), g) in (1, -1)


class TestCongruenceKernel:
    def test_frozen(self):
        assert oracles.congruence_kernel(2) == [(1, 0)]
        assert oracles.congruence_kernel(3) == [(4, 3)]
        assert oracles.congruence_kernel(5) == [(18, 5, 0), (1, 6, 18)]
        assert len(oracles.congruence_kernel(7)) == 3

    def test_kernel_generators_satisfy_congruence(self):
        """Each kernel vector, multiplied out literally, is 1 mod lambda^2."""
        for ell in ELLS:
            gens = cyclotomic.unit_generators(ell)
            for vec in oracles.congruence_kernel(ell):
                prod = (1,)
                for e, g in zip(vec, gens):
                    for _ in range(e):
                        prod = pdivmod_monic(pmul(prod, g), cyclo(ell))[1]
                assert peval(prod, 1) % ell == 1 % ell
                deriv = sum(i * c for i, c in enumerate(prod))
                assert deriv % ell == 0

    def test_torsion_classification_at_two(self):
        # among 1, -1, i, -i exactly the sign subgroup is 1 mod lambda^2:
        # lambda = 1 - i has lambda^2 = -2i, which divides -2 but not i - 1
        passing = []
        for poly in ((1,), (-1,), (0, 1), (0, -1)):
            e0 = peval(poly, 1) % 2
            e1 = sum(i * c for i, c in enumerate(poly)) % 2
            if (e0, e1) == (1, 0):
                passing.append(poly)
        assert passing == [(1,), (-1,)]


class TestUnitImages:
    def test_frozen(self):
        assert cyclotomic.unit_images(5, 31) == [
            (0, 0, 0, 0),
            (1, 2, 3, 4),
            (4, 0, 3, 3),
        ]

    def test_shapes_and_sign_image(self):
        for ell, p in ((2, 17), (3, 7), (5, 11), (7, 29), (13, 53), (19, 2)):
            images = cyclotomic.unit_images(ell, p)
            g2 = cyclotomic.splitting(ell, p).g2
            assert len(images) == len(cyclotomic.unit_generators(ell))
            assert all(len(v) == g2 for v in images)
            # -1 is an ell-th power in every local field here
            assert images[0] == (0,) * g2

    def test_deterministic(self):
        assert cyclotomic.unit_images(7, 43) == cyclotomic.unit_images(7, 43)


class TestResidueFields:
    """The root eta of Phi_m that _local_places picks is one of phi(m)
    choices, and the character is read off eta."""

    @pytest.mark.parametrize("ell,p", [(5, 31), (2, 17), (7, 29), (19, 191)])
    def test_rank_does_not_depend_on_eta(self, monkeypatch, ell, p):
        m = 4 if ell == 2 else ell
        roots = [r for r in range(1, p) if peval(cyclo(ell), r) % p == 0]
        assert len(roots) == sum(_gcd(j, m) == 1 for j in range(1, m))
        ring, _, reps = cyclotomic._local_places(ell, p)
        assert ring.f == 1
        expected = cyclotomic.unit_image_rank(ell, p)
        for root in roots:
            ring = QuotientRing((-root % p, 1), p)
            eta = ring.pack((0, 1))
            assert ring.unpack(eta) == (root,)
            places = (ring, eta, reps)
            monkeypatch.setattr(cyclotomic, "_local_places",
                                lambda ell, p: places)
            assert cyclotomic.unit_image_rank(ell, p) == expected
            table = cyclotomic._character_table(ring, ell)
            assert table[ring.pow(eta, m // ell)] == 1


def pairwise_products(ell):
    gens = cyclotomic.unit_generators(ell)
    out = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            out.append(pdivmod_monic(pmul(gens[i], gens[j]), cyclo(ell))[1])
    return tuple(out)


_PRIMES_BELOW_1500 = [p for p in range(2, 1500)
                      if all(p % q for q in range(2, int(p**0.5) + 1))]


class TestUnitImagesAgainstHorner:
    """unit_images against the Horner loop it replaced (oracles.py)."""

    def test_generator_images_with_the_character(self):
        """The generator images, read from one character power per orbit,
        against chi of each Horner value, at every ell <= 19 and p < 200."""
        count = 0
        for ell in ELLS:
            for p in _PRIMES_BELOW_1500[:46]:
                if p == ell:
                    continue
                assert (cyclotomic.unit_images(ell, p)
                        == oracles.unit_images_horner(ell, p))
                count += 1
        assert _PRIMES_BELOW_1500[45] == 199
        assert count == 8 * 46 - 8

    def test_images(self):
        """The character is a homomorphism: a product of two generators,
        reduced mod Phi_ell and read by Horner, has the sum of their images."""
        for ell in ELLS:
            n = len(cyclotomic.unit_generators(ell))
            pairs = [(i, j) for i in range(n) for j in range(i, n)][:4]
            extras = pairwise_products(ell)[:4]
            for p in _PRIMES_BELOW_1500[:20]:
                if p == ell:
                    continue
                images = cyclotomic.unit_images(ell, p)
                horner = oracles.unit_images_horner(ell, p, extras)
                assert images == horner[:n]
                assert horner[n:] == [tuple((a + b) % ell for a, b
                                            in zip(images[i], images[j]))
                                      for i, j in pairs]


class TestUnitImageRank:
    def test_frozen_reports(self):
        rep = cyclotomic.unit_image_rank(5, 31)
        assert rep == cyclotomic.GammaSReport(
            ell=5, p=31, gamma_rank=4, unit_image_rank=1, bound=3
        )
        assert cyclotomic.unit_image_rank(2, 17).bound == 2
        assert cyclotomic.unit_image_rank(2, 73).bound == 2
        assert cyclotomic.unit_image_rank(3, 7).bound == 2
        assert cyclotomic.unit_image_rank(7, 29).bound == 4
        assert cyclotomic.unit_image_rank(2, 7).bound == 1
        assert cyclotomic.unit_image_rank(3, 5).bound == 1

    @pytest.mark.parametrize(
        "ell,p,box,survivors",
        [
            (2, 17, 4, 45),
            (2, 73, 4, 45),
            (2, 7, 4, 45),
            (3, 7, 6, 35),
            (3, 13, 6, 35),
            (3, 5, 6, 35),
            (5, 31, 10, 491),
            (5, 11, 10, 491),
            (7, 29, 7, 1199),
            (7, 43, 7, 1199),
        ],
    )
    def test_box_scan_agreement(self, ell, p, box, survivors):
        found, rank = box_unit_scan(ell, p, box)
        assert len(found) == survivors
        assert rank == cyclotomic.unit_image_rank(ell, p).unit_image_rank

    def test_box_scan_survivors_at_two(self):
        found, _ = box_unit_scan(2, 17, 4)
        assert set(found) == {(1,), (-1,)}

    def test_stabilization(self):
        """Adjoining all products of two generators changes nothing."""
        for ell, p in ((2, 17), (3, 7), (5, 31), (7, 29), (13, 53), (19, 191)):
            base = cyclotomic.unit_image_rank(ell, p)
            extended = oracles.unit_image_rank_horner(ell, p,
                                                      pairwise_products(ell))
            assert extended == base.unit_image_rank

    def test_invariants_sweep(self):
        for ell in ELLS:
            for p in (2, 29, 31, 41, 53):
                if p == ell:
                    continue
                rep = cyclotomic.unit_image_rank(ell, p)
                assert rep.gamma_rank == cyclotomic.splitting(ell, p).g2
                assert 0 <= rep.unit_image_rank <= rep.gamma_rank
                assert rep.bound == rep.gamma_rank - rep.unit_image_rank
                assert rep.unit_image_rank == oracles.unit_image_rank_horner(
                    ell, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclotomic.unit_image_rank(23, 2)
        with pytest.raises(ValueError):
            cyclotomic.unit_image_rank(5, 5)
        with pytest.raises(ValueError):
            cyclotomic.splitting(6, 7).g2

    def test_table_comes_from_one_root_of_unity(self, monkeypatch):
        """The character table is the powers of zeta = eta^(m/ell), one
        power of eta in F_{p^f}: at f > 1, where every constant is an
        ell-th power, the request takes a few powers and no walk through
        the p - 1 constants."""
        from semistable_lab import polynomials
        calls = []
        pow_ = polynomials.QuotientRing.pow

        def counted(self, x, k):
            calls.append(k)
            return pow_(self, x, k)

        monkeypatch.setattr(polynomials.QuotientRing, "pow", counted)
        assert cyclotomic.splitting(3, 1301).f == 2
        cyclotomic.unit_image_rank(3, 1301)
        assert 0 < len(calls) < 100

    @pytest.mark.parametrize("ell,p,f,bound", [
        (19, 1303, 3, 7),
        (19, 3317044064679887384962751, 18, 2),
    ])
    def test_exponent_e_only_at_the_places(self, monkeypatch, ell, p, f,
                                           bound):
        """The table's root of unity zeta = eta^(m/ell) is a power with
        exponent m/ell, so the only powers with exponent e = (p^f - 1)/ell
        are the generator images', one per place (bound allows one more)."""
        from semistable_lab import polynomials
        e = (p**f - 1) // ell
        calls = []
        pow_ = polynomials.QuotientRing.pow

        def counted(self, x, k):
            calls.append(k)
            return pow_(self, x, k)

        monkeypatch.setattr(polynomials.QuotientRing, "pow", counted)
        split = cyclotomic.splitting(ell, p)
        assert split.f == f and split.g + 1 <= bound
        cyclotomic.unit_images(ell, p)
        assert 0 < calls.count(e) <= bound
