"""Dense polynomial layer against sympy, Sylvester determinants, brute force."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

import oracles
from semistable_lab import polynomials as P


def to_sympy(poly):
    return sympy.Poly(list(reversed(poly)) or [0], x)


def random_poly(rng, deg, bound=9, monic=False):
    lead = 1 if monic else rng.choice([c for c in range(-bound, bound + 1) if c])
    return tuple(rng.randint(-bound, bound) for _ in range(deg)) + (lead,)


def mulmod(a, b, m, p):
    ring = P.QuotientRing(m, p)
    return ring.unpack(ring.mul(ring.pack(a), ring.pack(b)))


def powmod(a, e, m, p):
    ring = P.QuotientRing(m, p)
    return ring.unpack(ring.pow(ring.pack(a), e))


def sylvester_resultant(a, b):
    """det of the (da+db) x (da+db) Sylvester matrix, rows descending."""
    da, db = P.degree(a), P.degree(b)
    n = da + db
    rows = []
    for i in range(db):
        row = [0] * n
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):
        row = [0] * n
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return int(sympy.Matrix(rows).det())


class TestBasicOps:
    def test_trim_and_degree(self):
        assert P.trim((0, 0)) == ()
        assert P.trim((1, 2, 0)) == (1, 2)
        assert P.degree(()) == -1
        assert P.degree((7,)) == 0

    def test_ring_identities(self):
        rng = random.Random(11)
        for _ in range(150):
            a = random_poly(rng, rng.randint(0, 4))
            b = random_poly(rng, rng.randint(0, 4))
            c = random_poly(rng, rng.randint(0, 4))
            assert P.pmul(P.padd(a, b), c) == P.padd(P.pmul(a, c), P.pmul(b, c))
            t = rng.randint(-5, 5)
            assert P.peval(P.pmul(a, b), t) == P.peval(a, t) * P.peval(b, t)
            # product rule
            lhs = P.pderiv(P.pmul(a, b))
            rhs = P.padd(P.pmul(P.pderiv(a), b), P.pmul(a, P.pderiv(b)))
            assert lhs == rhs

    def test_content(self):
        assert P.content((6, -9, 12)) == 3
        assert P.content(()) == 0

    def test_pdivmod_monic_reconstruction(self):
        rng = random.Random(12)
        for _ in range(200):
            a = random_poly(rng, rng.randint(0, 6))
            b = random_poly(rng, rng.randint(1, 4), monic=True)
            q, r = oracles.pdivmod_monic(a, b)
            assert P.padd(P.pmul(q, b), r) == P.trim(a)
            assert P.degree(r) < P.degree(b)

    def test_pdivmod_monic_rejects_nonmonic(self):
        with pytest.raises(ValueError):
            oracles.pdivmod_monic((1, 1), (1, 2))
        with pytest.raises(ValueError):
            oracles.pdivmod_monic((1, 1), ())


class TestPseudoRem:
    def test_matches_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            da = rng.randint(1, 6)
            a = random_poly(rng, da)
            b = random_poly(rng, rng.randint(1, da))
            mine = P.pseudo_rem(a, b)
            ref = sympy.prem(to_sympy(a), to_sympy(b), x)
            ref_t = () if ref == 0 else tuple(reversed(sympy.Poly(ref, x).all_coeffs()))
            assert mine == P.trim(ref_t)

    def test_degree_drops(self):
        rng = random.Random(8)
        for _ in range(100):
            a = random_poly(rng, rng.randint(2, 6))
            b = random_poly(rng, rng.randint(1, P.degree(a)))
            assert P.degree(P.pseudo_rem(a, b)) < P.degree(b)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            P.pseudo_rem((1, 1), ())


class TestResultant:
    def test_frozen_small(self):
        assert P.resultant((1, 0, 1), (2, 1)) == 5  # value of x^2+1 at x = -2
        assert P.resultant((2, 1), (1, 0, 1)) == 5
        assert P.resultant((-1, 1), (1, 1)) == 2
        assert P.resultant((3,), (1, 2, 3)) == 9
        assert P.resultant((1, 2, 3), (-2,)) == 4
        assert P.resultant((), (1, 1)) == 0

    def test_sylvester_agreement(self):
        rng = random.Random(21)
        for _ in range(120):
            a = random_poly(rng, rng.randint(1, 4), bound=6)
            b = random_poly(rng, rng.randint(1, 4), bound=6)
            assert P.resultant(a, b) == sylvester_resultant(a, b)

    def test_reference_agreement(self):
        # sympy's convention for deg a < deg b differs by the swap sign, so
        # compare with arguments ordered by degree
        rng = random.Random(22)
        for _ in range(200):
            da = rng.randint(1, 6)
            a = random_poly(rng, da)
            b = random_poly(rng, rng.randint(1, da))
            assert P.resultant(a, b) == int(sympy.resultant(to_sympy(a), to_sympy(b)))

    def test_swap_sign_law(self):
        rng = random.Random(23)
        for _ in range(100):
            a = random_poly(rng, rng.randint(1, 5))
            b = random_poly(rng, rng.randint(1, 5))
            sign = -1 if (P.degree(a) * P.degree(b)) % 2 else 1
            assert P.resultant(a, b) == sign * P.resultant(b, a)

    def test_multiplicative(self):
        rng = random.Random(24)
        for _ in range(100):
            a = random_poly(rng, rng.randint(1, 3), bound=5)
            b = random_poly(rng, rng.randint(1, 3), bound=5)
            c = random_poly(rng, rng.randint(1, 3), bound=5)
            assert P.resultant(a, P.pmul(b, c)) == P.resultant(a, b) * P.resultant(a, c)

    def test_common_root_vanishes(self):
        rng = random.Random(25)
        for _ in range(100):
            root = (rng.randint(-6, 6), 1)
            a = P.pmul(root, random_poly(rng, rng.randint(0, 3)))
            b = P.pmul(root, random_poly(rng, rng.randint(0, 3)))
            assert P.resultant(a, b) == 0


class TestDiscriminant:
    def test_frozen(self):
        assert P.discriminant((1, 0, 1)) == -4
        assert P.discriminant((0, -1, 0, 1)) == 4
        assert P.discriminant((2, 1)) == 1

    def test_depressed_cubic_law(self):
        rng = random.Random(31)
        for _ in range(100):
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            assert P.discriminant((b, a, 0, 1)) == -4 * a**3 - 27 * b**2

    def test_reference_agreement(self):
        rng = random.Random(32)
        for _ in range(200):
            f = random_poly(rng, rng.randint(1, 6))
            assert P.discriminant(f) == int(sympy.discriminant(to_sympy(f), x))

    def test_repeated_root_vanishes(self):
        rng = random.Random(33)
        for _ in range(60):
            root = (rng.randint(-5, 5), 1)
            f = P.pmul(P.pmul(root, root), random_poly(rng, rng.randint(0, 2)))
            assert P.discriminant(f) == 0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            P.discriminant((3,))
        with pytest.raises(ValueError):
            P.discriminant(())


class TestRationalRoots:
    def test_frozen(self):
        assert P.rational_roots((-6, 1)) == [Fraction(6)]
        assert P.rational_roots((0, 0, 1)) == [Fraction(0)]
        assert P.rational_roots((-1, 0, 4)) == [Fraction(-1, 2), Fraction(1, 2)]
        assert P.rational_roots((2, 3, 1)) == [Fraction(-2), Fraction(-1)]
        assert P.rational_roots((1, 0, 1)) == []

    def test_constructed_products(self):
        """Roots planted as linear factors are all found, and nothing else."""
        rng = random.Random(41)
        for _ in range(120):
            planted = set()
            f = (1,)
            for _ in range(rng.randint(1, 3)):
                num = rng.randint(-8, 8)
                den = rng.randint(1, 6)
                planted.add(Fraction(num, den))
                f = P.pmul(f, (-num, den))
            if rng.random() < 0.5:
                f = P.pmul(f, (1, 0, 1))  # rootless quadratic factor
            assert set(P.rational_roots(f)) == planted

    def test_every_root_evaluates_to_zero(self):
        rng = random.Random(42)
        for _ in range(100):
            f = random_poly(rng, rng.randint(1, 5))
            for r in P.rational_roots(f):
                assert P.peval(f, r) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            P.rational_roots(())

    def test_repeated_roots_reported_once(self):
        f = P.pmul(P.pmul((-1, 1), (-1, 1)), (3, 2))
        assert P.rational_roots(f) == [Fraction(-3, 2), Fraction(1)]

    def test_huge_rootless_cofactors_are_cheap(self):
        # constant terms the size of division-polynomial values must not
        # force any factoring
        f = P.pmul((-12345, 7), (10**30 + 1, 0, 1))
        assert P.rational_roots(f) == [Fraction(12345, 7)]
        f = P.pmul((10**9, 1), (3, 0, 10**20, 1))
        assert Fraction(-(10**9)) in P.rational_roots(f)


def _pgcd_calls(monkeypatch):
    calls = []
    inner = P.pgcd

    def wrapper(a, b):
        calls.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(P, "pgcd", wrapper)
    return calls


def _roots_through_the_gcd(a):
    """The rational roots with gcd(a, a') always divided out first, as
    rational_roots found them before it looked for a squarefree
    reduction."""
    a = P.trim(a)
    zero = {Fraction(0)} if a[0] == 0 else set()
    a = a[next(i for i, c in enumerate(a) if c):]
    d = P.pgcd(a, P.pderiv(a))
    g = P._exact_div(a, d) if P.degree(d) > 0 else a
    return sorted(zero | set(P.rational_roots(g)))


_SMALL_PRIMORIAL = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37


class TestSquarefreeShortcut:
    """A reduction mod p <= 37 that keeps the degree and is squarefree
    proves the input squarefree, and no integer gcd is taken; every other
    input still goes through pgcd, with the same roots."""

    def test_squarefree_mod_a_small_prime_takes_no_gcd(self, monkeypatch):
        calls = _pgcd_calls(monkeypatch)
        rng = random.Random(44)
        for _ in range(60):
            planted = {Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(rng.randint(1, 4))}
            f = (1,)
            for r in planted:
                f = P.pmul(f, (-r.numerator, r.denominator))
            assert P.rational_roots(f) == sorted(planted)
        assert calls == []

    def test_planted_repeated_roots_go_through_pgcd(self, monkeypatch):
        calls = _pgcd_calls(monkeypatch)
        rng = random.Random(45)
        for _ in range(60):
            # nonzero: a root at 0 is split off before the gcd question
            planted = {Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                rng.randint(1, 5))
                       for _ in range(rng.randint(1, 3))}
            f = (1,)
            for r in planted:
                f = P.pmul(f, (-r.numerator, r.denominator))
            twice = next(iter(planted))
            f = P.pmul(f, (-twice.numerator, twice.denominator))
            if rng.random() < 0.5:
                f = P.pmul(f, (1, 0, 1))  # rootless quadratic factor
            before = len(calls)
            assert P.rational_roots(f) == sorted(planted)
            assert len(calls) == before + 1
        calls.clear()
        for f in ((0, 0, 1), (1, -2, 1), P.pmul((-1, 1), (1, 0, 2, 0, 1))):
            assert P.rational_roots(f) == _roots_through_the_gcd(f)

    def test_non_squarefree_mod_every_small_prime(self, monkeypatch):
        # squarefree over Z, but (x - 1)(x - 2)...(x - 38) has a repeated
        # root mod every p <= 37, and every such p divides the leading
        # coefficient of (primorial x - 1)(x - 2)
        spread = (1,)
        for i in range(1, 39):
            spread = P.pmul(spread, (-i, 1))
        steep = P.pmul((-1, _SMALL_PRIMORIAL), (-2, 1))
        calls = _pgcd_calls(monkeypatch)
        assert P.rational_roots(spread) == [Fraction(i) for i in range(1, 39)]
        assert P.rational_roots(steep) == [Fraction(1, _SMALL_PRIMORIAL),
                                           Fraction(2)]
        assert len(calls) == 2
        for f in (spread, steep):
            assert P.rational_roots(f) == _roots_through_the_gcd(f)


class TestPgcd:
    def test_frozen(self):
        g = P.pgcd((-1, 0, 1), (-1, 0, 0, 1))
        assert tuple(c * (1 if g[-1] > 0 else -1) for c in g) == (-1, 1)
        assert P.pgcd((2, 4), (3, 0, 3)) == (1,)
        assert P.pgcd((), (0, 2, 4)) == (0, 2, 4)

    def test_divides_both_inputs(self):
        rng = random.Random(43)
        for _ in range(80):
            h = random_poly(rng, rng.randint(1, 3))
            a = P.pmul(random_poly(rng, rng.randint(0, 3)), h)
            b = P.pmul(random_poly(rng, rng.randint(0, 3)), h)
            g = P.pgcd(a, b)
            assert P.pseudo_rem(g, h) == ()  # the common factor sits inside g
            assert P.pseudo_rem(a, g) == ()
            assert P.pseudo_rem(b, g) == ()


class TestRootsMod:
    def test_matches_brute_force(self):
        rng = random.Random(44)
        for p in (2, 3, 5, 13, 31):
            for _ in range(40):
                f = random_poly(rng, rng.randint(1, 6))
                if f[-1] % p == 0:
                    continue
                brute = sorted(
                    t for t in range(p) if P.peval(f, t) % p == 0
                )
                assert P.roots_mod(f, p) == brute

    def test_vanishing_lead_rejected(self):
        with pytest.raises(ValueError):
            P.roots_mod((1, 5), 5)
        with pytest.raises(ValueError):
            P.roots_mod((), 5)


class TestFpArithmetic:
    PRIMES = (2, 3, 5, 13)

    def test_divmod_reconstruction(self):
        rng = random.Random(51)
        for p in self.PRIMES:
            for _ in range(80):
                a = tuple(rng.randrange(p) for _ in range(rng.randint(0, 7)))
                b = tuple(rng.randrange(p) for _ in range(rng.randint(1, 5)))
                if not P.fp_trim(b, p):
                    continue
                q, r = P.fp_divmod(a, b, p)
                back = P.fp_trim(P.padd(P.pmul(q, b), r), p)
                assert back == P.fp_trim(a, p)
                assert P.degree(r) < P.degree(P.fp_trim(b, p))

    def test_gcd_properties(self):
        rng = random.Random(52)
        for p in self.PRIMES:
            for _ in range(60):
                c = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3))) + (1,)
                u = tuple(rng.randrange(p) for _ in range(rng.randint(0, 3))) + (1,)
                v = tuple(rng.randrange(p) for _ in range(rng.randint(0, 3))) + (1,)
                g = P.fp_gcd(P.fp_trim(P.pmul(u, c), p),
                             P.fp_trim(P.pmul(v, c), p), p)
                assert g[-1] == 1
                # the planted common factor divides the gcd
                assert P.fp_divmod(g, c, p)[1] == ()

    def test_powmod_matches_repeated_multiplication(self):
        rng = random.Random(53)
        for p in (3, 5):
            m = oracles.find_irreducible(p, 3)
            for _ in range(40):
                a = tuple(rng.randrange(p) for _ in range(3))
                e = rng.randint(0, 30)
                direct = (1,)
                for _ in range(e):
                    direct = mulmod(direct, a, m, p)
                assert powmod(a, e, m, p) == direct


def brute_irreducible(m, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    d = P.degree(m)
    if d < 1:
        return False
    for k in range(1, d // 2 + 1):
        for idx in range(p**k):
            cand, n = [], idx
            for _ in range(k):
                cand.append(n % p)
                n //= p
            cand.append(1)
            if P.fp_divmod(m, cand, p)[1] == ():
                return False
    return True


class TestIrreducibility:
    def test_exhaustive_small_fields(self):
        for p in (2, 3):
            for d in (2, 3, 4):
                for idx in range(p**d):
                    coeffs, n = [], idx
                    for _ in range(d):
                        coeffs.append(n % p)
                        n //= p
                    coeffs.append(1)
                    assert oracles.is_irreducible(coeffs, p) == brute_irreducible(coeffs, p)

    def test_random_quintics_mod_five(self):
        rng = random.Random(61)
        for _ in range(60):
            m = tuple(rng.randrange(5) for _ in range(5)) + (1,)
            assert oracles.is_irreducible(m, 5) == brute_irreducible(m, 5)

    def test_frozen(self):
        assert oracles.is_irreducible((1, 0, 1), 3)
        assert not oracles.is_irreducible((1, 0, 1), 5)  # (x+2)(x+3) mod 5
        assert not oracles.is_irreducible((1,) * 7, 2)
        assert oracles.is_irreducible((1, 1, 0, 1), 2)
        assert not oracles.is_irreducible((5,), 7)


class TestFindIrreducible:
    def test_frozen(self):
        assert oracles.find_irreducible(5, 3) == (3, 4, 0, 1)
        assert oracles.find_irreducible(2, 4) == (1, 1, 0, 0, 1)
        assert oracles.find_irreducible(3, 1) == (0, 1)

    def test_properties(self):
        for p in (2, 3, 5, 13):
            for k in range(1, 6):
                m = oracles.find_irreducible(p, k)
                assert m[-1] == 1
                assert P.degree(m) == k
                assert oracles.is_irreducible(m, p)
                assert oracles.find_irreducible(p, k) == m  # deterministic


class TestEqualDegreeFactor:
    def test_frozen(self):
        assert P.equal_degree_factor((1, 1, 1, 1, 1), 1, 31) == (29, 1)
        assert P.equal_degree_factor((1,) * 7, 3, 2) == (1, 1, 0, 1)
        assert P.equal_degree_factor((1, 0, 1), 1, 13) == (5, 1)
        assert P.equal_degree_factor((1, 0, 1), 2, 7) == (1, 0, 1)

    def test_cyclotomic_inputs(self):
        """Factors of x^(l-1)+...+1 mod p: monic, irreducible, degree ord_p."""
        for ell in (3, 5, 7, 13):
            for p in (2, 3, 5, 7, 11, 29):
                if p == ell:
                    continue
                f = 1
                while pow(p, f, ell) != 1:
                    f += 1
                phi = (1,) * ell
                factor = P.equal_degree_factor(phi, f, p)
                assert P.degree(factor) == f
                assert factor[-1] == 1
                assert P.fp_divmod(phi, factor, p)[1] == ()
                assert oracles.is_irreducible(factor, p)

    def test_deterministic(self):
        a = P.equal_degree_factor((1,) * 11, 5, 3)
        b = P.equal_degree_factor((1,) * 11, 5, 3)
        assert a == b

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            P.equal_degree_factor((1, 1, 1), 4, 5)


class TestExtensionField:
    """F_p[y]/(m) for an irreducible m is the field F_{p^k}."""

    def test_element_counts_and_reduction(self):
        ring = P.QuotientRing(oracles.find_irreducible(3, 2), 3)
        elems = oracles.gf_elements(3, 2)
        assert len(elems) == 9
        assert len(set(elems)) == 9
        assert len({ring.pack(a) for a in elems}) == 9
        assert P.degree(ring.unpack(ring.pack((0, 0, 0, 0, 1)))) < 2

    def test_multiplicative_group(self):
        for p, k in ((2, 3), (3, 2), (5, 2)):
            ring = P.QuotientRing(oracles.find_irreducible(p, k), p)
            q = p**k
            for a in oracles.gf_elements(p, k):
                if a == ():
                    continue
                x = ring.pack(a)
                assert ring.pow(x, q - 1) == ring.pack((1,))
                assert ring.mul(x, ring.pow(x, q - 2)) == ring.pack((1,))

    def test_distributivity_sampled(self):
        rng = random.Random(71)
        ring = P.QuotientRing(oracles.find_irreducible(5, 2), 5)
        elems = oracles.gf_elements(5, 2)

        def add(x, y):
            return ring.pack(P.padd(ring.unpack(x), ring.unpack(y)))

        for _ in range(100):
            a, b, c = (ring.pack(rng.choice(elems)) for _ in range(3))
            lhs = ring.mul(a, add(b, c))
            rhs = add(ring.mul(a, b), ring.mul(a, c))
            assert lhs == rhs

    @pytest.mark.parametrize("m,p", [((5,), 7), ((3, 1), 7), ((2, 0, 1), 5)],
                             ids=["f=0", "f=1", "f=2"])
    def test_negative_exponent_is_refused(self, m, p):
        """A negative exponent raises at every degree: at f = 1 the
        built-in pow would invert, and at f > 1 the bit walk would read
        the sign as a digit (in F_5[y]/(y^2 + 2), (1 + y)^-1 came out y)."""
        ring = P.QuotientRing(m, p)
        for x in (0, ring.pack((1, 1))):
            for e in (-1, -2):
                with pytest.raises(ValueError, match="negative"):
                    ring.pow(x, e)
        assert ring.pow(0, 0) == ring.pack((1,))
        assert ring.pow(0, 3) == 0


# p in {2, 3, 5, ~1,300, 2^61 - 1, the largest prime below psi_13}
_KERNEL_PRIMES = (2, 3, 5, 1297, 2**61 - 1, 3317044064679887385961813)


def _kernel_cases(seed, per_pair):
    """(p, modulus, a, b) over every prime and modulus degree 1..20.

    Half the moduli are non-monic; operands run up to three terms past the
    modulus length with coefficients in [-2p, 2p], so they arrive
    unreduced.
    """
    rng = random.Random(seed)
    for p in _KERNEL_PRIMES:
        for d in range(1, 21):
            for _ in range(per_pair):
                lead = rng.randrange(1, p) if rng.random() < 0.5 else 1
                m = tuple(rng.randrange(p) for _ in range(d)) + (lead,)
                a, b = (tuple(rng.randint(-2 * p, 2 * p)
                              for _ in range(rng.randint(0, d + 4)))
                        for _ in range(2))
                yield p, m, a, b


def _exponent(rng):
    return rng.choice((0, 1, 2, rng.randrange(3, 10**3),
                       rng.randrange(10**3, 10**9)))


class TestPackedKernel:
    """The packed F_p[y]/(m) kernel against the tuple routines it replaced
    (schoolbook product and long division, in oracles.py) and against
    sympy's galoistools; about 29,600 seeded inputs in all."""

    def test_mulmod_matches_schoolbook(self):
        count = 0
        for p, m, a, b in _kernel_cases(81, 50):
            assert mulmod(a, b, m, p) == oracles.fp_mulmod(a, b, m, p)
            count += 1
        assert count == 6_000

    def test_powmod_matches_schoolbook(self):
        rng = random.Random(82)
        count = 0
        for p, m, a, _ in _kernel_cases(83, 10):
            e = _exponent(rng)
            assert powmod(a, e, m, p) == oracles.fp_powmod(a, e, m, p)
            count += 1
        # the exponents up to 10^30, on smaller moduli: each costs about
        # 150 schoolbook products
        for p, m, a, _ in _kernel_cases(84, 1):
            if len(m) <= 9:
                e = rng.randrange(10**30)
                assert powmod(a, e, m, p) == oracles.fp_powmod(a, e, m, p)
                assert powmod(a, 10**30, m, p) == oracles.fp_powmod(
                    a, 10**30, m, p)
                count += 2
        assert count == 1_200 + 6 * 8 * 2

    def test_powmod_matches_sympy(self):
        rng = random.Random(85)
        count = 0
        for p, m, a, _ in _kernel_cases(86, 17):
            big = len(m) <= 9 and count % 5 == 0
            e = rng.randrange(10**30) if big else _exponent(rng)
            dense = [c % p for c in reversed(a)]
            while dense and not dense[0]:
                dense.pop(0)
            want = gf_pow_mod(dense, e, [c % p for c in reversed(m)], p, ZZ)
            assert powmod(a, e, m, p) == tuple(reversed(want))
            count += 1
        assert count == 2_040

    @pytest.mark.parametrize("q", [q for q in range(2, 50)
                                   if len(sympy.factorint(q)) == 1])
    def test_every_pair_of_a_small_field(self, q):
        (p, k), = sympy.factorint(q).items()
        m = oracles.find_irreducible(p, k)
        elems = oracles.gf_elements(p, k)
        assert len(elems) == q
        for u in elems:
            for v in elems:
                assert mulmod(u, v, m, p) == oracles.fp_mulmod(u, v, m, p)
            for e in (0, 1, 2, q - 2, q, 10**30):
                assert powmod(u, e, m, p) == oracles.fp_powmod(u, e, m, p)

    def test_prime_field_is_plain_residues(self):
        for p in _KERNEL_PRIMES:
            ring = P.QuotientRing((3, 1), p)
            assert ring.fold == []
            x, y = ring.pack((-1,)), ring.pack((p + 5,))
            assert (x, y) == (p - 1, 5 % p)
            assert ring.mul(x, y) == x * y % p
            assert ring.pow(x, p - 1) == 1

    def test_nonmonic_modulus_has_the_monic_remainders(self):
        rng = random.Random(87)
        for p, m, a, b in _kernel_cases(88, 1):
            monic = P.fp_trim(P.pscale(m, pow(m[-1], -1, p)), p)
            assert mulmod(a, b, m, p) == mulmod(a, b, monic, p)
            e = _exponent(rng)
            assert powmod(a, e, m, p) == powmod(a, e, monic, p)

    def test_constant_modulus_is_the_zero_ring(self):
        for e in (0, 1, 2, 10**30):
            assert powmod((1, 2), e, (5,), 7) == ()
            assert powmod((), e, (-2,), 7) == ()
        assert mulmod((1,), (1,), (5,), 7) == ()
        with pytest.raises(ZeroDivisionError):
            powmod((1, 2), 0, (7, 14), 7)
