"""Shared integer helpers: primality bound, valuations, prime powers,
square roots mod p, F_l echelon, and the CLI faults that the primality and
big-integer paths had."""

import random

import pytest

from semistable_lab import arith, cli
from semistable_lab.arith import (
    PRIMALITY_BOUND,
    factorize,
    is_prime,
    is_squarefree,
    ord_at,
    prime_power,
    prime_power_table,
    sqrt_mod,
)
from semistable_lab.padic import fl_echelon
import oracles
from oracles import prime_power_every_candidate, squarefree_by_trial

# strong pseudoprimes to the prime bases 2..7 and 2..11 (Jaeschke, Math.
# Comp. 61, 1993), and to 2..37 and 2..41 (Sorenson & Webster, Math.
# Comp. 86, 2017)
PSI_4 = 3215031751
PSI_5 = 2152302898747
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def trial_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(-5, 5000) if is_prime(n)] == [
            n for n in range(-5, 5000) if trial_prime(n)]

    def test_agrees_with_a_sieve_below_10_6(self):
        """Below psi_5 only the bases 2..11 run."""
        top = 10**6
        sieve = bytearray([0, 0]) + bytearray([1]) * (top - 2)
        for d in range(2, 1000):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, top, d)))
        assert [n for n in range(top) if is_prime(n)] == [
            n for n in range(top) if sieve[n]]

    def test_psi_4_and_psi_5_are_composite(self):
        assert PSI_4 == 151 * 751 * 28351
        assert is_prime(PSI_4) is False  # base 11 rejects it
        assert PSI_5 == 6763 * 10627 * 29947
        assert is_prime(PSI_5) is False  # from psi_5 on, 13 bases run

    def test_psi_12_is_composite(self):
        assert PSI_12 == 399165290221 * 798330580441
        assert is_prime(PSI_12) is False

    def test_base_list_is_what_the_psi_13_proof_needs(self):
        """The bases are the first 13 primes: psi_12 passes the strong test
        to each of 2..37 and fails it to 41, so the 13th base alone turns
        psi_12 away."""
        def strong_probable_prime(n, a):
            d, s = n - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            x = pow(a, d, n)
            if x in (1, n - 1):
                return True
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    return True
            return False

        assert arith._MR_BASES == tuple(
            n for n in range(2, 42) if trial_prime(n))
        assert all(strong_probable_prime(PSI_12, a)
                   for a in arith._MR_BASES[:12])
        assert not strong_probable_prime(PSI_12, 41)
        assert is_prime(PSI_12) is False

    def test_bound_is_psi_13(self):
        assert PRIMALITY_BOUND == PSI_13 == 1287836182261 * 2575672364521
        assert is_prime(PSI_13 - 1) is False  # just below: answered

    # 10^5000 is past the 4,300-digit int -> str limit: the refusal names
    # the bound, not n
    @pytest.mark.parametrize("n", [PSI_13, PSI_13 + 2, 10**30,
                                   pytest.param(10**5000, id="10^5000")])
    def test_refused_from_psi_13_on(self, n):
        with pytest.raises(ValueError, match=str(PSI_13)):
            is_prime(n)

    def test_factorize_small_inputs(self):
        assert factorize(1) == {}
        assert factorize(-360) == {2: 3, 3: 2, 5: 1}
        assert factorize(10007 * 10009) == {10007: 1, 10009: 1}


class TestOrdAt:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="valuation of 0"):
            ord_at(0, 3)

    @pytest.mark.parametrize("n,p,v", [(-24, 2, 3), (-81, 3, 4), (-7, 3, 0),
                                       (-1, 5, 0), (-250, 5, 3)])
    def test_negative_arguments(self, n, p, v):
        assert ord_at(n, p) == v == ord_at(-n, p)

    def test_matches_repeated_division(self):
        for n in range(1, 3000):
            for p in (2, 3, 5, 7):
                m, v = n, 0
                while m % p == 0:
                    m, v = m // p, v + 1
                assert ord_at(n, p) == v


class TestPrimePower:
    def test_matches_trial_division(self):
        for n in range(1, 20001):
            factors, m, d = [], n, 2
            while d * d <= m:
                while m % d == 0:
                    factors.append(d)
                    m //= d
                d += 1
            if m > 1:
                factors.append(m)
            expected = ((factors[0], len(factors))
                        if factors and len(set(factors)) == 1 else None)
            assert prime_power(n) == expected, n

    @pytest.mark.parametrize("n", [0, -1, -8])
    def test_below_two_is_not_a_prime_power(self, n):
        assert prime_power(n) is None

    def test_matches_the_every_candidate_loop(self):
        """Odd candidates only, against trial division by every integer:
        all n below 2 * 10^5, powers p^k (k <= 4) of the primes near 10^3
        and 10^4, and products of two consecutive primes near 10^3, 10^4
        and 10^5."""
        near = [[q for q in range(c - 40, c + 40) if is_prime(q)]
                for c in (10**3, 10**4, 10**5)]
        cases = list(range(-2, 2 * 10**5))
        cases += [q**k for qs in near[:2] for q in qs for k in range(1, 5)]
        cases += [q * r for qs in near for q, r in zip(qs, qs[1:])]
        for n in cases:
            assert prime_power(n) == prime_power_every_candidate(n), n


def table_prime(table, n):
    """The prime of n read off a prime_power_table, or None."""
    sieve, powers = table
    return n if sieve[n] else powers.get(n)


class TestPrimePowerTable:
    """The sieved table is prime_power for every n up to its limit; the
    box search's own bounds are checked in test_families."""

    def test_matches_prime_power_below_2_to_the_17(self):
        limit = 2**17 - 1
        table = prime_power_table(limit)
        assert len(table[0]) == limit + 1
        for n in range(limit + 1):
            pk = prime_power(n)
            assert table_prime(table, n) == (pk and pk[0]), n

    @pytest.mark.parametrize("limit", range(10))
    def test_tiny_limits(self, limit):
        table = prime_power_table(limit)
        assert len(table[0]) == limit + 1
        assert [table_prime(table, n) for n in range(limit + 1)] == [
            None, None, 2, 3, 2, 5, None, 7, 2, 3][:limit + 1]
        assert all(q <= limit for q in table[1])


class TestSquarefree:
    def test_matches_trial_division(self):
        """Trial division to the cube root, then a square test, against
        trial division to the square root: all n below 2 * 10^4, and seeded
        p^2, p^2 q, p^3 and pq with p, q near the cube root of n."""
        rng = random.Random(19)
        primes = [q for q in range(3, 600) if is_prime(q)]
        cases = list(range(-50, 2 * 10**4))
        for _ in range(100):
            p, q = rng.sample(primes, 2)
            cases += [p * p, p * p * q, p**3, p * q, 2 * p * q, 2 * p * p,
                      4 * p * q]
        # pq with q the primes nearest p^2, so that p is the cube root of
        # pq to within a factor 1 + 1/p, and p^2 q with q the primes
        # next to p
        for p in primes[:60]:
            below = next(q for q in range(p * p, 1, -1) if is_prime(q))
            above = next(q for q in range(p * p, 2 * p * p) if is_prime(q))
            cases += [p * below, p * above, 2 * p * below, 2 * p * above]
            left = max(q for q in primes if q < p) if p > 3 else 2
            right = min(q for q in primes if q > p)
            cases += [p * p * left, p * p * right, p * p * p]
        for n in cases:
            assert is_squarefree(n) == squarefree_by_trial(n), n


class TestSqrtMod:
    def test_matches_brute_force_below_2000(self):
        # p = 2, p = 3 mod 4, and p = 1 mod 8 (Tonelli loop with s >= 3)
        primes = [p for p in range(2, 2000) if trial_prime(p)]
        assert {p % 8 for p in primes} == {1, 2, 3, 5, 7}
        for p in primes:
            least = {}
            for r in range(p - 1, -1, -1):
                least[r * r % p] = r
            assert [sqrt_mod(n, p) for n in range(p)] == [
                least.get(n) for n in range(p)], p

    @pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (3, 17), (-1, 7)])
    def test_non_residue_is_none(self, n, p):
        assert sqrt_mod(n, p) is None

    @pytest.mark.parametrize("p", [2, 3, 17, 1000000007])
    def test_zero_has_root_zero(self, p):
        assert sqrt_mod(0, p) == 0
        assert sqrt_mod(5 * p, p) == 0

    @pytest.mark.parametrize("n,p", [(1, 9), (16, 85)])
    def test_composite_modulus_refused(self, n, p):
        # (1, 9): no z < 9 passes as a non-residue; (16, 85): the order
        # search for t runs past s
        with pytest.raises(ValueError, match="prime modulus"):
            sqrt_mod(n, p)

    @pytest.mark.parametrize("p", [2**61 - 1, 998244353])  # s = 1, s = 23
    def test_large_primes(self, p):
        for n in (-1, 2, 3, 10**18, 123456789):
            r = sqrt_mod(n, p)
            residue = pow(n, (p - 1) // 2, p) == 1
            assert (r is not None) == residue
            assert r is None or (r * r - n) % p == 0 and 2 * r < p


class TestFlEchelon:
    """padic.fl_echelon, the column engine at precision 1, against the
    vector-at-a-time elimination it replaced."""

    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 19])
    def test_rank_matches_oracle(self, ell):
        rng = random.Random(f"fl-echelon:{ell}")
        for _ in range(200):
            r = rng.randint(1, 6)
            vecs = [[rng.randrange(-3 * ell, 3 * ell) for _ in range(r)]
                    for _ in range(rng.randint(0, 5))]
            # redundant combinations keep the rank below the vector count
            for _ in range(rng.randint(0, 3)):
                if vecs:
                    a, b = rng.choice(vecs), rng.choice(vecs)
                    c = rng.randrange(ell)
                    vecs.append([x + c * y for x, y in zip(a, b)])
            basis = fl_echelon(vecs, ell)
            assert basis == oracles.fl_echelon(vecs, ell)
            pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
            assert pivots == sorted(set(pivots))
            for b, p in zip(basis, pivots):
                assert b[p] == 1
                assert all(other[p] == 0 for other in basis if other is not b)


class TestCliFaults:
    @pytest.mark.parametrize("n", [PSI_12, PSI_13])
    def test_pseudoprime_refused_without_report(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve-info", "--curve", "0,-1,1,-10,-20",
                      "--primes", str(n)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_huge_cofactor_gets_the_psi_13_refusal(self, capsys):
        """A 1,501-digit coefficient makes a discriminant cofactor far past
        psi_13: the refusal names it by its bit length, where writing it
        out broke the message."""
        coeffs = "0,-1,2,-2,0," + str(10**1500 + 7)
        with pytest.raises(SystemExit) as exc:
            cli.main(["genus2-disc", "--p-coeffs", coeffs, "--q-coeffs", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"below psi_13 = {PSI_13} (82 bits)" in captured.err

    def test_modulus_past_int_str_limit(self):
        # 5^6200 has 4334 digits, past the default limit of 4300; the
        # string is read back in chunks so the limit is never raised here
        report, status = cli.run(["verify-identities", "--ell", "5", "--s",
                                  "5", "--precision", "6200", "--d", "1"])
        assert status == 0
        assert report["checks"]
        assert all(c["pass"] for c in report["checks"])
        digits = report["results"]["modulus"]
        assert len(digits) == 4334 and digits.isdigit()
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == 5**6200
