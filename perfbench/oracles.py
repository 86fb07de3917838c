"""Independent reference computations for checking semistable-lab reports.

Nothing here imports the package: every value is recomputed by a different
route (Dirichlet's class number formula instead of reduced-form counting,
trial division instead of Miller-Rabin, set closure instead of echelon
lattices, explicit step-function integrals instead of the Herbrand helpers).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# Published values quoted by the paper and the README.
PUBLISHED = {
    "class_number": {-164: 8},
    "controlled_degree": {41: (8, 32)},
    "gamma_quotient_rank": {(5, 31): 3},
    "miyawaki_primes": {3: [19, 37], 5: [11], 7: []},
    # dagger valuation: 4 at (2, 17), ell elsewhere
    "dagger_valuation": {(2, 17): 4, (2, 73): 2, (3, 19): 3, (3, 37): 3,
                         (5, 11): 5},
    "genus2_odd_primes": [277],
}

# Strong pseudoprimes to the first 12 and 13 prime bases with their
# factorizations (Sorenson & Webster, Math. Comp. 86, 2017).
PSEUDOPRIMES = {
    "psi12": (318665857834031151167461, (399165290221, 798330580441)),
    "psi13": (3317044064679887385961981, (1287836182261, 2575672364521)),
}


# ------------------------------------------------------------- integers


def is_prime_td(n: int) -> bool:
    """Primality by trial division (desk-scale n only)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_factors_td(n: int) -> list[int]:
    """Distinct prime factors of |n| by trial division."""
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def valuation(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def mult_order(a: int, n: int) -> int:
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def is_fundamental(disc: int) -> bool:
    if disc >= 0:
        return False
    if disc % 4 == 1:
        m = -disc
    elif disc % 4 == 0 and (disc // 4) % 4 in (2, 3):
        m = -disc // 4
    else:
        return False
    return all(valuation(m, p) == 1 for p in prime_factors_td(m))


# ----------------------------------------------------- class numbers


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a / n) for any integers a, n."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    v = valuation(n, 2)
    if v:
        if a % 2 == 0:
            return 0
        n >>= v
        if v % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _square_table(p: int) -> bytearray:
    """t[r] = 1 exactly for the nonzero squares r mod the odd prime p."""
    t = bytearray(p)
    for x in range(1, p // 2 + 1):
        t[x * x % p] = 1
    return t


def _character_sum_direct(disc: int) -> int:
    return sum(kronecker(disc, a) for a in range(1, (-disc + 1) // 2))


def _character_sum_table(disc: int) -> int:
    """Sum of chi_D(a) over 0 < a < |D|/2 for D = -q or D = -4p, p and q prime.

    chi_{-q}(a) = (a/q) for q = 3 mod 4, and chi_{-4p}(a) = (-1/a)(a/p) on
    odd a for p = 1 mod 4, by quadratic reciprocity; both are spot-checked
    against `kronecker` before use.
    """
    if -disc % 4 == 3:
        q = -disc
        t = _square_table(q)

        def chi(a):
            return 0 if a % q == 0 else (1 if t[a % q] else -1)

        total = 2 * t[1:(q + 1) // 2].count(1) - (q - 1) // 2
    else:
        p = -disc // 4
        t = _square_table(p)

        def chi(a):
            if a % 2 == 0 or a % p == 0:
                return 0
            return (1 if t[a % p] else -1) * (1 if a % 4 == 1 else -1)

        total = 0
        for a in range(1, 2 * p, 2):
            r = a % p
            if r:
                total += (1 if t[r] else -1) * (1 if a % 4 == 1 else -1)
    step = max(1, -disc // 97)
    for a in range(1, -disc, step):
        if chi(a) != kronecker(disc, a):
            raise AssertionError(f"character table disagrees at D={disc}, a={a}")
    return total


def class_number_dirichlet(disc: int) -> int:
    """h(D) by Dirichlet's class number formula for a fundamental D < 0.

    h = w/(2|D|) * |sum_{a=1}^{|D|} chi(a) a| in general, and for D < -4
    h = sum_{0<a<|D|/2} chi(a) / (2 - chi(2)).
    """
    if not is_fundamental(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    if disc >= -4:
        w = 6 if disc == -3 else 4
        s = sum(kronecker(disc, a) * a for a in range(1, -disc))
        return Fraction(-w * s, 2 * -disc).numerator
    m = -disc if -disc % 4 == 3 else -disc // 4
    prime_type = (-disc % 4 == 3 or m % 4 == 1) and is_prime_td(m)
    if prime_type and -disc > 200000:
        total = _character_sum_table(disc)
    else:
        total = _character_sum_direct(disc)
    h = Fraction(total, 2 - kronecker(disc, 2))
    if h.denominator != 1 or h <= 0:
        raise AssertionError(f"class number formula gave {h} at D={disc}")
    return h.numerator


def genus_divisor(disc: int) -> int:
    """2^(t-1) with t the number of primes dividing D; it divides h(D)."""
    return 2 ** (len(prime_factors_td(disc)) - 1)


# ------------------------------------------------------- elliptic curves


def curve_invariants(a1, a2, a3, a4, a6) -> tuple[int, int]:
    """(c4, discriminant) of a Weierstrass model, Silverman III.1."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2 * b2 - 24 * b4, disc


def square_plus_64_primes(bound: int) -> list[int]:
    """Primes u^2 + 64 <= bound (u odd), by trial division."""
    out = []
    u = 1
    while u * u + 64 <= bound:
        if is_prime_td(u * u + 64):
            out.append(u * u + 64)
        u += 2
    return out


# ---------------------------------------------------------- ramification


def herbrand_phi(orders: list[int], u: Fraction) -> Fraction:
    """Integral of the step function |G_t| / |G_0| over [0, u].

    G_t = G_ceil(t) on (i - 1, i]; each unit piece is integrated by its
    overlap with [0, u].
    """
    g0 = orders[0]
    total = Fraction(0)
    i = 1
    while i - 1 < u:
        width = min(Fraction(i), u) - (i - 1)
        order = orders[i] if i < len(orders) else 1
        total += width * Fraction(order, g0)
        i += 1
    return total


# ------------------------------------------------------ modular matrices


def mat_mul(a, b, m):
    n, k, c = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) % m for j in range(c)]
            for i in range(n)]


def mat_sub(a, b, m):
    return [[(x - y) % m for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def block_diag(block, d, m):
    size = 2 * d
    out = [[0] * size for _ in range(size)]
    for k in range(d):
        for i in range(2):
            for j in range(2):
                out[2 * k + i][2 * k + j] = block[i][j] % m
    return out


def scalar(c, size, m):
    return [[c % m if i == j else 0 for j in range(size)] for i in range(size)]


def inertia_pair(ell: int, s: int, omega: int, d: int, m: int):
    """sigma, tau, and their inverses for the standard block model."""
    w_inv = pow(omega, -1, m)
    sigma = block_diag([[1, s], [0, 1]], d, m)
    sigma_inv = block_diag([[1, -s], [0, 1]], d, m)
    tau = block_diag([[0, -omega], [1, 1 + omega]], d, m)
    tau_inv = block_diag([[(1 + omega) * w_inv, 1], [-w_inv, 0]], d, m)
    return sigma, sigma_inv, tau, tau_inv


def identities(ell: int, s: int, omega: int, d: int, m: int):
    """{name: (lhs, rhs)} of the inertia-pair identities, recomputed."""
    sg, sg_inv, tu, tu_inv = inertia_pair(ell, s, omega, d, m)
    size = 2 * d
    out = {}
    if ell in (2, 3):
        out["twisted-commutation"] = (
            mat_sub(mat_mul(sg, tu, m), mat_mul(tu, sg_inv, m), m),
            scalar(s, size, m))
    else:
        t2 = mat_mul(tu, tu, m)
        out["twisted-commutation-tau-squared"] = (
            mat_sub(mat_mul(sg, t2, m), mat_mul(t2, sg_inv, m), m),
            scalar((1 + omega) * s, size, m))
    conj = mat_mul(mat_mul(tu_inv, sg, m), tu, m)
    rhs = block_diag([[1, 2 * (1 + omega)], [0, -1]], d, m)
    factor = s * s * pow(omega, -1, m) % m
    out["conjugate-difference"] = (
        mat_sub(mat_mul(conj, sg, m), mat_mul(sg, conj, m), m),
        [[factor * x % m for x in row] for row in rhs])
    return out


def omega_mod(ell: int, q: int) -> int:
    """omega mod q = ell^k: -1 for ell = 2, 3; the 4th root of unity = 2 mod 5."""
    if ell in (2, 3):
        return q - 1
    return next(x for x in range(2, q, 5) if pow(x, 4, q) == 1)


def stable_subgroup_count(ell: int, s: int, k: int) -> int:
    """Number of sigma,tau-stable subgroups of (Z/ell^k)^2, by set closure."""
    q = ell ** k
    w = omega_mod(ell, q)

    def sigma(v):
        return ((v[0] + s * v[1]) % q, v[1])

    def tau(v):
        return ((-w * v[1]) % q, (v[0] + (1 + w) * v[1]) % q)

    def span(vectors) -> frozenset:
        group = {(0, 0)}
        for v in vectors:
            if v in group:
                continue
            multiples = [((c * v[0]) % q, (c * v[1]) % q) for c in range(q)]
            group = {((a + x) % q, (b + y) % q)
                     for a, b in group for x, y in multiples}
        return frozenset(group)

    def closure(v) -> frozenset:
        orbit, todo = {v}, [v]
        while todo:
            cur = todo.pop()
            for img in (sigma(cur), tau(cur)):
                if img not in orbit:
                    orbit.add(img)
                    todo.append(img)
        return span(sorted(orbit))

    found = {closure((x, y)) for x in range(q) for y in range(q)}
    work = list(found)
    while work:
        cur = work.pop()
        for other in list(found):
            total = span(sorted(cur | other))
            if total not in found:
                found.add(total)
                work.append(total)
    return len(found)


# ------------------------------------------------------------- self test


def self_test() -> None:
    """Raise AssertionError unless the oracles reproduce known small values."""
    known_h = {-3: 1, -4: 1, -7: 1, -8: 1, -23: 3, -47: 5, -56: 4,
               -71: 7, -84: 4, -164: 8, -420: 8}
    for disc, h in known_h.items():
        assert class_number_dirichlet(disc) == h, disc
        assert h % genus_divisor(disc) == 0, disc
    # the table route against the direct route on prime-type discriminants
    for disc in (-200003, -4 * 50021):
        assert _character_sum_table(disc) == _character_sum_direct(disc), disc
    assert kronecker(-164, 3) == kronecker(-164, 3 + 164)
    for name, (n, (p, q)) in PSEUDOPRIMES.items():
        assert p * q == n and 1 < p < n, name
    assert square_plus_64_primes(200) == [73, 89, 113]
    assert curve_invariants(0, -1, 1, -10, -20)[1] == -(11 ** 5)
    phi = herbrand_phi([4, 2, 1], Fraction(1))
    assert phi == Fraction(1, 2), phi
    assert omega_mod(5, 25) == 7
    # (Z/2)^2 with the swap tau: 0, the diagonal and the whole group
    assert stable_subgroup_count(2, 2, 1) == 3
