"""Request lists of the three workloads, drawn from the seed.

A request is one command line of the `semistable-lab` CLI.  A workload's
request list is drawn once per run and replayed unchanged in every pass.
`group` names the end-to-end metric a request's wall time is summed into;
`fault` marks a request that fails because of a known fault in the program.
The requests of a group are contiguous and ask for distinct computations
(no discriminant twice, no shear s twice for one l), so a cache kept
across calls cannot serve one request from another.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from oracles import PSEUDOPRIMES, is_fundamental, is_prime_td, mult_order


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    group: str | None = None  # "primary", "secondary" or None
    fault: str | None = None

    @property
    def name(self) -> str:
        return " ".join(self.argv)


# The README's "Command line" block, in its order.
README_LINES = [
    "controlled-degree --p 41",
    "gamma-rank --ell 5 --p 31",
    "class-number --disc -164",
    "verify-identities --ell 5 --s 5 --precision 4 --d 1",
    "isogeny-maximal --ell 2 --s 2 --n 1",
    "ns-enumerate --bound 10000",
    "miyawaki-search --ell 3",
    "dagger --ell 3 --p 19",
    "ramification --orders 4,2,1 --ell 2",
    "curve-info --curve 0,-1,1,-10,-20 --primes 2,11",
    "genus2-disc --p-coeffs 0,-1,2,-2,0,1 --q-coeffs 1",
    "paper-suite",
]

# |D| bands for class-number and controlled-degree: each draw lies in
# [band, 1.02 * band], so the O(|D|) cost varies little between seeds.
DISC_BANDS = (10**4, 10**5, 10**6, 10**7)
# (ell, residue degree f > 1) for gamma-rank; a fixed f per ell keeps the
# cost of one request nearly independent of the seed.
GAMMA_DEGREES = ((3, 2), (5, 4), (7, 3), (11, 2), (13, 3), (19, 3))
GAMMA_WINDOW = (1200, 1400)
# Lattice grid (ell, n), each with ISOGENY_SHEARS draws of s; d = 2 comes in
# through the product graph.  l^n = 8 and 9 (6 to 8 s per request) are left
# to scaling.py: a run of a few such requests gives no steady figure.
ISOGENY_GRID = ((2, 1), (2, 2), (3, 1), (5, 1))
ISOGENY_SHEARS = 2
# verify-identities precisions: moduli of 4100 to 4300 decimal digits.
IDENTITY_PRECISION = {3: (8600, 9000), 5: (5870, 6150)}

PRIMALITY_CURVE = "0,-1,1,-10,-20"


def _band_primes(rng, lo, hi, residue, modulus, count, avoid=()):
    """`count` distinct primes p = residue mod modulus in [lo, hi), none
    of them in `avoid`."""
    found = set()
    while len(found) < count:
        p = rng.randrange(lo, hi)
        p += (residue - p) % modulus
        if p < hi and p not in avoid and is_prime_td(p):
            found.add(p)
    return sorted(found)


def _shears(rng, ell, count):
    """`count` distinct s with v_ell(s) = 1."""
    return [ell * k for k in
            rng.sample([k for k in range(1, 30) if k % ell], count)]


def paper(rng):
    return [Request(tuple(line.split()),
                    "primary" if line == "paper-suite" else "secondary")
            for line in README_LINES]


def fields(rng):
    reqs, used = [], set()  # |D| of the class-number requests
    for band in DISC_BANDS:
        hi = band * 102 // 100
        if band <= 10**5:
            discs = set()
            while len(discs) < 2:
                d = -rng.randrange(band, hi)
                if is_fundamental(d):
                    discs.add(d)
            discs = sorted(discs, reverse=True)
        else:
            # prime discriminants -q keep the class number formula cheap
            discs = [-q for q in _band_primes(rng, band, hi, 3, 4, 2)]
        reqs += [Request(("class-number", "--disc", str(d)), "primary")
                 for d in discs]
        used.update(-d for d in discs)
    for band in DISC_BANDS:
        hi = band * 102 // 100
        # D = -p or -4p, never a discriminant of a class-number request
        ps = (_band_primes(rng, band, hi, 3, 4, 1, used)
              + _band_primes(rng, band // 4, hi // 4, 1, 4, 1,
                             {q // 4 for q in used if q % 4 == 0}))
        reqs += [Request(("controlled-degree", "--p", str(p)), "primary")
                 for p in ps]
    lo, hi = GAMMA_WINDOW
    for ell, f in GAMMA_DEGREES:
        split = _band_primes(rng, lo, hi, 1, ell, 1)
        inert = [p for p in range(lo, hi) if p % ell and is_prime_td(p)
                 and mult_order(p, ell) == f]
        for p in split + [rng.choice(inert)]:
            reqs.append(Request(("gamma-rank", "--ell", str(ell), "--p",
                                 str(p)), "secondary"))
    for name in ("psi12", "psi13"):
        n = PSEUDOPRIMES[name][0]
        reqs.append(Request(("curve-info", "--curve", PRIMALITY_CURVE,
                             "--primes", str(n)), fault=f"{name}-reported-prime"))
    return reqs


def lattice(rng):
    per_ell = Counter(ell for ell, _n in ISOGENY_GRID)
    shears = {ell: _shears(rng, ell, ISOGENY_SHEARS * k)
              for ell, k in per_ell.items()}
    reqs = [Request(("isogeny-maximal", "--ell", str(ell), "--s",
                     str(shears[ell].pop()), "--n", str(n)), "primary")
            for ell, n in ISOGENY_GRID for _ in range(ISOGENY_SHEARS)]
    for ell in (3, 5):
        lo, hi = IDENTITY_PRECISION[ell]
        for d, s in zip((1, 2), _shears(rng, ell, 2)):
            reqs.append(Request(
                ("verify-identities", "--ell", str(ell), "--s",
                 str(s), "--precision",
                 str(rng.randrange(lo, hi)), "--d", str(d)), "secondary"))
    # 5^6200 has 4334 decimal digits, past the int -> str limit of 4300
    reqs.append(Request(("verify-identities", "--ell", "5", "--s", "5",
                         "--precision", "6200", "--d", "1"),
                        fault="int-str-limit"))
    return reqs


WORKLOADS = {"paper": paper, "fields": fields, "lattice": lattice}

# What the two timed groups of each workload stand for.
GROUP_NAMES = {
    "paper": ("paper_suite_s", "readme_lines_s"),
    "fields": ("class_number_s", "gamma_rank_s"),
    "lattice": ("isogeny_maximal_s", "identities_s"),
}


def build(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(seed))
