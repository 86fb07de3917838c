"""Write the corpora that test_golden.py checks.

`golden_reports.json` holds every distinct request of the `paper`,
`fields` and `lattice` benchmark workloads at seeds 1 to 5, in first-seen
order.  `golden_limits.json` holds every row of the README limits table:
requests at the limit, which are answered, and one past it, which exit 2
and so pin the refusal text.  Each request is run in process through
`cli.main`.  Run it from the root of a checkout:

    PYTHONPATH=src python tests/make_golden.py

Regenerate only when a change means to alter report bytes, and name each
changed row in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from semistable_lab import cli
from semistable_lab.arith import PRIMALITY_BOUND as _PSI_13

CORPUS = Path(__file__).with_name("golden_reports.json")
LIMITS = Path(__file__).with_name("golden_limits.json")
# argparse wraps usage lines to the terminal width, read from COLUMNS
COLUMNS = "80"
SEEDS = range(1, 6)

_FIRST_PRIMES = [p for p in range(2, 8000)
                 if all(p % q for q in range(2, int(p**0.5) + 1))]

# README limits-table row (its first cell, without backticks) -> requests
# at the limit, then past it.  The boundary values: 99999999995 is the
# largest fundamental |D| <= 10^11, 99999999947 the largest prime
# p = 3 mod 4 below it (so D = -p), and psi_13 - 168 the largest prime
# below psi_13.
LIMIT_REQUESTS = {
    "_DISC_LIMIT": (
        ("class-number", "--disc", "-99999999995"),
        ("controlled-degree", "--p", "99999999947"),
        ("class-number", "--disc", "-100000000003"),
        ("controlled-degree", "--p", "100000000003"),
    ),
    "_ELL_LIMIT": (
        ("gamma-rank", "--ell", "19", "--p", "191"),
        ("gamma-rank", "--ell", "23", "--p", "47"),
    ),
    "require_searchable": (
        ("isogeny-maximal", "--ell", "2", "--s", "2", "--n", "3"),
        ("isogeny-maximal", "--ell", "3", "--s", "3", "--n", "2"),
        ("isogeny-maximal", "--ell", "2", "--s", "2", "--n", "4"),
        ("isogeny-maximal", "--ell", "3", "--s", "3", "--n", "3"),
        ("isogeny-maximal", "--ell", "5", "--s", "5", "--n", "2"),
    ),
    "v_l(s) = 1": (
        ("isogeny-maximal", "--ell", "2", "--s", "6", "--n", "2"),
        ("isogeny-maximal", "--ell", "2", "--s", "4", "--n", "1"),
        ("isogeny-maximal", "--ell", "2", "--s", "4", "--n", "2"),
    ),
    "_PRECISION_LIMIT": (
        ("verify-identities", "--ell", "5", "--s", "5",
         "--precision", "20000", "--d", "4"),
        ("verify-identities", "--ell", "5", "--s", "5",
         "--precision", "20001", "--d", "1"),
    ),
    "_BLOCK_LIMIT": (
        ("verify-identities", "--ell", "5", "--s", "5",
         "--precision", "4", "--d", "4"),
        ("verify-identities", "--ell", "5", "--s", "5",
         "--precision", "4", "--d", "5"),
    ),
    "ψ₁₃ refusal (PRIMALITY_BOUND)": (
        ("curve-info", "--curve", "0,-1,1,-10,-20",
         "--primes", str(_PSI_13 - 168)),
        ("curve-info", "--curve", "0,-1,1,-10,-20",
         "--primes", str(_PSI_13)),
    ),
    "_NS_BOUND_LIMIT": (
        ("ns-enumerate", "--bound", str(10**10)),
        ("ns-enumerate", "--bound", str(10**10 + 1)),
    ),
    "_BOX_LIMIT": (
        ("miyawaki-search", "--ell", "3", "--bound", "32"),
        ("miyawaki-search", "--ell", "3", "--bound", "33"),
    ),
    "_ORDERS_LIMIT": tuple(
        ("ramification", "--orders", ",".join(["4"] + ["2"] * twos + ["1"]),
         "--ell", "2")
        for twos in (cli._ORDERS_LIMIT - 2, cli._ORDERS_LIMIT - 1)),
    "_PRIMES_LIMIT": (
        ("curve-info", "--curve", "0,-1,1,-10,-20",
         "--primes", ",".join(map(str, _FIRST_PRIMES[:1000]))),
        ("curve-info", "--curve", "0,-1,1,-10,-20",
         "--primes", ",".join(map(str, _FIRST_PRIMES[:1001]))),
    ),
    # a6 = 10^4299 + 1 and 10^4300 + 1, spelt out: the interpreter may
    # refuse to write an int of more than 4,300 digits as text
    "_DIGITS_LIMIT": tuple(
        ("curve-info", "--curve", "0,0,0,1,1" + "0" * zeros + "1")
        for zeros in (4298, 4299)),
    # P with leading coefficient 360998 and 1000003: odd parts of 82 bits,
    # 4.1e19 below psi_13, and of 92 bits
    "ψ₁₃ on the odd part (PRIMALITY_BOUND)": tuple(
        ("genus2-disc", "--p-coeffs", f"0,-1,2,-2,0,{c}", "--q-coeffs", "1")
        for c in (360998, 1000003)),
}
# Limits-table rows that no request reaches, so neither side has a row.
UNREACHED = {
    "_COUNT_LIMIT": "count_points is reached by requests only at q <= 37",
}


def run_request(argv):
    """(exit status, stdout SHA-256, stderr SHA-256) of one in-process
    request; a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code
    return (status, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


def requests():
    """The distinct workload requests, in first-seen order."""
    # perfbench's own `oracles` module must shadow the one in tests/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    seen = {}
    for name in ("paper", "fields", "lattice"):
        for seed in SEEDS:
            for req in workloads.build(name, seed):
                seen.setdefault(req.argv, None)
    return list(seen)


def _row(argv, **extra):
    status, out, err = run_request(argv)
    return {**extra, "argv": list(argv), "status": status,
            "stdout_sha256": out, "stderr_sha256": err}


def _write(path, rows):
    path.write_text("[\n" + ",\n".join(json.dumps(r, ensure_ascii=False)
                                       for r in rows) + "\n]\n")
    print(f"{len(rows)} requests written to {path.name}")


def main():
    os.environ["COLUMNS"] = COLUMNS
    _write(CORPUS, [_row(argv) for argv in requests()])
    _write(LIMITS, [_row(argv, limit=name)
                    for name, reqs in LIMIT_REQUESTS.items()
                    for argv in reqs])


if __name__ == "__main__":
    main()
