"""Scaling series of the known asymptotic traps, one row per input size.

    python3 perfbench/scaling.py

Run from the root of a checkout.  Each row is the best of REPEAT wall times
(one for the slow rows) of one request: a CLI report in-process, or
`stable_submodules` as a library call, each on a freshly imported package.
Prints a table and writes perfbench/records/scaling.json.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracles import is_prime_td, mult_order  # noqa: E402
from run import Client  # noqa: E402

CLASS_NUMBER_DISCS = (-10007, -100003, -1000003, -10000019)
GAMMA_ELL = 19
GAMMA_TARGETS = (500, 1000, 2000)
GAMMA_DEGREES_AT_2000 = (3, 6, 9, 18)
MIYAWAKI = [(ell, box) for ell in (3, 7) for box in (8, 10, 12)]
STABLE = [(ell, n, d) for d in (1, 2)
          for ell, n in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))]
REPEAT = 3


def prime_with_degree(start: int, ell: int, f: int) -> int:
    p = start
    while not (is_prime_td(p) and p % ell and mult_order(p, ell) == f):
        p += 1
    return p


def best_of(k, client, prepare) -> tuple[float, object]:
    """(fastest of k wall times, result of the last call).  Before each
    call the package is imported afresh and `prepare()`, untimed, returns
    the call to time."""
    times = []
    for _ in range(k):
        client.reload()
        fn = prepare()
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return min(times), result


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "semistable_lab" / "cli.py").is_file():
        print("scaling: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    client = Client()
    rows = []

    def cli_row(series, param, argv, repeat=REPEAT):
        seconds, (_out, status) = best_of(
            repeat, client, lambda: lambda: client.call(argv))
        if status != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {status}")
        rows.append({"series": series, "param": param, "seconds": seconds})

    for disc in CLASS_NUMBER_DISCS:
        cli_row("class-number", f"|D|={-disc}",
                ["class-number", "--disc", str(disc)])
    gamma = [(1, t) for t in GAMMA_TARGETS] + [(2, t) for t in GAMMA_TARGETS]
    gamma += [(f, 2000) for f in GAMMA_DEGREES_AT_2000]
    for f, target in gamma:
        p = prime_with_degree(target, GAMMA_ELL, f)
        cli_row("gamma-rank", f"ell=19 p={p} f={f}",
                ["gamma-rank", "--ell", str(GAMMA_ELL), "--p", str(p)],
                repeat=1 if f > 2 else REPEAT)
    for ell, box in MIYAWAKI:
        cli_row("miyawaki-search", f"ell={ell} box={box}",
                ["miyawaki-search", "--ell", str(ell), "--bound", str(box)])
    for ell, n, d in STABLE:
        def prepare():
            galois = importlib.import_module("semistable_lab.galois")
            rep = galois.build_rep(ell, d, ell, max(4, n + 2))
            return lambda: galois.stable_submodules(rep, n)

        seconds, found = best_of(1 if d == 2 else REPEAT, client, prepare)
        rows.append({"series": "stable_submodules",
                     "param": f"l^n={ell ** n} (l={ell}, n={n}) d={d} "
                              f"found={len(found)}",
                     "seconds": seconds})
    for row in rows:
        print(f"{row['series']:18s} {row['param']:36s} {row['seconds']:10.4f} s")
    out = HERE / "records"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
