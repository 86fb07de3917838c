"""semistable-lab benchmark: drive the CLI in-process and time it.

    python3 perfbench/run.py --workload {paper,fields,lattice} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  One client sends one request at a time
(closed loop) to `semistable_lab.cli.main(argv)` with stdout captured, and
replays the workload's request list in whole passes for `--seconds`; each
group of requests in a pass runs on a freshly imported package.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`).  A run record goes to perfbench/records/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, NESTED, PACKAGE, Tracer  # noqa: E402
from workloads import Request  # noqa: E402

SETUP_ARGV = ["class-number", "--disc", "-164"]
SETUP_REPEATS = 15
# The shared host switches between a fast and a slow speed (about 1.75x
# slower) every 10 to 200 ms, and the share of slow time moves from run to
# run and over minutes.  A fixed pure-Python loop, timed before every
# request, slows down alike, so times are reported at a reference speed:
# seconds x CALIBRATION_REF_S / (mean time of calibration_work() over the
# same stretch).  Raw seconds go to the run record.
CALIBRATION_REF_S = 0.01
LAYER_NAMES = list(LAYERS) + ["cli"]
CALL_COUNTERS = [
    "arith.is_prime", "arith.factorize", "quadratic.class_number",
    "cyclotomic.unit_images", "polynomials.GF.pow",
    "polynomials.rational_roots", "polynomials.pgcd", "polynomials.roots_mod",
    "polynomials.equal_degree_factor", "curves.invariants",
    "curves.has_rational_ell_torsion", "curves.isogeny_class",
    "curves.count_points", "padic.Lattice.from_generators", "padic.intersect",
    "padic.lattice_sum", "intlinalg.smith_diagonal",
    "intlinalg.smith_with_transforms", "intlinalg.kernel_mod",
    "galois.stable_submodules",
]
RATIOS = {  # metric -> (outer, inner): outcomes of outer per inner call
    "families.miyawaki_search.hit_ratio": NESTED[0][:2],
    "galois.stable_submodules.yield": NESTED[1][:2],
}


def calibration_work() -> int:
    """A fixed mix of what the program does: small-integer arithmetic,
    dict and tuple traffic, a sort, and big-integer modular squaring."""
    x, table, rows = 1, {}, []
    for i in range(24000):
        x = (x * 48271 + i) % 2147483647
        table[x & 1023] = table.get(x & 1023, 0) + 1
        if i % 64 == 0:
            rows.append((x % 97, x % 89))
    rows.sort()
    m, y = 3 ** 3000 + 1, 5 ** 2900
    for _ in range(32):
        y = y * y % m
    return x ^ len(rows) ^ sum(table.values()) ^ (y & 0xFFFF)


def calibrate() -> float:
    t0 = perf_counter()
    calibration_work()
    return perf_counter() - t0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- driving


class Client:
    """Calls the CLI in-process, one request at a time."""

    def __init__(self):
        self.reload()

    def reload(self) -> None:
        """Import the package afresh from `sys.path`.

        A user runs one process per command, so nothing that one request
        group computed (a cache kept in module state, say) may serve the
        next group or the next pass.
        """
        for name in [n for n in sys.modules
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.cli = None
        # modules sit in reference cycles; free the old import now, so
        # that memory does not grow with the number of passes
        gc.collect()
        self.cli = importlib.import_module(PACKAGE + ".cli")

    def call(self, argv) -> tuple[str, object]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = self.cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the run goes on; the request failed
                status = f"{type(exc).__name__}: {exc}"[:200]
        return out.getvalue(), status


class Run:
    """Replays the request list in whole passes and keeps every timing.

    The package is imported afresh (outside the timings) before each group
    of requests in a pass; the requests within a group have distinct inputs.
    `calibrate()` runs before every request, also outside the timings.
    """

    def __init__(self, client, requests):
        self.client = client
        self.requests = requests
        self.first: list[tuple[str, object]] | None = None
        self.passes: list[list[float]] = []  # wall time per request
        self.calibration: list[list[float]] = []  # calibrate() per request
        self.nondeterministic: set[str] = set()

    def one_pass(self, tracer: Tracer | None = None) -> list[float]:
        """Time one pass; `tracer`, if given, is installed into each fresh
        import of the package."""
        times, outputs, calibration = [], [], []
        try:
            for i, req in enumerate(self.requests):
                if i == 0 or req.group != self.requests[i - 1].group:
                    if tracer is not None:
                        tracer.uninstall()
                    self.client.reload()
                    if tracer is not None:
                        tracer.install()
                calibration.append(calibrate())
                t0 = perf_counter()
                outputs.append(self.client.call(req.argv))
                times.append(perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.first is None:
            self.first = outputs
        else:
            for req, now, then in zip(self.requests, outputs, self.first):
                if now != then:
                    self.nondeterministic.add(req.name)
        self.passes.append(times)
        self.calibration.append(calibration)
        return times

    def run_for(self, seconds: float, between=None) -> None:
        """Whole passes until `seconds` have passed; `between()` runs
        after each pass, outside the pass timings."""
        start = perf_counter()
        while True:
            self.one_pass()
            if perf_counter() - start >= seconds:
                return
            if between is not None:
                between(perf_counter() - start)

    def speed(self, which=None) -> float:
        """Reference seconds per measured second over the passes `which`
        (default all)."""
        which = range(len(self.passes)) if which is None else which
        return CALIBRATION_REF_S / mean(c for k in which
                                        for c in self.calibration[k])

    def scaled(self, which=None, group=None) -> float:
        """Mean time of the passes `which` (default all), or of their
        `group` requests, at reference speed.

        The host's slow spells come and go faster than a long request
        runs, so no single pass or request sees the speed a calibration
        sample next to it saw; over the run both averages see the same mix.
        """
        which = range(len(self.passes)) if which is None else which
        total = sum(t for k in which
                    for t, req in zip(self.passes[k], self.requests)
                    if group is None or req.group == group)
        return self.speed(which) * total / len(which)


class Setup:
    """Wall times of fresh interpreters answering one trivial report."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cmd = [sys.executable, "-m", "semistable_lab.cli", *SETUP_ARGV]
        self.samples: list[float] = []
        self.sample()  # fills the .pyc cache; not kept
        self.samples.clear()

    def sample(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup command failed: {proc.stderr[-500:]}")
        if json.loads(proc.stdout)["results"]["class_number"] != 8:
            raise RuntimeError("setup command reported h(-164) != 8")
        self.samples.append(elapsed)


# ----------------------------------------------------------- correctness


def verify_run(run: Run) -> tuple[list[str], dict[str, list[str]]]:
    """(failed request names, problems by request) from the first pass."""
    failed, problems = [], {}
    cache: dict = {}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the oracles parse long integers
    try:
        for req, (text, status) in zip(run.requests, run.first):
            did_fail, found = verify.outcome(req, text, status, cache)
            if did_fail:
                failed.append(req.name)
            if found:
                problems[req.name] = found
    finally:
        sys.set_int_max_str_digits(limit)
    for name in sorted(run.nondeterministic):
        problems.setdefault(name, []).append(
            "report differs from the first pass")
    return failed, problems


def self_test() -> None:
    """A named fault that still shows counts as failed; once mended by a
    refusal (exit 2, no report) it counts as passed and the run stays
    correct."""
    n = str(oracles.PSEUDOPRIMES["psi12"][0])
    req = Request(("curve-info", "--curve", "0,-1,1,-10,-20", "--primes", n),
                  fault="psi12-reported-prime")
    still = json.dumps({"results": {"local": [{"p": n}]}})
    for first, failed in ((("", 2), []), ((still, 0), [req.name])):
        run = Run(None, [req])
        run.first = [first]
        assert verify_run(run) == (failed, {}), (first, failed)


# ---------------------------------------------------------------- record


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_loc(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def write_record(root: Path, args, record: dict) -> None:
    record = {
        "machine": {"cpu_count": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "git_sha": git_sha(root),
        "src_loc": src_loc(root),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        **record,
    }
    out = HERE / "records"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------ workloads


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(root, args, client, requests) -> tuple[Run, dict, dict]:
    # Set-up samples are spread over the run, not taken in one burst, so
    # that their median sees the same machine as the passes.
    setup = Setup(root)
    spacing = args.seconds / SETUP_REPEATS

    def between(elapsed):
        if elapsed >= spacing * len(setup.samples):
            setup.sample()

    run = Run(client, requests)
    run.run_for(args.seconds, between)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup.samples) < SETUP_REPEATS:
        setup.sample()
    metrics = {
        # the set-up samples are spread over the run, as the calibration is
        "setup_s": metric(run.speed() * median(setup.samples), "s"),
        "pass_s": metric(run.scaled(), "s"),
        "primary_s": metric(run.scaled(group="primary"), "s"),
        "secondary_s": metric(run.scaled(group="secondary"), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    detail = {"calibration_s": run.calibration,
              "setup_samples_s": setup.samples, "pass_times_s": run.passes,
              "median_pass_wall_s": median([sum(p) for p in run.passes])}
    return run, metrics, detail


def run_traced(root, args, client, requests) -> tuple[Run, dict, dict]:
    """Untraced and traced passes alternate, so both see the same machine."""
    run = Run(client, requests)
    tracer = Tracer()
    counts, shares = [], []
    start = perf_counter()
    while not counts or perf_counter() - start < args.seconds:
        run.one_pass()
        tracer.reset()
        wall = sum(run.one_pass(tracer))
        layer_self = tracer.layer_self()
        layer_self["cli"] = wall - tracer.top
        shares.append({k: 100 * v / wall for k, v in layer_self.items()})
        counts.append(tracer.snapshot())
        times = tracer.times()
    if any(c != counts[0] for c in counts):
        run.nondeterministic.add("call counts differ between traced passes")
    snap = counts[0]
    overhead = (run.scaled(range(1, len(run.passes), 2))  # traced passes
                - run.scaled(range(0, len(run.passes), 2)))
    metrics = {"trace_overhead_s": metric(overhead, "s")}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_pct"] = metric(
            median([sh[layer] for sh in shares]), "%")
    for name in CALL_COUNTERS:
        metrics[f"{name}.calls"] = metric(snap["calls"].get(name, 0), "count")
    for label, (outer, inner) in RATIOS.items():
        made = snap["nested"].get(f"{outer}>{inner}", 0)
        got = snap["outcomes"].get(outer, 0)
        metrics[label] = metric(got / made if made else 0.0, "ratio")
    detail = {"pass_times_s": run.passes, "self_pct_per_traced_pass": shares,
              "counts": snap, "last_traced_pass_times_s": times}
    return run, metrics, detail


# ------------------------------------------------------------------ main


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(proc.stdout.strip().rsplit("\n", 1)[0])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    src = root / "src"
    if not (src / "semistable_lab" / "cli.py").is_file():
        return fail(f"no semistable_lab sources under {src}; run from the "
                    "root of a checkout")
    # paper-suite reads this worker cap; the closed loop wants one worker
    os.environ.pop("SEMISTABLE_LAB_THREADS", None)
    sys.path.insert(0, str(src))
    client = Client()
    where = Path(client.cli.__file__).resolve().parent
    if where != (src / "semistable_lab").resolve():
        return fail(f"imported semistable_lab from {where}, not {src}")
    oracles.self_test()
    self_test()

    requests = workloads.build(args.workload, args.seed)
    runner = run_traced if args.trace else run_plain
    run, metrics, detail = runner(root, args, client, requests)
    failed_names, problems = verify_run(run)
    npass = len(run.passes)
    result = {
        "correct": not problems,
        "attempted": npass * len(requests),
        "failed": npass * len(failed_names),
        "metrics": metrics,
    }
    write_record(root, args, {
        "requests": [r.name for r in requests],
        "failures": failed_names, "problems": problems,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics, **detail,
    })
    names = workloads.GROUP_NAMES[args.workload]
    alias = {"primary_s": names[0], "secondary_s": names[1]}
    print(f"workload {args.workload}  seed {args.seed}  passes {npass}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name in failed_names:
        print(f"  failed: {name}")
    for name, found in problems.items():
        print(f"  INCORRECT {name}: {'; '.join(found)[:500]}")
    for key, m in metrics.items():
        note = f"  ({alias[key]})" if key in alias else ""
        print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
