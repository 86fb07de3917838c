"""Write tests/golden_reports.json, the corpus that test_golden.py checks.

The corpus is every distinct request of the `paper`, `fields` and
`lattice` benchmark workloads at seeds 1 to 5, in first-seen order, each
run in process through `cli.main`.  Run it from the root of a checkout:

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

CORPUS = Path(__file__).with_name("golden_reports.json")
# argparse wraps usage lines to the terminal width, read from COLUMNS
COLUMNS = "80"
SEEDS = range(1, 6)


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


def main():
    os.environ["COLUMNS"] = COLUMNS
    rows = []
    for argv in requests():
        status, out, err = run_request(argv)
        rows.append({"argv": list(argv), "status": status,
                     "stdout_sha256": out, "stderr_sha256": err})
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows)
                      + "\n]\n")
    print(f"{len(rows)} requests written to {CORPUS.name}")


if __name__ == "__main__":
    main()
