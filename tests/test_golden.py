"""The golden report corpora, replayed in process and compared byte for
byte: every distinct request of the benchmark workloads, and every row of
the README limits table at the limit and one past it.

`golden_reports.json` and `golden_limits.json` hold one row per request:
the argv, the exit status, and the SHA-256 of stdout and of stderr; a
limits row also names its README table row.  `make_golden.py` writes
both; a change that means to alter report bytes regenerates them and
names each changed row.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from make_golden import COLUMNS, CORPUS, LIMITS, UNREACHED, run_request

ROWS = json.loads(CORPUS.read_text())
LIMIT_ROWS = json.loads(LIMITS.read_text())
README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_limits():
    """First cells of the README limits table, without backticks."""
    lines = README.read_text().splitlines()
    start = lines.index("| limit | value | module | guards |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names.append(line.split("|")[1].strip().replace("`", ""))
    return names


def _request_id(argv):
    """The argv as one line, with long value lists shortened: to their
    length, and the digits of the longest value when that is long too."""
    def short(arg):
        if len(arg) <= 30:
            return arg
        longest = max(map(len, arg.split(",")))
        return (f"<{arg.count(',') + 1} values>" if longest <= 30
                else f"<{arg.count(',') + 1} values, one of {longest} digits>")
    return " ".join(map(short, argv))


def test_corpus_covers_the_workloads():
    assert len(ROWS) == 180
    assert len({tuple(row["argv"]) for row in ROWS}) == len(ROWS)


def test_limits_cover_the_readme_table():
    """Each reachable limit has a request it answers and one it refuses
    with exit 2."""
    table = _readme_limits()
    assert set(UNREACHED) < set(table)
    assert [n for n in table if n not in UNREACHED] == list(
        dict.fromkeys(row["limit"] for row in LIMIT_ROWS))
    for name in table:
        statuses = {row["status"] for row in LIMIT_ROWS
                    if row["limit"] == name}
        assert not statuses or (2 in statuses and statuses - {2}), name
    assert len({tuple(row["argv"]) for row in LIMIT_ROWS}) == len(LIMIT_ROWS)


@pytest.mark.parametrize("row", ROWS + LIMIT_ROWS,
                         ids=[_request_id(r["argv"]) for r in ROWS + LIMIT_ROWS])
def test_report_bytes(monkeypatch, row):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = run_request(row["argv"])
    assert got == (row["status"], row["stdout_sha256"], row["stderr_sha256"])


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ["paper-suite"], ["isogeny-maximal", "--ell", "3", "--s", "3", "--n", "2"]],
    ids=_request_id)
def test_report_bytes_under_fixed_hash_seeds(argv, seed):
    """A fresh process under a fixed PYTHONHASHSEED prints the corpus bytes,
    so no report depends on the order of a set or dict of strings."""
    row = next(r for r in ROWS + LIMIT_ROWS if r["argv"] == argv)
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src"),
           "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8",
           "COLUMNS": COLUMNS}
    proc = subprocess.run([sys.executable, "-m", "semistable_lab.cli", *argv],
                          capture_output=True, env=env)
    assert proc.returncode == row["status"], proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == row["stdout_sha256"]
