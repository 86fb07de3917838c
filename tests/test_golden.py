"""The golden report corpus: every distinct request of the benchmark
workloads, replayed in process and compared byte for byte.

`golden_reports.json` holds one row per request: the argv, the exit
status, and the SHA-256 of stdout and of stderr.  `make_golden.py` writes
it; a change that means to alter report bytes regenerates it and names
each changed row.
"""

import json

import pytest

from make_golden import COLUMNS, CORPUS, run_request

ROWS = json.loads(CORPUS.read_text())


def test_corpus_covers_the_workloads():
    assert len(ROWS) == 180
    assert len({tuple(row["argv"]) for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(r["argv"]) for r in ROWS])
def test_report_bytes(monkeypatch, row):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = run_request(row["argv"])
    assert got == (row["status"], row["stdout_sha256"], row["stderr_sha256"])
