"""Report shape, determinism, exit codes and known values for the CLI."""

import argparse
import copy
import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import semistable_lab
from make_golden import CORPUS
from semistable_lab import cli, cyclotomic, families, galois, padic, quadratic
from semistable_lab.arith import PRIMALITY_BOUND, is_prime
from semistable_lab.curves import WeierstrassCurve


def run_cli(argv):
    """Invoke main in process, return (report, exit status)."""
    report, status = cli.run(argv)
    # the printed payload must round-trip through json
    recovered = json.loads(json.dumps(report))
    assert recovered == report
    return report, status


def run_proc(argv, env=None):
    import os
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "semistable_lab.cli", *argv],
        capture_output=True, text=True, env=merged)


class TestReportShape:
    def test_top_level_keys_and_schema(self):
        report, status = run_cli(["class-number", "--disc", "-4"])
        assert list(report) == ["schema", "command", "inputs", "results",
                                "checks"]
        assert report["schema"] == 1
        assert report["command"] == "class-number"
        assert status == 0

    def test_check_fields(self):
        report, _ = run_cli(["controlled-degree", "--p", "41"])
        for check in report["checks"]:
            assert set(check) == {"name", "expected", "actual", "pass",
                                  "provenance"}
            assert isinstance(check["pass"], bool)
            assert check["provenance"] in ("paper", "trivial", "derived")

    def test_exit_zero_iff_all_checks_pass(self, monkeypatch):
        _, status = run_cli(["class-number", "--disc", "-164"])
        assert status == 0
        monkeypatch.setitem(cli._CLASS_NUMBER_TABLE, -164, (9, "paper"))
        report, status = run_cli(["class-number", "--disc", "-164"])
        assert status == 1
        assert report["checks"][0]["pass"] is False
        assert report["checks"][0]["expected"] == 9
        assert report["checks"][0]["actual"] == 8

    def test_big_integers_are_strings(self):
        report, _ = run_cli(["curve-info", "--curve", "0,0,0,0,123456789123"])
        disc = report["results"]["disc"]
        assert isinstance(disc, str)
        assert int(disc) == -6584362033202304959143728

    def test_fractions_are_strings(self):
        report, _ = run_cli(["curve-info", "--curve", "0,0,0,0,1"])
        assert report["results"]["j"] == "0/1"
        # the largest a6 the parser admits: j = c4^3/Delta has parts past
        # the interpreter's int -> str limit
        a6 = 10**4299 + 1
        report, status = run_cli(["curve-info", "--curve", f"0,0,0,1,{a6}"])
        assert status == 0
        j = Fraction(-48) ** 3 / (-16 * (4 + 27 * a6 * a6))
        assert report["results"]["j"] == (
            f"{Decimal(j.numerator)}/{Decimal(j.denominator)}")


class TestDeterminism:
    def test_byte_identical_repeat(self):
        outs = set()
        for _ in range(2):
            r = run_proc(["gamma-rank", "--ell", "5", "--p", "31"])
            assert r.returncode == 0
            outs.add(r.stdout)
        assert len(outs) == 1

    def test_meta_added_after_stable_region(self):
        plain, _ = run_cli(["class-number", "--disc", "-4"])
        tagged, _ = run_cli(["--meta", "class-number", "--disc", "-4"])
        assert list(tagged)[-1] == "meta"
        assert set(tagged["meta"]) == {"generated_at", "python"}
        stripped = {k: v for k, v in tagged.items() if k != "meta"}
        assert stripped == plain

    def test_clock_imported_only_under_meta(self):
        code = ("import sys; from semistable_lab import cli; "
                "cli.run(sys.argv[1:]); print('datetime' in sys.modules)")
        for meta, imported in (([], "False"), (["--meta"], "True")):
            r = subprocess.run(
                [sys.executable, "-c", code, *meta, "dagger", "--ell", "3",
                 "--p", "19"], capture_output=True, text=True)
            assert r.stdout.strip() == imported, r.stderr


class TestUsageErrors:
    def test_unknown_subcommand(self):
        r = run_proc(["frobnicate"])
        assert r.returncode == 2
        assert "usage" in r.stderr

    def test_unknown_flag(self):
        r = run_proc(["class-number", "--disc", "-4", "--loud"])
        assert r.returncode == 2

    def test_missing_subcommand(self):
        r = run_proc([])
        assert r.returncode == 2

    def test_domain_error_reports_usage_exit(self):
        r = run_proc(["verify-identities", "--ell", "7", "--s", "7"])
        assert r.returncode == 2
        assert "ell" in r.stderr

    def test_malformed_integer_list(self):
        r = run_proc(["ramification", "--orders", "4,x,1", "--ell", "2"])
        assert r.returncode == 2

    @pytest.mark.parametrize("max_str_digits", [0, 640, 4300])
    def test_integer_past_the_digit_limit_refused_by_its_length(
            self, capsys, max_str_digits):
        """The refusal names the limit and the digit count, echoes not the
        argument, and holds whatever the interpreter's int <- str limit."""
        past = "1" + "0" * cli._DIGITS_LIMIT
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(max_str_digits)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run(["curve-info", "--curve", f"0,0,0,1,{past}"])
        finally:
            sys.set_int_max_str_digits(saved)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("limit 4300 digits, got 4301 digits" in err
                and len(err) < 400)

    def test_curve_needs_five_coefficients(self):
        r = run_proc(["curve-info", "--curve", "1,2,3"])
        assert r.returncode == 2

    def test_singular_curve_refusal_names_the_reason(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["curve-info", "--curve", "0,0,0,0,0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --curve: singular model (0, 0, 0, 0, 0)\n")

    def test_non_squarefree_sextic_rejected(self):
        r = run_proc(["genus2-disc", "--p-coeffs", "0,0,0,0,0,1",
                      "--q-coeffs", "0,1"])
        assert r.returncode == 2

    def test_genus2_odd_part_past_psi_13_refused_before_factoring(
            self, monkeypatch, capsys):
        # the odd part of this model's discriminant has 92 bits; with
        # leading coefficient 360998 in place of 1000003 it has 82 bits and
        # stays below psi_13
        def refuse(n):
            raise AssertionError("factorize reached")

        monkeypatch.setattr(cli, "factorize", refuse)
        with pytest.raises(SystemExit) as exc:
            cli.run(["genus2-disc", "--p-coeffs", "0,-1,2,-2,0,1000003",
                     "--q-coeffs", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"below psi_13 = {PRIMALITY_BOUND} (82 bits), got one of "
                "92 bits") in err
        monkeypatch.undo()
        report, status = run_cli(["genus2-disc", "--p-coeffs",
                                  "0,-1,2,-2,0,360998", "--q-coeffs", "1"])
        assert status == 0
        odd = report["results"]["odd_disc"]
        assert int(odd) < PRIMALITY_BOUND <= 2 * int(odd)

    def test_disc_past_limit_refused_at_once(self, capsys):
        t0 = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            cli.run(["class-number", "--disc", "-1000000000007"])
        assert exc.value.code == 2
        assert time.monotonic() - t0 < 1.0
        assert str(quadratic._DISC_LIMIT) in capsys.readouterr().err

    def test_oversized_isogeny_search_refused_at_once(self, capsys):
        t0 = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            cli.run(["isogeny-maximal", "--ell", "3", "--s", "3",
                     "--n", "300000"])
        assert exc.value.code == 2
        assert time.monotonic() - t0 < 1.0
        assert "l^n <= 9" in capsys.readouterr().err

    @pytest.mark.parametrize("ell", ["4", "9"])
    def test_composite_ell_refused(self, capsys, ell):
        with pytest.raises(SystemExit) as exc:
            cli.run(["ramification", "--orders", "4,2,1", "--ell", ell])
        assert exc.value.code == 2
        assert f"ell must be prime, got {ell}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, limit", [
        (["miyawaki-search", "--ell", "3", "--bound", "33"],
         families._BOX_LIMIT),
        (["ns-enumerate", "--bound", "10000000001"],
         families._NS_BOUND_LIMIT),
    ])
    def test_oversized_search_bound_refused_at_once(self, capsys, argv,
                                                    limit):
        t0 = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        assert time.monotonic() - t0 < 1.0
        assert str(limit) in capsys.readouterr().err


class TestRequestBudget:
    """Inputs past a desk-scale limit exit 2 before any work, naming it."""

    def test_negative_box_bound_refused(self, capsys, monkeypatch):
        def refuse(bound):
            raise RuntimeError("box filtered before the refusal")

        monkeypatch.setattr(families, "_prime_power_models", refuse)
        for bound in ("-3", "-4"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["miyawaki-search", "--ell", "3", "--bound", bound])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"got {bound}" in captured.err

    @pytest.mark.parametrize("flag, value, limit", [
        ("--precision", galois._PRECISION_LIMIT + 1, galois._PRECISION_LIMIT),
        ("--precision", 10**12, galois._PRECISION_LIMIT),
        ("--d", galois._BLOCK_LIMIT + 1, galois._BLOCK_LIMIT),
        ("--d", 10**12, galois._BLOCK_LIMIT),
    ])
    def test_identity_request_past_limit_refused_at_once(self, capsys, flag,
                                                         value, limit):
        argv = ["verify-identities", "--ell", "5", "--s", "5", flag,
                str(value)]
        t0 = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert time.monotonic() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"limit {limit}, got {value}" in captured.err

    def test_every_size_argument_past_its_limit(self, capsys):
        """Walk every size argument one step past its limit: each request
        exits 2 within a second, and stderr names the limit."""
        prime_past_disc = next(q for q in itertools.count(
            quadratic._DISC_LIMIT + 1) if is_prime(q))
        walk = [
            ("ns-enumerate --bound", families._NS_BOUND_LIMIT + 1,
             families._NS_BOUND_LIMIT),
            ("miyawaki-search --ell 3 --bound", families._BOX_LIMIT + 1,
             families._BOX_LIMIT),
            ("verify-identities --ell 5 --s 5 --precision",
             galois._PRECISION_LIMIT + 1, galois._PRECISION_LIMIT),
            ("verify-identities --ell 5 --s 5 --d", galois._BLOCK_LIMIT + 1,
             galois._BLOCK_LIMIT),
            ("isogeny-maximal --ell 3 --s 3 --n", 3, "l^n <= 9"),
            ("class-number --disc", -prime_past_disc, quadratic._DISC_LIMIT),
            ("controlled-degree --p", prime_past_disc, quadratic._DISC_LIMIT),
            ("controlled-degree --p", PRIMALITY_BOUND, PRIMALITY_BOUND),
            ("gamma-rank --p 31 --ell", 23, cyclotomic._ELL_LIMIT),
            ("gamma-rank --ell 5 --p", PRIMALITY_BOUND, PRIMALITY_BOUND),
            ("ramification --ell 2 --orders",
             ",".join(["4"] + ["2"] * cli._ORDERS_LIMIT), cli._ORDERS_LIMIT),
            ("curve-info --curve 0,-1,1,-10,-20 --primes",
             ",".join(["2"] * (cli._PRIMES_LIMIT + 1)), cli._PRIMES_LIMIT),
        ]
        for line, value, limit in walk:
            t0 = time.monotonic()
            with pytest.raises(SystemExit) as exc:
                cli.run(line.split() + [str(value)])
            assert exc.value.code == 2, line
            assert time.monotonic() - t0 < 1.0, line
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(limit) in captured.err, line

    def test_list_limits_admit_their_longest_list(self):
        orders = ",".join(["4"] + ["2"] * (cli._ORDERS_LIMIT - 2) + ["1"])
        report, status = run_cli(["ramification", "--orders", orders,
                                  "--ell", "2"])
        assert status == 0
        assert len(report["inputs"]["orders"]) == cli._ORDERS_LIMIT
        primes = ",".join(["2"] * cli._PRIMES_LIMIT)
        report, status = run_cli(["curve-info", "--curve", "0,-1,1,-10,-20",
                                  "--primes", primes])
        assert status == 0
        assert len(report["results"]["local"]) == cli._PRIMES_LIMIT

    def test_limits_admit_the_published_requests(self):
        # the precisions of the 4,300-digit moduli and the paper grid's d
        assert galois._PRECISION_LIMIT >= 9000 and galois._BLOCK_LIMIT >= 2
        for ell, s, precision, d in ((3, 3, 9000, 2), (5, 5, 6200, 2)):
            rep = galois.build_rep(ell, d, s, precision)
            assert all(oracles.identity_passed(c)
                       for c in galois.verify_identities(rep))

    def test_largest_admitted_request_answers(self):
        report, status = run_cli(
            ["verify-identities", "--ell", "5", "--s", "5", "--precision",
             str(galois._PRECISION_LIMIT), "--d", str(galois._BLOCK_LIMIT)])
        assert status == 0
        assert len(report["checks"]) == 2


# (command line, SHA-256 of stdout, exit status)
_STABLE_REPORTS = [
    ("paper-suite",
     "741a138e9478cfa9fb7d33c986efc12d2a5f6863f3b87e29779d20bd0565adaa", 0),
    ("miyawaki-search --ell 3",
     "6354aa8e66ab0b8dc6f0ade8692b5ef7afb271f6550f3b90be0e38bdff3c6113", 0),
    ("miyawaki-search --ell 5",
     "70a473f8e5046e5b1bc4992c639542e9ebf0eaccef94ccec34b6b4c07ab91c96", 0),
    ("miyawaki-search --ell 7",
     "ad4f942849ecfc1e3dd27becefa0fcfd8ce7e0e207b69eada56740a6bfa1917b", 0),
    ("miyawaki-search --ell 3 --bound 32",
     "9fddf8c462c0f364c4488278e022a7b60152e3ecdc7bc992b798b92b397160ac", 0),
    ("miyawaki-search --ell 5 --bound 32",
     "74b90cf0986027dcd069437758fe6e39f552e0d62ccf5fa7d8b2e7252df5123f", 0),
    ("miyawaki-search --ell 7 --bound 32",
     "4167b1def01469f5f15f4dfb00026c27c91d58eabb3001be78c31b55d900e549", 0),
    ("isogeny-maximal --ell 2 --s 2 --n 1",
     "38b69b356d09eaae07855362ae72d5cf650943129641d565aca92287f2983fd6", 0),
    ("isogeny-maximal --ell 3 --s 3 --n 1",
     "f660c52a4021e757e17afb226a378ee3fb69f0bf861997afc48a58548cbba1d9", 0),
    ("isogeny-maximal --ell 3 --s 6 --n 1",
     "975a3dd3fa7da933325c1951930d874993eba543d862098e82b4715bde11891f", 0),
    ("isogeny-maximal --ell 2 --s 2 --n 2",
     "1637f187eb6e6b4531074fe9b0ae664620b11880261c1a945a6a1bee7cdbed91", 0),
    ("isogeny-maximal --ell 5 --s 5 --n 1",
     "094eaecd358fe94fc404bdf882d75f6fbdfcc47ed26703ccded9bb1006132c39", 0),
    ("isogeny-maximal --ell 5 --s 10 --n 1",
     "cccb273644b7e83306b7f697757a8e689349b33e1e5483a49b73f67567af3934", 0),
    ("isogeny-maximal --ell 2 --s 2 --n 3",
     "61b02e9ce3c94cedc0d1f88916181eee2b9ea6aa4f30b68f777fd666bc9fd074", 0),
    ("isogeny-maximal --ell 3 --s 3 --n 2",
     "e80da7d6af3289a15fd7afe916d1be8cce042713949e009e4cb3aa374465d958", 0),
    ("isogeny-maximal --ell 3 --s 6 --n 2",
     "2852c58a917c9bd083e223f6bb4fc7655f2ff4bed27b4c457fcd970af67ffcf6", 0),
    ("verify-identities --ell 5 --s 5 --precision 20000 --d 4",
     "d3761ac9faff27eee840db3c2f3f19c9e2b12d8837f2f62fd96d50ef4c2ac0f1", 0),
    # gamma-rank extremes: f = 18 (the slowest admitted request), f = 16,
    # f = 9, and a split prime (f = 1) just below psi_13
    ("gamma-rank --ell 19 --p 3317044064679887384962751",
     "df8e38ebd83b5658aed2ab7390fd427d5849e400c879f75cb90ef964a871035d", 0),
    ("gamma-rank --ell 17 --p 3317044064679887384962033",
     "d7e9b14a0ed6fa69c749c2db4b982bca8df9ba2bb36811d0dea4415488b131d3", 0),
    ("gamma-rank --ell 19 --p 1000000000169",
     "f749d1b2de9c57f6059872071f0e89816de455fc4991e876aa0e258ca533fc44", 0),
    ("gamma-rank --ell 19 --p 3317044064679887385961181",
     "43472baaff4dd8fd28c19626402661ef1f8faf84abcadc2141e7257476578ba7", 0),
]

# Requests refused with a usage error (exit 2, nothing on stdout): at
# s = 2l the level-l^2 and l^3 kernels give a non-integral transfer.
_STABLE_REFUSALS = [
    "isogeny-maximal --ell 2 --s 4 --n 2",
    "isogeny-maximal --ell 2 --s 4 --n 3",
]


class TestStableBytes:
    """SHA-256 of stdout and the exit status of reports that a change
    meant only to speed the program up must leave as they are."""

    @pytest.mark.parametrize("line, digest, status", _STABLE_REPORTS,
                             ids=[row[0] for row in _STABLE_REPORTS])
    def test_report_bytes(self, capsys, line, digest, status):
        assert cli.main(line.split()) == status
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize("line", _STABLE_REFUSALS)
    def test_refusal_bytes(self, capsys, line):
        with pytest.raises(SystemExit) as exc:
            cli.main(line.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not integral" in captured.err


class TestSquareShearRefusal:
    """isogeny-maximal needs v_l(s) = 1 at every level; with l^2 | s it is
    refused before any lattice is built."""

    @pytest.mark.parametrize("ell, s, n", [
        (2, 4, 1), (3, 9, 1), (2, 4, 2), (2, 4, 3), (2, -8, 2), (2, 16, 2),
        (2, 16, 3), (2, 120, 3), (3, 9, 2), (3, -27, 2), (3, 81, 2), (3, 270, 2)])
    def test_refused_before_any_work(self, monkeypatch, capsys, ell, s, n):
        def no_work(*args):
            raise AssertionError("build_rep reached")

        monkeypatch.setattr(galois, "build_rep", no_work)
        with pytest.raises(SystemExit) as exc:
            cli.main(["isogeny-maximal", "--ell", str(ell), "--s", str(s),
                      "--n", str(n)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--n {n} needs v_l(s) = 1: l^2 divides s = {s}" in captured.err

    @pytest.mark.parametrize("ell, s", [(2, 6), (3, -6)])
    def test_valuation_one_is_searched(self, ell, s):
        _, status = run_cli(["isogeny-maximal", "--ell", str(ell), "--s",
                             str(s), "--n", "2"])
        assert status == 0


class TestEllCheckedFirst:
    """isogeny-maximal refuses an l outside {2, 3, 5} for that reason,
    before the v_l(s) test can divide by l^2 or name l^2 | s."""

    @pytest.mark.parametrize("ell, s", [(0, 55), (1, 55), (-1, 2)])
    def test_refused_as_an_unsupported_ell(self, capsys, ell, s):
        with pytest.raises(SystemExit) as exc:
            cli.main(["isogeny-maximal", "--ell", str(ell), "--s", str(s),
                      "--n", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ell must be 2, 3 or 5" in captured.err


class TestPublishedTables:
    def test_table_rows_no_golden_request_reaches(self):
        """Each row of _CONTROLLED_TABLE and _CLASS_NUMBER_TABLE that no
        golden request reads, checked at its literal value."""
        for p, h, degree in ((3, 1, 4), (17, 4, 16)):
            report, status = run_cli(["controlled-degree", "--p", str(p)])
            assert status == 0
            assert (report["results"]["class_number"],
                    report["results"]["degree_over_Q"]) == (h, degree)
            assert [(c["name"], c["expected"]) for c in report["checks"]
                    if c["name"] != "degree-is-four-times-two-part"] == [
                ("class-number", h), ("degree-over-q", degree)]
        report, status = run_cli(["class-number", "--disc", "-3"])
        assert status == 0
        assert report["results"]["class_number"] == 1
        assert [(c["name"], c["expected"]) for c in report["checks"]] == [
            ("class-number", 1)]


_LARGEST_IDENTITIES = [
    "verify-identities", "--ell", "5", "--s", "5",
    "--precision", str(galois._PRECISION_LIMIT),
    "--d", str(galois._BLOCK_LIMIT)]


def _integer_strings(value):
    """Every integer a report wrote as a string, as a Decimal (int() of a
    long string passes the int -> str limit)."""
    if isinstance(value, str):
        return [Decimal(value)] if re.fullmatch(r"-?\d+", value) else []
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for v in value for n in _integer_strings(v)]
    return []


def _module_containers(module):
    return {name: copy.deepcopy(value) for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))
            and not name.startswith("__")}


class TestIdentitiesWork:
    """Work counts, not timings, on the largest admitted verify-identities
    request: closed-form inverses and one rendering per big integer."""

    def test_no_unit_is_inverted(self, monkeypatch, capsys):
        """The identities use closed-form inverses: no unit of the work
        ring is inverted at all."""
        units = []
        inverse = padic.PadicContext.invert_unit

        def counted(self, u):
            units.append(u)
            return inverse(self, u)

        monkeypatch.setattr(padic.PadicContext, "invert_unit", counted)
        assert cli.main(_LARGEST_IDENTITIES) == 0
        assert units == []

    def test_each_big_integer_is_rendered_once(self, monkeypatch, capsys):
        rendered = []
        decimal = cli.Decimal

        def counted(value):
            rendered.append(value)
            return decimal(value)

        monkeypatch.setattr(cli, "Decimal", counted)
        assert cli.main(_LARGEST_IDENTITIES) == 0
        written = _integer_strings(json.loads(capsys.readouterr().out))
        big = {n for n in written if abs(n) > 2**53 - 1}
        assert len(written) > len(big) > 0
        assert sorted(map(Decimal, rendered)) == sorted(big)

    @pytest.mark.parametrize("lines", [
        [["verify-identities", "--ell", "5", "--s", "5",
          "--precision", "6200", "--d", "1"],
         ["verify-identities", "--ell", "5", "--s", "10",
          "--precision", "6200", "--d", "2"]],
        [["miyawaki-search", "--ell", "3"], ["miyawaki-search", "--ell", "5"]],
    ], ids=["verify-identities", "miyawaki-search"])
    def test_requests_share_no_state(self, capsys, lines):
        """Two requests in one process print what each prints alone, and
        leave no memo in any module of the package."""
        alone = []
        for argv in lines:
            proc = run_proc(argv)
            assert proc.returncode == 0, proc.stderr
            alone.append(proc.stdout)
        modules = [importlib.import_module(f"semistable_lab.{info.name}")
                   for info in pkgutil.iter_modules(semistable_lab.__path__)]
        before = [_module_containers(module) for module in modules]
        together = []
        for argv in lines:
            assert cli.main(argv) == 0
            together.append(capsys.readouterr().out)
        assert together == alone
        assert [_module_containers(module) for module in modules] == before
        assert not [f"{module.__name__}.{name}" for module in modules
                    for name, value in vars(module).items()
                    if hasattr(value, "cache_info")]


class TestMaximalSearchWithoutIntersections:
    """The maximal-transfer search counts meets by projection and closes
    atoms over the word algebra, so it needs no general intersection."""

    @pytest.mark.parametrize("ell, n", [(2, 2), (5, 1)])
    def test_answers_with_intersections_disabled(self, monkeypatch, ell, n):
        def refuse(*args):
            raise RuntimeError("general lattice intersection")

        monkeypatch.setattr(padic, "intersect", refuse)
        assert not hasattr(galois, "intersect")
        monkeypatch.setattr(padic, "_kernel_pass", refuse)
        report, status = run_cli(
            ["isogeny-maximal", "--ell", str(ell), "--s", str(ell),
             "--n", str(n)])
        assert status == 0
        assert report["results"]["maximal_part"] == ell
        assert all(check["pass"] for check in report["checks"])


class TestGammaRankWithoutSmithForm:
    """The congruence-unit rank is read over F_ell, so gamma-rank needs no
    kernel, modulo l(l - 1) or any other: padic's one kernel route is never
    taken."""

    @pytest.mark.parametrize("ell, p", [(5, 31), (7, 1201)])  # f = 1, f = 3
    def test_answers_with_smith_form_disabled(self, monkeypatch, capsys,
                                              ell, p):
        def refuse(*args):
            raise RuntimeError("general kernel")

        monkeypatch.setattr(padic, "_kernel_pass", refuse)
        argv = ["gamma-rank", "--ell", str(ell), "--p", str(p)]
        digest = next(row["stdout_sha256"]
                      for row in json.loads(CORPUS.read_text())
                      if row["argv"] == argv)
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


class TestIdentitiesWithoutMatrixProducts:
    """verify-identities computes on 2x2 blocks over Z[omega] and maps each
    entry to Z/l^N once, so it makes no matrix product over Z/l^N."""

    @pytest.mark.parametrize("argv", [
        ["verify-identities", "--ell", "5", "--s", "95",
         "--precision", "6069", "--d", "1"],
        ["verify-identities", "--ell", "3", "--s", "57",
         "--precision", "8648", "--d", "2"],
    ])
    def test_answers_with_matrix_products_disabled(self, monkeypatch, capsys,
                                                   argv):
        def refuse(*args):
            raise RuntimeError("matrix product over Z/l^N")

        monkeypatch.setattr(padic.PadicMatrix, "__matmul__", refuse)
        digest = next(row["stdout_sha256"]
                      for row in json.loads(CORPUS.read_text())
                      if row["argv"] == argv)
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


class TestIsogenyMaximalSearches:
    def test_level_one_kernels_come_from_the_single_search(self, monkeypatch,
                                                           capsys):
        """The d = 1 lists, the lower levels and the level-1 product
        transfers are read off one stable-submodule search, at d = 2 and
        level n."""
        calls = []
        search = galois.stable_submodules

        def counted(rep, n):
            calls.append((rep.d, n))
            return search(rep, n)

        monkeypatch.setattr(galois, "stable_submodules", counted)
        assert cli.main(["isogeny-maximal", "--ell", "2", "--s", "2",
                         "--n", "2"]) == 0
        assert calls == [(2, 2)]


class TestMiyawakiTorsionCheck:
    def test_hit_without_torsion_fails_the_check(self, monkeypatch):
        # |disc| = 19 and multiplicative at 19, but its torsion is 3, not 5
        e = WeierstrassCurve(0, 1, 1, 1, 0)
        monkeypatch.setattr(families, "miyawaki_search",
                            lambda ell, bound: {19: [e]})
        report, status = run_cli(["miyawaki-search", "--ell", "5"])
        check = report["checks"][0]
        assert check["name"] == "hits-have-prime-power-conductor-and-torsion"
        assert check["pass"] is False
        assert status == 1
        report, _ = run_cli(["miyawaki-search", "--ell", "3"])
        assert report["checks"][0]["pass"] is True


class TestInternalErrors:
    def test_uncaught_exception_exits_3_with_error_object(self, monkeypatch,
                                                          capsys):
        def broken(args):
            raise RuntimeError("invariant broke")

        monkeypatch.setattr(cli, "_cmd_class_number", broken)
        assert cli.main(["class-number", "--disc", "-4"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "schema": 1,
            "error": {"type": "RuntimeError", "message": "invariant broke"},
        }
        assert "Traceback" in captured.err


class TestClosedStdout:
    def test_closed_stdout_exits_3_without_traceback(self):
        """A reader that closes the pipe early (`... | head -1`) is not a
        failed check: exit 3, one line on stderr, and no traceback from the
        interpreter's flush at exit."""
        import os
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "semistable_lab.cli", "class-number",
                 "--disc", "-164"],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1
        assert "stdout closed" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestKnownValues:
    def test_controlled_degree_41(self):
        report, status = run_cli(["controlled-degree", "--p", "41"])
        res = report["results"]
        assert status == 0
        assert res["disc"] == -164
        assert res["class_number"] == 8
        assert res["degree_over_Q"] == 32
        assert res["dihedral"] is True

    @pytest.mark.parametrize("disc,h", [(-3, 1), (-4, 1), (-164, 8),
                                        (-292, 4)])
    def test_class_number_table(self, disc, h):
        report, status = run_cli(["class-number", "--disc", str(disc)])
        assert status == 0
        assert report["results"]["class_number"] == h

    def test_class_number_off_table_has_no_checks(self):
        report, status = run_cli(["class-number", "--disc", "-20"])
        assert status == 0
        assert report["results"]["class_number"] == 2
        assert report["checks"] == []

    def test_controlled_degree_past_a_billion(self):
        # D = -p is a prime discriminant: one genus, so h is odd
        report, status = run_cli(["controlled-degree", "--p", "1000000007"])
        res = report["results"]
        assert status == 0
        assert res["disc"] == -1000000007
        assert res["class_number"] % 2 == 1
        assert (res["two_part"], res["degree_over_Q"]) == (1, 4)

    def test_gamma_rank_5_31(self):
        report, status = run_cli(["gamma-rank", "--ell", "5", "--p", "31"])
        res = report["results"]
        assert status == 0
        assert res["gamma_rank"] == 4
        assert res["unit_image_rank"] == 1
        assert res["bound"] == 3
        assert res["splitting"] == {"f": 1, "g": 4, "g2": 4,
                                    "has_two_primes": True}

    def test_gamma_rank_two_adic(self):
        report, status = run_cli(["gamma-rank", "--ell", "2", "--p", "73"])
        assert status == 0
        assert report["results"]["bound"] == 2

    def test_ns_enumerate_200(self):
        report, status = run_cli(["ns-enumerate", "--bound", "200"])
        res = report["results"]
        assert status == 0
        assert res["primes"] == [73, 89, 113]
        assert [(p["p"], p["u"]) for p in res["pairs"]] == [
            (73, -3), (89, 5), (113, -7)]
        assert res["exceptional"]["p"] == 17
        assert res["exceptional"]["curve"] == [1, -1, 1, -1, -14]

    def test_ns_enumerate_below_exceptional(self):
        report, _ = run_cli(["ns-enumerate", "--bound", "16"])
        assert "exceptional" not in report["results"]

    def test_verify_identities_two_adic(self):
        report, status = run_cli(["verify-identities", "--ell", "2",
                                  "--s", "2"])
        assert status == 0
        assert [c["name"] for c in report["checks"]] == [
            "identity-twisted-commutation", "identity-conjugate-difference"]
        assert report["results"]["omega"] == 15
        assert report["results"]["tau"] == [0, 1, 1, 0]

    def test_verify_identities_five_adic(self):
        report, status = run_cli(["verify-identities", "--ell", "5",
                                  "--s", "5"])
        assert status == 0
        assert [c["name"] for c in report["checks"]] == [
            "identity-twisted-commutation-tau-squared",
            "identity-conjugate-difference"]
        assert pow(report["results"]["omega"], 2, 5**4) == 5**4 - 1

    def test_isogeny_maximal_two_node_graph(self):
        report, status = run_cli(["isogeny-maximal", "--ell", "2",
                                  "--s", "2", "--n", "1"])
        res = report["results"]
        assert status == 0
        assert res["maximal_part"] == 2
        assert res["maximal_count"] == 1
        assert res["product_maximal_part"] == 4
        assert len(res["nodes"]) == 2
        assert res["nodes"][0] == {"lattice": [[1, 0], [0, 1]],
                                   "ell_part": 2, "sigma_trivial": True,
                                   "kernel_witnesses": 2}
        assert res["nodes"][1]["sigma_trivial"] is False

    def test_dagger_exceptional_pair(self):
        report, status = run_cli(["dagger", "--ell", "2", "--p", "17"])
        res = report["results"]
        assert status == 0
        assert res["dagger_valuation"] == 4
        assert res["dagger"] == [1, -1, 1, -1, -14]
        assert len(res["members"]) == 4
        assert res["unramified_signal"] is True

    @pytest.mark.parametrize("ell,p,val", [(2, 73, 2), (3, 19, 3),
                                           (3, 37, 3), (5, 11, 5)])
    def test_dagger_generic_pairs(self, ell, p, val):
        report, status = run_cli(["dagger", "--ell", str(ell), "--p", str(p)])
        assert status == 0
        assert report["results"]["dagger_valuation"] == val

    def test_miyawaki_default_box(self):
        report, status = run_cli(["miyawaki-search", "--ell", "3"])
        assert status == 0
        assert report["results"]["primes"] == [19, 37]
        assert report["results"]["hits"] == {
            "19": [[0, 1, 1, 1, 0]], "37": [[0, 1, 1, -3, 1]]}

    def test_ramification_4_2_1(self):
        report, status = run_cli(["ramification", "--orders", "4,2,1",
                                  "--ell", "2"])
        res = report["results"]
        assert status == 0
        assert res["upper_jumps"] == ["0/1", "1/2"]
        assert res["conductor_exponent"] == "3/2"
        assert res["break_bound_ok"] is True

    def test_curve_info_with_local_data(self):
        report, status = run_cli(["curve-info", "--curve", "0,-1,1,-10,-20",
                                  "--primes", "2,11"])
        res = report["results"]
        assert status == 0
        assert res["disc"] == -161051
        assert res["local"] == [
            {"p": 2, "kind": "good", "component_order": 1},
            {"p": 11, "kind": "multiplicative", "component_order": 5}]

    def test_genus2_reference_curve(self):
        report, status = run_cli(["genus2-disc", "--p-coeffs",
                                  "0,-1,2,-2,0,1", "--q-coeffs", "1"])
        res = report["results"]
        assert status == 0
        assert res["factorization"] == {"277": 1}
        names = [c["name"] for c in report["checks"]]
        assert "odd-part-is-power-of-277" in names


class TestPaperSuite:
    def test_all_paper_checks_pass(self):
        report, status = run_cli(["paper-suite"])
        assert status == 0
        assert report["results"]["total"] == 20
        assert report["results"]["passed"] == 20
        assert report["results"]["failed"] == []
        assert all(c["provenance"] == "paper" for c in report["checks"])

    def test_suite_reads_handler_tables(self, monkeypatch):
        monkeypatch.setitem(cli._CLASS_NUMBER_TABLE, -164, (9, "paper"))
        report, status = run_cli(["paper-suite"])
        assert status == 1
        assert report["inputs"] == {}
        assert report["results"]["failed"] == ["class-number-minus-164"]
        assert report["results"]["total"] == 20


class TestInputs:
    """`inputs` echoes every parsed option, defaults included, in order."""

    @pytest.mark.parametrize("line,inputs", [
        ("controlled-degree --p 41", {"p": 41}),
        ("gamma-rank --ell 5 --p 31", {"ell": 5, "p": 31}),
        ("class-number --disc -164", {"disc": -164}),
        ("verify-identities --ell 5 --s 5 --precision 4 --d 1",
         {"ell": 5, "s": 5, "precision": 4, "d": 1}),
        ("isogeny-maximal --ell 2 --s 2 --n 1", {"ell": 2, "s": 2, "n": 1}),
        ("ns-enumerate --bound 10000", {"bound": 10000}),
        ("miyawaki-search --ell 3", {"ell": 3, "bound": 8}),
        ("dagger --ell 3 --p 19", {"ell": 3, "p": 19}),
        ("ramification --orders 4,2,1 --ell 2",
         {"orders": [4, 2, 1], "ell": 2}),
        ("curve-info --curve 0,-1,1,-10,-20 --primes 2,11",
         {"curve": [0, -1, 1, -10, -20], "primes": [2, 11]}),
        ("curve-info --curve 0,-1,1,-10,-20",
         {"curve": [0, -1, 1, -10, -20], "primes": []}),
        ("genus2-disc --p-coeffs 0,-1,2,-2,0,1 --q-coeffs 1",
         {"p_coeffs": [0, -1, 2, -2, 0, 1], "q_coeffs": [1]}),
        ("genus2-disc --p-coeffs 0,-1,2,-2,0,1",
         {"p_coeffs": [0, -1, 2, -2, 0, 1], "q_coeffs": [0]}),
    ])
    def test_inputs(self, line, inputs):
        report, _ = run_cli(line.split())
        assert list(report["inputs"].items()) == list(inputs.items())


def _readme_command_lines() -> list[list[str]]:
    """The argv of every `semistable-lab ...` line in the README's Command
    line section, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    return [line.split("#")[0].split()[1:] for line in section.splitlines()
            if line.startswith("semistable-lab ")]


_README_LINES = _readme_command_lines()
_SUITE_LINES = [line.split() for lines, _ in cli._PAPER_SUITE
                for line in lines]
# every command line the README, the stable digests and paper-suite name
_NAMED_LINES = sorted({tuple(argv) for argv in _README_LINES + _SUITE_LINES
                       + [row[0].split() for row in _STABLE_REPORTS]}
                      | {("--meta", "class-number", "--disc", "-164")})
# requests that fail in parsing or in the handler, or that print help
_NO_REPORT_LINES = [
    "-h", "--meta --help", "-h class-number --disc -4", "--he paper-suite",
    "class-number -h", "paper-suite -h",
    "frobnicate --disc -4", "", "--meta", "--loud class-number --disc -4",
    "class-number --disc -4 --loud", "class-number --disc -4 surplus",
    "paper-suite surplus", "ramification --orders 4,x,1 --ell 2",
    "curve-info --curve 1,2,3", "class-number",
    "verify-identities --ell 7 --s 7", "class-number --disc 5",
]


def _outcome(capsys, argv) -> tuple:
    """(exit status, stdout without the --meta timestamp, stderr) of
    cli.main(argv)."""
    try:
        status = cli.main(list(argv))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    out = re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""',
                 captured.out)
    return status, out, captured.err


def _lazy_and_full(monkeypatch, capsys, argv) -> tuple:
    """_outcome of argv with the parser run() builds, then with a parser
    holding every subparser."""
    lazy = _outcome(capsys, argv)
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command=None: full_parser())
    return lazy, _outcome(capsys, argv)


class TestCommandTable:
    """`_COMMANDS` is the one list of subcommands, and a request builds the
    subparser of its own command only, with every outcome unchanged."""

    def test_table_is_the_one_source_of_command_names(self):
        readme_names = [argv[0] for argv in _README_LINES]
        assert set(readme_names) <= set(cli._COMMANDS)
        assert set(cli._COMMANDS) <= set(readme_names)
        assert {argv[0] for argv in _SUITE_LINES} <= set(cli._COMMANDS)

    @staticmethod
    def _subparsers(parser) -> list[str]:
        (action,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return list(action.choices)

    def test_known_command_builds_one_subparser(self):
        assert self._subparsers(cli._build_parser()) == list(cli._COMMANDS)
        for name in cli._COMMANDS:
            assert self._subparsers(cli._build_parser(name)) == [name]

    @pytest.mark.parametrize("argv", _NAMED_LINES, ids=" ".join)
    def test_named_line_matches_full_parser(self, monkeypatch, capsys, argv):
        """With every handler echoing its namespace, in order, the report
        and exit status are those of a parser holding every command."""
        for name in cli._COMMANDS:
            def echo(args, name=name):
                return {"handler": name, "namespace": list(vars(args))}, []
            monkeypatch.setattr(cli, "_cmd_" + name.replace("-", "_"), echo)
        lazy, full = _lazy_and_full(monkeypatch, capsys, argv)
        assert lazy == full
        assert lazy[0] == 0
        command = argv[1] if argv[0] == "--meta" else argv[0]
        assert json.loads(lazy[1])["results"]["handler"] == command

    @pytest.mark.parametrize("line", _NO_REPORT_LINES)
    def test_line_without_report_matches_full_parser(self, monkeypatch,
                                                     capsys, line):
        lazy, full = _lazy_and_full(monkeypatch, capsys, line.split())
        assert lazy == full
        assert lazy[0] in (0, 2)

    def test_usage_errors_name_every_command(self, capsys):
        choices = "{" + ",".join(cli._COMMANDS) + "}"
        for argv in (["verify-identities", "--ell", "7", "--s", "7"],
                     ["frobnicate"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
            err = " ".join(capsys.readouterr().err.split())
            assert err.startswith(f"usage: semistable-lab [-h] [--meta] "
                                  f"{choices} ...")
        # argparse names the subcommand argument by its dest, not its usage
        assert "error: argument command: invalid choice: 'frobnicate'" in err


_LIMITS_ARGV = [row["argv"] for row in json.loads(
    Path(__file__).with_name("golden_limits.json").read_text())]
# 0, +-1, +-2, psi_12, psi_13, 10^11 +- 3 and a 40-digit value, each signed
_EDGES = sorted({sign * n for sign in (1, -1) for n in (
    0, 1, 2, 318665857834031151167461, PRIMALITY_BOUND,
    10**11 - 3, 10**11 + 3, 10**39 + 7)})
# (cap, limit): an admitted value above the cap is replaced by the cap, so
# a heavy request runs at desk size; one past the limit is kept, since it
# is refused before any work
_FUZZ_CAPS = {
    ("ns-enumerate", "--bound"): (10**6, families._NS_BOUND_LIMIT),
    ("miyawaki-search", "--bound"): (12, families._BOX_LIMIT),
    ("verify-identities", "--precision"): (200, galois._PRECISION_LIMIT),
}


def _integer_slots(argv) -> dict[int, list[int]]:
    """token index -> indices of its comma-separated integers, those too
    long for int() left out."""
    slots = {}
    for i, token in enumerate(argv):
        found = [j for j, part in enumerate(token.split(","))
                 if re.fullmatch(r"-?\d{1,%d}" % cli._DIGITS_LIMIT, part)]
        if found:
            slots[i] = found
    return slots


def _replaced(argv, i, j, value) -> list[str]:
    """argv with entry j of token i set to value, every heavy value then
    capped."""
    parts = argv[i].split(",")
    parts[j] = str(value)
    argv = argv[:i] + [",".join(parts)] + argv[i + 1:]
    command = next(token for token in argv if token != "--meta")
    for k in range(1, len(argv)):
        cap, limit = _FUZZ_CAPS.get((command, argv[k - 1]), (None, None))
        if cap is not None and cap < int(argv[k]) <= limit:
            argv[k] = str(cap)
    return argv


def _fuzz_lines(rng) -> list[list[str]]:
    """From each limits-table argv and up to four named argv of each
    command: one integer moved by +1 and by -1, and each integer token set
    to four edge values in turn.  An argv without an integer gets four edge
    values appended instead."""
    named = {}
    for argv in _NAMED_LINES:
        named.setdefault(next(t for t in argv if t != "--meta"), []).append(
            list(argv))
    lines = []
    for argv in _LIMITS_ARGV + [argv for group in named.values()
                                for argv in rng.sample(group,
                                                       min(4, len(group)))]:
        slots = _integer_slots(argv)
        if not slots:
            lines += [argv + [str(edge)] for edge in rng.sample(_EDGES, 4)]
            continue
        i = rng.choice(sorted(slots))
        j = rng.choice(slots[i])
        n = int(argv[i].split(",")[j])
        lines += [_replaced(argv, i, j, n + 1), _replaced(argv, i, j, n - 1)]
        for i, found in slots.items():
            j = rng.choice(found)
            lines += [_replaced(argv, i, j, edge)
                      for edge in rng.sample(_EDGES, 4)]
    return lines


class TestExitCodeFuzz:
    """Argv drawn around the named and limits-table requests exit 0, 1 or
    2, print no report on 2, and print the same bytes when run twice in
    one process."""

    def test_drawn_argv_keep_the_exit_contract(self, capsys):
        drawn = _fuzz_lines(random.Random(33))
        lines = sorted({tuple(argv) for argv in drawn})
        assert {next(t for t in argv if t != "--meta")
                for argv in lines} == set(cli._COMMANDS)
        for argv in lines:
            first = _outcome(capsys, argv)
            assert first[0] in (0, 1, 2), argv
            assert first[0] != 2 or first[1] == "", argv
            assert _outcome(capsys, argv) == first, argv


class TestImportWeight:
    def test_cli_pulls_in_no_code_generating_modules(self):
        """Importing the CLI loads none of `dataclasses` and the modules it
        brings (`inspect`, `ast`, `dis`, `tokenize`), which a bare
        interpreter here does not load either."""
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys; import semistable_lab.cli; "
                "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis', "
                "'tokenize') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
