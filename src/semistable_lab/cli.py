"""Command line surface: every verification exposed as a subcommand.

All subcommands print one JSON report of the same shape:

    {"schema": 1, "command": ..., "inputs": {...}, "results": {...},
     "checks": [{"name", "expected", "actual", "pass", "provenance"}]}

and exit 1 when some check fails, 0 when all pass.  A usage error exits 2;
any other exception exits 3 after printing {"schema": 1, "error":
{"type", "message"}} in place of a report, and so does a stdout closed
before the report is written.  Output is deterministic
byte for byte for fixed inputs; --meta appends a "meta" object with a
timestamp after the stable region, so consumers hashing reports must
strip that key first.  Integers beyond 2^53 - 1 are serialized as
strings to keep weakly typed consumers exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import cyclotomic, families, galois, quadratic, ramification
from .arith import PRIMALITY_BOUND, factorize, ord_at
from .curves import (
    SingularCurveError,
    WeierstrassCurve,
    has_rational_ell_torsion,
    hyperelliptic_odd_disc,
    invariants,
    is_ordinary,
    isogeny_class,
    local_data,
    on_curve,
    point_order,
    reduce_model,
    request_memo,
)

_INT_EXACT_LIMIT = 2**53 - 1

_MIYAWAKI_PRIMES = {3: [19, 37], 5: [11], 7: []}
_GENUS2_REFERENCE = ((0, -1, 2, -2, 0, 1), (1,))
# ramification's round trip probes about 2n points, each phi O(1) and each
# psi one bisection, so O(n log n) in the list length n; local data costs
# up to ~0.4 ms per prime near psi_13
_ORDERS_LIMIT = 2048
_PRIMES_LIMIT = 1000
# digits of one integer in a list argument; the interpreter's default
# int <- str limit, declared here so the refusal does not depend on it
_DIGITS_LIMIT = 4300
_CLASS_NUMBER_TABLE = {-3: (1, "trivial"), -4: (1, "trivial"),
                       -164: (8, "paper"), -292: (4, "derived")}
_CONTROLLED_TABLE = {41: (8, 32, "paper"), 3: (1, 4, "trivial"),
                     17: (4, 16, "derived")}


def _jsonable(value):
    """Recursive conversion to JSON-safe values with exact integers.

    A report repeats its large integers (a modulus, matrix entries), so
    each distinct one is rendered once per call, through a memo that lives
    only as long as the call.
    """
    rendered: dict[int, str] = {}

    def convert(value):
        if isinstance(value, bool) or value is None or isinstance(value, str):
            return value
        if isinstance(value, int):
            if abs(value) <= _INT_EXACT_LIMIT:
                return value
            text = rendered.get(value)
            if text is None:
                # Decimal writes past the interpreter's int -> str limit
                text = rendered[value] = str(Decimal(value))
            return text
        if isinstance(value, Fraction):
            return f"{convert(value.numerator)}/{convert(value.denominator)}"
        if isinstance(value, WeierstrassCurve):
            return list(value)
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        # the records are tuples too; only WeierstrassCurve is rendered
        if type(value) in (list, tuple):
            return [convert(v) for v in value]
        raise TypeError(f"cannot serialize {type(value).__name__}")

    return convert(value)


def _check(name: str, expected, actual, provenance: str) -> dict:
    """One check with raw values; run() renders the whole report at once."""
    if provenance not in ("paper", "trivial", "derived"):
        raise AssertionError(f"unknown provenance {provenance!r}")
    return {
        "name": name,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
        "provenance": provenance,
    }


def _int_list(text: str) -> list[int]:
    """The integers of a comma-separated list; one of more than
    _DIGITS_LIMIT digits is refused before it is converted."""
    parts = [part for part in text.split(",") if part.strip() != ""]
    for part in parts:
        # a part has no more digits than characters, so most skip the count
        digits = sum(map(str.isdecimal, part)) if len(part) > _DIGITS_LIMIT else 0
        if digits > _DIGITS_LIMIT:
            raise argparse.ArgumentTypeError(
                f"an integer exceeds the desk-scale limit {_DIGITS_LIMIT} "
                f"digits, got {digits} digits")
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _parse_curve(text: str) -> WeierstrassCurve:
    coeffs = _int_list(text)
    if len(coeffs) != 5:
        raise argparse.ArgumentTypeError(
            "curve must be five comma-separated integers a1,a2,a3,a4,a6")
    try:
        return WeierstrassCurve(*coeffs)
    except SingularCurveError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------- subcommands


def _cmd_ns_enumerate(args) -> tuple[dict, list[dict]]:
    # ns_enumerate raises unless every pair's discriminants are p and -p^2
    # and its first curve is ordinary at 2, so only the second curve's
    # ordinarity is left to compute here
    pairs = families.ns_enumerate(args.bound)
    residues_ok = all(pr.p % 8 == 1 for pr in pairs)
    ordinary_ok = all(is_ordinary(pr.disc_p_squared, 2) for pr in pairs)
    results = {
        "count": len(pairs),
        "primes": [pr.p for pr in pairs],
        "pairs": [
            {"p": pr.p, "u": pr.u, "curve_disc_p": pr.disc_p,
             "curve_disc_p_squared": pr.disc_p_squared}
            for pr in pairs
        ],
    }
    if args.bound >= families.EXCEPTIONAL_PRIME:
        results["exceptional"] = {
            "p": families.EXCEPTIONAL_PRIME,
            "curve": families.EXCEPTIONAL_SEED,
        }
    checks = [
        _check("every-prime-is-1-mod-8", True, residues_ok, "paper"),
        _check("discriminants-are-p-and-minus-p-squared", True, True, "paper"),
        _check("ordinary-at-two", True, ordinary_ok, "paper"),
    ]
    return results, checks


def _cmd_miyawaki_search(args) -> tuple[dict, list[dict]]:
    hits = families.miyawaki_search(args.ell, args.bound)
    defining_ok = True
    for p, curves in hits.items():
        for e in curves:
            inv = invariants(e)
            defining_ok &= abs(inv.disc) == p**ord_at(inv.disc, p)
            defining_ok &= local_data(e, p).kind == "multiplicative"
            defining_ok &= ord_at(inv.j.denominator, p) > 0
            found, pt = has_rational_ell_torsion(e, args.ell)
            defining_ok &= (found and on_curve(e, pt)
                            and point_order(e, pt) == args.ell)
    results = {
        "primes": sorted(hits),
        "hits": {p: curves for p, curves in sorted(hits.items())},
    }
    checks = [_check("hits-have-prime-power-conductor-and-torsion",
                     True, defining_ok, "derived")]
    if args.bound == 8:
        checks.append(_check("prime-set-in-documented-box",
                             _MIYAWAKI_PRIMES[args.ell], sorted(hits),
                             "paper"))
    return results, checks


def _cmd_dagger(args) -> tuple[dict, list[dict]]:
    rep = families.dagger_report(args.ell, args.p)
    expected_val = 4 if (args.ell, args.p) == (2, 17) else args.ell
    closure = sorted({q.coefficients() for e in rep.members
                      for q in isogeny_class(e, 1)})
    members = sorted(e.coefficients() for e in rep.members)
    results = {
        "seed": rep.seed,
        "members": list(rep.members),
        "valuations": list(rep.valuations),
        "dagger": rep.dagger,
        "dagger_valuation": rep.dagger_valuation,
        "congruence_ok": rep.congruence_ok,
        "unramified_signal": rep.unramified_signal,
    }
    checks = [
        _check("distinguished-valuation", expected_val,
               rep.dagger_valuation, "paper"),
        _check("class-closed-under-quotients", members, closure, "derived"),
        _check("conductor-congruence", True, rep.congruence_ok, "derived"),
    ]
    if args.ell == 2:
        checks.append(_check("two-torsion-unramified-signal", True,
                             rep.unramified_signal, "derived"))
    return results, checks


def _cmd_verify_identities(args) -> tuple[dict, list[dict]]:
    rep = galois.build_rep(args.ell, args.d, args.s, args.precision)
    flat = lambda mat: [x for row in mat.rows for x in row]
    checks = []
    for c in galois.verify_identities(rep):
        checks.append(_check(f"identity-{c.name}", flat(c.rhs), flat(c.lhs),
                             "paper"))
    results = {
        "omega": rep.omega,
        "modulus": rep.ctx.modulus,
        "sigma": flat(rep.sigma),
        "tau": flat(rep.tau),
    }
    return results, checks


def _node_payload(node: galois.MaximalNode) -> dict:
    return {
        "lattice": [list(b) for b in node.lattice.basis],
        "ell_part": node.ell_part,
        "sigma_trivial": node.sigma_trivial,
        "kernel_witnesses": len(node.kernels),
    }


def _cmd_isogeny_maximal(args) -> tuple[dict, list[dict]]:
    ell, s, n = args.ell, args.s, args.n
    galois.require_searchable(ell, n, 2)
    galois.require_ell(ell)  # the v_l(s) test below divides by l^2
    if s and s % (ell * ell) == 0:
        # at level 1 sigma is then trivial on every kernel, outside the
        # hypothesis of sigma-trivial-exactly-on-maximal; past it the search
        # would end in a transfer that is not integral, or sooner in "s
        # vanishes at this precision"
        then = ("sigma is trivial on every level-1 kernel" if n == 1 else
                "a transfer past level 1 is not integral")
        raise ValueError(
            f"--n {n} needs v_l(s) = 1: l^2 divides s = {s}, and then {then}")
    precision = max(4, n + 2)
    rep1 = galois.build_rep(ell, 1, s, precision)
    rep2 = galois.build_rep(ell, 2, s, precision)
    # one search: the d = 1 lists and the lower levels are read off it
    levels = galois.stable_levels(rep2, n)
    single = galois.find_ell_maximal(rep1, ell,
                                     galois.first_block_levels(levels))
    product = galois.find_ell_maximal(rep2, ell * ell, levels)
    # a block sum of stable kernels is stable, so the product search has
    # transferred it; a missing one is a fault of the search (exit 3)
    combined = {k.basis: t for k, t in product.level_one}
    multiplicative = all(
        combined[galois.product_kernel(k1, k2).basis] == t1 * t2
        for k1, t1 in single.level_one for k2, t2 in single.level_one)
    results = {
        "nodes": [_node_payload(nd) for nd in single.nodes],
        "maximal_part": single.maximal_part,
        "maximal_count": single.maximal_count,
        "product_nodes": len(product.nodes),
        "product_maximal_part": product.maximal_part,
    }
    checks = [
        _check("maximal-part", ell, single.maximal_part, "paper"),
        _check("maximal-attained-uniquely", 1, single.maximal_count,
               "derived"),
        _check("sigma-trivial-exactly-on-maximal", True,
               single.sigma_trivial_exactly_on_maximal, "paper"),
        _check("product-graph-maximal-part", ell * ell,
               product.maximal_part, "paper"),
        _check("product-transfer-multiplicative", True, multiplicative,
               "derived"),
    ]
    return results, checks


def _cmd_class_number(args) -> tuple[dict, list[dict]]:
    h = quadratic.class_number(args.disc)
    results = {"disc": args.disc, "class_number": h}
    checks = []
    if args.disc in _CLASS_NUMBER_TABLE:
        expected, tag = _CLASS_NUMBER_TABLE[args.disc]
        checks.append(_check("class-number", expected, h, tag))
    return results, checks


def _cmd_controlled_degree(args) -> tuple[dict, list[dict]]:
    rep = quadratic.controlled_two_extension(args.p)
    results = {
        "p": rep.p, "disc": rep.disc, "class_number": rep.h,
        "two_part": rep.n, "gal_MK_order": rep.gal_MK_order,
        "degree_over_Q": rep.degree_over_Q, "dihedral": rep.dihedral,
    }
    checks = [
        _check("degree-is-four-times-two-part", 4 * rep.n,
               rep.degree_over_Q, "trivial"),
    ]
    if args.p in _CONTROLLED_TABLE:
        h, degree, tag = _CONTROLLED_TABLE[args.p]
        checks.append(_check("class-number", h, rep.h, tag))
        checks.append(_check("degree-over-q", degree, rep.degree_over_Q, tag))
    return results, checks


def _cmd_gamma_rank(args) -> tuple[dict, list[dict]]:
    rep = cyclotomic.unit_image_rank(args.ell, args.p)
    spl = cyclotomic.splitting(args.ell, args.p)
    results = {
        "ell": rep.ell, "p": rep.p,
        "gamma_rank": rep.gamma_rank,
        "unit_image_rank": rep.unit_image_rank,
        "bound": rep.bound,
        "splitting": {"f": spl.f, "g": spl.g, "g2": spl.g2,
                      "has_two_primes": spl.has_two_primes},
    }
    checks = [
        _check("gamma-rank-is-prime-count", spl.g2, rep.gamma_rank,
               "trivial"),
        _check("bound-sandwich", True,
               0 <= rep.bound <= rep.gamma_rank, "trivial"),
    ]
    if (args.ell, args.p) == (5, 31):
        checks.append(_check("gamma-rank", 4, rep.gamma_rank, "derived"))
        checks.append(_check("quotient-rank", 3, rep.bound, "paper"))
    elif args.ell == 2 and args.p % 8 == 1:
        checks.append(_check("quotient-rank", 2, rep.bound, "derived"))
    return results, checks


def _cmd_ramification(args) -> tuple[dict, list[dict]]:
    if len(args.orders) > _ORDERS_LIMIT:
        raise ValueError(
            f"--orders exceeds the desk-scale limit {_ORDERS_LIMIT} group "
            f"orders, got {len(args.orders)}")
    filt = ramification.RamFiltration(tuple(args.orders))
    jumps = ramification.upper_jumps(filt)
    cond = ramification.conductor_exponent(filt)
    verdict = ramification.check_break_bound(filt, args.ell)
    last = filt.last_break
    probes = [Fraction(0)]
    if last is not None:
        probes += [Fraction(k, 2) for k in range(1, 2 * last + 3)]
    roundtrip = all(
        ramification.herbrand_psi(filt, ramification.herbrand_phi(filt, u)) == u
        for u in probes)
    results = {
        "orders": list(filt.orders),
        "upper_jumps": jumps,
        "conductor_exponent": cond,
        "break_bound_ok": verdict,
    }
    checks = [_check("herbrand-roundtrip", True, roundtrip, "derived")]
    return results, checks


def _cmd_curve_info(args) -> tuple[dict, list[dict]]:
    if len(args.primes) > _PRIMES_LIMIT:
        raise ValueError(
            f"--primes exceeds the desk-scale limit {_PRIMES_LIMIT} primes, "
            f"got {len(args.primes)}")
    e = args.curve
    inv = invariants(e)
    results = {
        "curve": e,
        "reduced_model": reduce_model(e),
        "b2": inv.b2, "b4": inv.b4, "b6": inv.b6, "b8": inv.b8,
        "c4": inv.c4, "c6": inv.c6, "disc": inv.disc,
        "j": inv.j,
    }
    if args.primes:
        results["local"] = [
            {"p": ld.p, "kind": ld.kind, "component_order": ld.component_order}
            for ld in (local_data(e, p) for p in args.primes)]
    checks = [
        _check("b-invariant-relation", 4 * inv.b8,
               inv.b2 * inv.b6 - inv.b4**2, "trivial"),
        _check("discriminant-relation", 1728 * inv.disc,
               inv.c4**3 - inv.c6**2, "trivial"),
    ]
    return results, checks


def _cmd_genus2_disc(args) -> tuple[dict, list[dict]]:
    p_poly, q_poly = tuple(args.p_coeffs), tuple(args.q_coeffs)
    odd = hyperelliptic_odd_disc(p_poly, q_poly)
    # below psi_13 every cofactor factorize meets has a proven primality
    # verdict; the worst case, a balanced semiprime, is rho's longest walk
    if abs(odd) >= PRIMALITY_BOUND:
        raise ValueError(
            f"the odd part of the discriminant is factored only below "
            f"psi_13 = {PRIMALITY_BOUND} ({PRIMALITY_BOUND.bit_length()} "
            f"bits), got one of {abs(odd).bit_length()} bits")
    factors = factorize(abs(odd)) if odd else {}
    results = {
        "p_coeffs": list(p_poly),
        "q_coeffs": list(q_poly),
        "odd_disc": odd,
        "factorization": {str(q): e for q, e in sorted(factors.items())},
    }
    checks = [_check("odd-part-is-odd", 1, abs(odd) % 2, "trivial")]
    if (p_poly, q_poly) == _GENUS2_REFERENCE:
        checks.append(_check("odd-part-is-power-of-277",
                             [277], sorted(factors), "paper"))
    return results, checks


# ---------------------------------------------------------------- paper suite

# paper-suite is the `paper` checks of these command lines, renamed in order.
# A row of several lines yields one check that passes when every `paper`
# check of every line passes.
_IDENTITY_GRID = [
    f"verify-identities --ell {ell} --s {s} --precision {precision} --d {d}"
    for ell in (2, 3, 5) for s in (ell, 2 * ell)
    for precision in (4, 6) for d in (1, 2)]
_PAPER_SUITE = [
    (["controlled-degree --p 41"],
     ["controlled-degree-41-class-number", "controlled-degree-41-degree"]),
    (["class-number --disc -164"], ["class-number-minus-164"]),
    (["gamma-rank --ell 5 --p 31"], ["gamma-rank-5-31-quotient-rank"]),
    (_IDENTITY_GRID, ["identity-grid-exact"]),
    (["ns-enumerate --bound 10000"],
     ["ns-every-prime-is-1-mod-8",
      "ns-discriminants-are-p-and-minus-p-squared", "ns-ordinary-at-two"]),
    (["dagger --ell 2 --p 17"], ["dagger-valuation-2-17"]),
    (["dagger --ell 2 --p 73"], ["dagger-valuation-2-73"]),
    (["dagger --ell 3 --p 19"], ["dagger-valuation-3-19"]),
    (["dagger --ell 3 --p 37"], ["dagger-valuation-3-37"]),
    (["dagger --ell 5 --p 11"], ["dagger-valuation-5-11"]),
    (["isogeny-maximal --ell 2 --s 2 --n 1"],
     ["isogeny-maximal-part", "isogeny-sigma-trivial-exactly-on-maximal",
      "isogeny-product-graph-maximal-part"]),
    (["miyawaki-search --ell 3"], ["miyawaki-primes-ell-3"]),
    (["miyawaki-search --ell 5"], ["miyawaki-primes-ell-5"]),
    (["miyawaki-search --ell 7"], ["miyawaki-primes-ell-7"]),
    (["genus2-disc --p-coeffs 0,-1,2,-2,0,1 --q-coeffs 1"],
     ["genus2-odd-part-power-of-277"]),
]


def _cmd_paper_suite(args) -> tuple[dict, list[dict]]:
    parser = _build_parser()
    checks = []
    for lines, names in _PAPER_SUITE:
        found = []
        for line in lines:
            sub = parser.parse_args(line.split())
            found += [c for c in sub.handler(sub)[1]
                      if c["provenance"] == "paper"]
        if len(lines) > 1:
            found = [_check(names[0], True, all(c["pass"] for c in found),
                            "paper")]
        if len(found) != len(names):
            raise AssertionError(f"{lines[0]!r} has {len(found)} paper "
                                 f"checks for {len(names)} suite names")
        checks += [dict(c, name=name) for name, c in zip(names, found)]
    results = {
        "total": len(checks),
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": [c["name"] for c in checks if not c["pass"]],
        "workers": 1,  # kept so that reports stay byte-identical
    }
    return results, checks


# ------------------------------------------------------------------- wiring

_INT = {"type": int, "required": True}

# name: (help, {option: add_argument keywords}), in the order the top-level
# help lists them, with the options in the order `inputs` echoes them.  The
# handler of `a-b` is `_cmd_a_b`, read from the module when a parser is built.
# Defaults are tuples, since every parse of the process shares them.
_COMMANDS = {
    "ns-enumerate": ("curve pairs attached to primes u^2 + 64",
                     {"--bound": _INT}),
    "miyawaki-search": (
        "prime-power-conductor curves with rational odd torsion",
        {"--ell": _INT, "--bound": {"type": int, "default": 8}}),
    "dagger": ("distinguished member of a prime-conductor isogeny class",
               {"--ell": _INT, "--p": _INT}),
    "verify-identities": (
        "exact operator identities for the inertia pair",
        {"--ell": _INT, "--s": _INT, "--precision": {"type": int, "default": 4},
         "--d": {"type": int, "default": 1}}),
    "isogeny-maximal": (
        "maximal transferred l-part over the stable kernel graph",
        {"--ell": _INT, "--s": _INT, "--n": _INT}),
    "class-number": (
        "reduced-form class number of an imaginary quadratic discriminant",
        {"--disc": _INT}),
    "controlled-degree": ("degree of the maximal 2-extension controlled at p",
                          {"--p": _INT}),
    "gamma-rank": ("local unit ranks and the global unit image quotient",
                   {"--ell": _INT, "--p": _INT}),
    "ramification": (
        "Herbrand transfer, conductor exponent and break bound for a "
        "filtration",
        {"--orders": {"type": _int_list, "required": True,
                      "help": "comma-separated non-increasing group orders"},
         "--ell": _INT}),
    "curve-info": (
        "Weierstrass invariants and reduction data",
        {"--curve": {"type": _parse_curve, "required": True,
                     "help": "five comma-separated integers a1,a2,a3,a4,a6"},
         "--primes": {"type": _int_list, "default": ()}}),
    "genus2-disc": (
        "odd part of the discriminant of 4P + Q^2",
        {"--p-coeffs": {"type": _int_list, "required": True,
                        "help": "degree-5 polynomial, constant term first"},
         "--q-coeffs": {"type": _int_list, "default": (0,),
                        "help": "polynomial of degree at most 3, constant "
                                "first"}}),
    "paper-suite": (
        "run every check whose expected value is a quoted source statement",
        {}),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` alone, or of every command
    when `command` is None.  Either way the usage line names every command."""
    parser = argparse.ArgumentParser(
        prog="semistable-lab",
        description="Desk-scale verification suite with JSON reports")
    parser.add_argument("--meta", action="store_true",
                        help="append a meta object (timestamp) after the "
                             "stable region")
    # a full build leaves the metavar unset: argparse then derives the same
    # usage from the choices and names the argument "command" in errors
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, options = _COMMANDS[name]
        cmd = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            cmd.add_argument(flag, **keywords)
        cmd.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def run(argv: list[str] | None = None) -> tuple[dict, int]:
    """Parse argv, execute the subcommand, return (report, exit status)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first token but --meta names the command; a parser for -h, an
    # unknown command or none at all holds every subparser
    named = next((token for token in argv if token != "--meta"), None)
    parser = _build_parser(named if named in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        # one request's memo (see curves); nothing in it outlives the request
        with request_memo():
            results, checks = args.handler(args)
    except ValueError as exc:
        parser.error(str(exc))
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("meta", "command", "handler")}
    report = _jsonable({
        "schema": 1,
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    })
    if args.meta:
        from datetime import datetime, timezone  # only --meta needs a clock

        report["meta"] = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "python": sys.version.split()[0],
        }
    status = 0 if all(c["pass"] for c in checks) else 1
    return report, status


def main(argv: list[str] | None = None) -> int:
    """Print the report; exit 0 if every check passes, 1 if one fails, 2 on
    a usage error, 3 with a JSON error object if anything else is raised,
    and 3 with one line on stderr if stdout is closed before it is written."""
    try:
        report, status = run(argv)
    except Exception as exc:
        import traceback  # the error path alone pays for this import

        traceback.print_exc()
        error = {"type": type(exc).__name__, "message": str(exc)}
        report, status = {"schema": 1, "error": error}, 3
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # close drops the unwritten buffer even as its flush raises again,
        # so the interpreter's flush at exit has nothing left to write
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        print("semistable-lab: stdout closed before the report was written",
              file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    raise SystemExit(main())
