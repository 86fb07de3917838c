"""Check each report against the oracles, the published values and its own
consistency.  `outcome(request, stdout, status, cache)` says whether a
request failed and lists the problems of its report; `check` does the
report checks and `fault_outcome` decides whether a request marked as a
fault still fails.  Integers past 2^53 - 1 arrive as strings; int() reads
both forms.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracles as o


def _frac(x) -> Fraction:
    return Fraction(x) if isinstance(x, str) else Fraction(int(x))


def _args(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _expect(problems, label, expected, actual):
    if expected != actual:
        problems.append(f"{label}: expected {expected!r}, got {actual!r}")


FAILED, REFUSED, CHECK = "failed", "refused", "check"


def fault_outcome(request, report, status) -> str:
    """FAILED while the fault still shows; REFUSED when a composite "prime"
    is now rejected with a usage error (exit 2, no report), which mends the
    fault; CHECK when the report is to be checked as usual."""
    if request.fault.endswith("reported-prime"):
        if status == 2 and report is None:
            return REFUSED
        n = _args(request.argv)["primes"]
        local = (report or {}).get("results", {}).get("local", [])
        if status != 0 or any(str(e["p"]) == n for e in local):
            return FAILED
        return CHECK
    # int-str-limit: success is exit 0 with every identity passing
    return FAILED if status != 0 else CHECK


def outcome(request, text, status, cache) -> tuple[bool, list[str]]:
    """(whether the operation failed, the problems of its report)."""
    try:
        report = json.loads(text) if text else None
    except ValueError:
        report = None
    if request.fault:
        state = fault_outcome(request, report, status)
        if state == FAILED:
            return True, []
        if state == REFUSED:
            return False, []
    elif status != 0:
        return True, []
    if report is None:
        return False, ["no JSON report"]
    return False, check(request, report, status, cache)


def check(request, report, status, cache) -> list[str]:
    problems: list[str] = []
    argv = request.argv
    _expect(problems, "exit status", 0, status)
    _expect(problems, "schema", 1, report.get("schema"))
    _expect(problems, "command", argv[0], report.get("command"))
    failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    _expect(problems, "failing checks", [], failing)
    handler = HANDLERS.get(argv[0])
    if handler is not None:
        handler(_args(argv), report["results"], report["checks"], problems,
                cache)
    return problems


def _class_number(disc, cache):
    if disc not in cache:
        cache[disc] = o.class_number_dirichlet(disc)
    return cache[disc]


def _check_class_number(a, res, checks, problems, cache):
    disc = int(a["disc"])
    h = _class_number(disc, cache)
    _expect(problems, f"h({disc}) by Dirichlet", h, res["class_number"])
    if h % o.genus_divisor(disc):
        problems.append(f"genus theory: 2^(t-1) does not divide h({disc})")
    if disc in o.PUBLISHED["class_number"]:
        _expect(problems, "published h", o.PUBLISHED["class_number"][disc], h)


def _check_controlled(a, res, checks, problems, cache):
    p = int(a["p"])
    if not o.is_prime_td(p):
        problems.append(f"{p} is not prime")
    disc = -p if p % 4 == 3 else -4 * p
    _expect(problems, "disc", disc, res["disc"])
    h = _class_number(disc, cache)
    _expect(problems, f"h({disc}) by Dirichlet", h, res["class_number"])
    n = 2 ** o.valuation(h, 2)
    _expect(problems, "two part", n, res["two_part"])
    _expect(problems, "degree over Q", 4 * n, res["degree_over_Q"])
    _expect(problems, "Gal(M/K) order", 2 * n, res["gal_MK_order"])
    if p in o.PUBLISHED["controlled_degree"]:
        _expect(problems, "published (h, degree)",
                o.PUBLISHED["controlled_degree"][p],
                (res["class_number"], res["degree_over_Q"]))


def _check_gamma(a, res, checks, problems, cache):
    ell, p = int(a["ell"]), int(a["p"])
    f = o.mult_order(p, ell)
    spl = res["splitting"]
    _expect(problems, "residue degree", f, spl["f"])
    _expect(problems, "primes over p", (ell - 1) // f, spl["g"])
    _expect(problems, "gamma rank", (ell - 1) // f, res["gamma_rank"])
    _expect(problems, "rank sandwich", res["gamma_rank"],
            res["unit_image_rank"] + res["bound"])
    if res["bound"] < 0:
        problems.append("negative quotient rank")
    if (ell, p) in o.PUBLISHED["gamma_quotient_rank"]:
        _expect(problems, "published quotient rank",
                o.PUBLISHED["gamma_quotient_rank"][(ell, p)], res["bound"])


def _check_identities(a, res, checks, problems, cache):
    ell, s, d = int(a["ell"]), int(a["s"]), int(a["d"])
    m = ell ** int(a["precision"])
    _expect(problems, "modulus", m, int(res["modulus"]))
    w = int(res["omega"])
    if ell in (2, 3):
        _expect(problems, "omega", m - 1, w)
    elif pow(w, 4, m) != 1 or w % 5 != 2:
        problems.append("omega is not the 4th root of unity = 2 mod 5")
    sigma, _, tau, _ = o.inertia_pair(ell, s % m, w, d, m)
    flat = lambda mat: [x for row in mat for x in row]
    _expect(problems, "sigma", flat(sigma), [int(x) for x in res["sigma"]])
    _expect(problems, "tau", flat(tau), [int(x) for x in res["tau"]])
    reported = {c["name"]: c for c in checks}
    for name, (lhs, rhs) in o.identities(ell, s % m, w, d, m).items():
        c = reported.get(f"identity-{name}")
        if c is None:
            problems.append(f"identity {name} missing")
            continue
        _expect(problems, f"{name} lhs", flat(lhs), [int(x) for x in c["actual"]])
        _expect(problems, f"{name} rhs", flat(rhs), [int(x) for x in c["expected"]])
        if lhs != rhs:
            problems.append(f"identity {name} fails in the oracle")


def _check_isogeny(a, res, checks, problems, cache):
    ell, s, n = int(a["ell"]), int(a["s"]), int(a["n"])
    _expect(problems, "maximal part", ell, res["maximal_part"])
    _expect(problems, "maximal count", 1, res["maximal_count"])
    _expect(problems, "product maximal part", ell * ell,
            res["product_maximal_part"])
    _expect(problems, "largest node part", ell,
            max(nd["ell_part"] for nd in res["nodes"]))
    key = ("stable", ell, s, n)
    if key not in cache:
        cache[key] = sum(o.stable_subgroup_count(ell, s, k)
                         for k in range(1, n + 1))
    _expect(problems, "stable subgroups by set closure", cache[key],
            sum(nd["kernel_witnesses"] for nd in res["nodes"]))


def _check_ns(a, res, checks, problems, cache):
    primes = o.square_plus_64_primes(int(a["bound"]))
    _expect(problems, "primes u^2 + 64", primes, res["primes"])
    _expect(problems, "count", len(primes), res["count"])
    for pair in res["pairs"]:
        p = pair["p"]
        _expect(problems, f"disc of first curve at {p}", p,
                o.curve_invariants(*pair["curve_disc_p"])[1])
        _expect(problems, f"disc of second curve at {p}", -p * p,
                o.curve_invariants(*pair["curve_disc_p_squared"])[1])


def _check_miyawaki(a, res, checks, problems, cache):
    ell = int(a["ell"])
    if int(a.get("bound", 8)) == 8:
        _expect(problems, "published primes", o.PUBLISHED["miyawaki_primes"][ell],
                res["primes"])
    for p, curves in res["hits"].items():
        p = int(p)
        for e in curves:
            c4, disc = o.curve_invariants(*e)
            if abs(disc) != p ** o.valuation(abs(disc), p) or c4 % p == 0:
                problems.append(f"{e} is not multiplicative of conductor {p}")


def _check_dagger(a, res, checks, problems, cache):
    ell, p = int(a["ell"]), int(a["p"])
    vals = sorted(o.valuation(abs(o.curve_invariants(*e)[1]), p)
                  for e in res["members"])
    _expect(problems, "member valuations", vals, res["valuations"])
    _expect(problems, "dagger valuation",
            o.valuation(abs(o.curve_invariants(*res["dagger"])[1]), p),
            res["dagger_valuation"])
    if res["dagger"] not in res["members"]:
        problems.append("dagger is not a class member")
    if (ell, p) in o.PUBLISHED["dagger_valuation"]:
        _expect(problems, "published dagger valuation",
                o.PUBLISHED["dagger_valuation"][(ell, p)],
                res["dagger_valuation"])


def _check_ramification(a, res, checks, problems, cache):
    orders = [int(x) for x in a["orders"].split(",")]
    ell = int(a["ell"])
    breaks = [i for i in range(len(orders)) if orders[i] > 1]
    jumps = [o.herbrand_phi(orders, Fraction(i)) for i in range(len(orders))
             if orders[i] > (orders[i + 1] if i + 1 < len(orders) else 1)]
    _expect(problems, "upper jumps", jumps,
            [_frac(x) for x in res["upper_jumps"]])
    if breaks:
        phi_c = o.herbrand_phi(orders, Fraction(breaks[-1]))
        _expect(problems, "conductor exponent", phi_c + 1,
                _frac(res["conductor_exponent"]))
        _expect(problems, "break bound", phi_c <= Fraction(1, ell - 1),
                res["break_bound_ok"])


def _check_curve_info(a, res, checks, problems, cache):
    curve = [int(x) for x in a["curve"].split(",")]
    c4, disc = o.curve_invariants(*curve)
    _expect(problems, "discriminant", disc, int(res["disc"]))
    _expect(problems, "c4", c4, int(res["c4"]))
    _expect(problems, "j", Fraction(c4 ** 3, disc), _frac(res["j"]))
    for entry in res.get("local", []):
        p = int(entry["p"])
        if disc % p:
            kind, order = "good", 1
        elif c4 % p:
            kind, order = "multiplicative", o.valuation(disc, p)
        else:
            kind, order = "additive", 1
        _expect(problems, f"reduction at {p}", (kind, order),
                (entry["kind"], entry["component_order"]))


def _check_genus2(a, res, checks, problems, cache):
    odd = int(res["odd_disc"])
    if odd % 2 == 0:
        problems.append("odd part is even")
    primes = sorted(o.prime_factors_td(odd))
    _expect(problems, "odd primes", primes,
            sorted(int(q) for q in res["factorization"]))
    if a["p-coeffs"] == "0,-1,2,-2,0,1" and a["q-coeffs"] == "1":
        _expect(problems, "published odd primes",
                o.PUBLISHED["genus2_odd_primes"], primes)


def _check_suite(a, res, checks, problems, cache):
    _expect(problems, "total", len(checks), res["total"])
    _expect(problems, "passed", len(checks), res["passed"])
    _expect(problems, "failed", [], res["failed"])
    actual = {c["name"]: c["actual"] for c in checks}
    pub = o.PUBLISHED
    expected = {
        "controlled-degree-41-class-number": pub["controlled_degree"][41][0],
        "controlled-degree-41-degree": pub["controlled_degree"][41][1],
        "class-number-minus-164": pub["class_number"][-164],
        "gamma-rank-5-31-quotient-rank": pub["gamma_quotient_rank"][(5, 31)],
        "genus2-odd-part-power-of-277": pub["genus2_odd_primes"],
    }
    for ell, primes in pub["miyawaki_primes"].items():
        expected[f"miyawaki-primes-ell-{ell}"] = primes
    for (ell, p), v in pub["dagger_valuation"].items():
        expected[f"dagger-valuation-{ell}-{p}"] = v
    for name, value in expected.items():
        _expect(problems, f"suite check {name}", value, actual.get(name))


HANDLERS = {
    "class-number": _check_class_number,
    "controlled-degree": _check_controlled,
    "gamma-rank": _check_gamma,
    "verify-identities": _check_identities,
    "isogeny-maximal": _check_isogeny,
    "ns-enumerate": _check_ns,
    "miyawaki-search": _check_miyawaki,
    "dagger": _check_dagger,
    "ramification": _check_ramification,
    "curve-info": _check_curve_info,
    "genus2-disc": _check_genus2,
    "paper-suite": _check_suite,
}
