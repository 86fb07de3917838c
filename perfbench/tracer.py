"""Layer timing by wrapping the package's public functions from outside.

`Tracer.install()` replaces each listed function with a wrapper that counts
calls and records inclusive and self time (self time excludes nested wrapped
calls).  A name imported with `from .x import y` is a separate binding in
every importing module, so the wrapper is patched into each module whose
attribute is the original object.  `uninstall()` restores every binding.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

# Functions wrapped per layer.  Hot leaf helpers (polynomial arithmetic,
# PadicContext.valuation, point addition) are left out on purpose: they run
# millions of times per pass, and their time is charged to the calling
# layer's self time instead.  Names missing from a later version of the
# package are skipped, and their counters read 0.
LAYERS = {
    "arith": ["is_prime", "factorize", "divisors", "is_squarefree"],
    "quadratic": ["is_fundamental_discriminant", "reduced_forms",
                  "class_number", "controlled_two_extension"],
    "cyclotomic": ["splitting", "gamma_rank", "unit_generators",
                   "congruence_kernel", "unit_images", "unit_image_rank"],
    "polynomials": ["pgcd", "resultant", "discriminant", "rational_roots",
                    "is_irreducible", "find_irreducible",
                    "equal_degree_factor", "roots_mod", "GF.pow"],
    "curves": ["invariants", "local_data", "count_points",
               "trace_of_frobenius", "is_ordinary", "point_order",
               "two_division_poly", "division_poly",
               "has_rational_ell_torsion", "velu_quotient", "reduce_model",
               "isogeny_class", "hyperelliptic_odd_disc"],
    "families": ["ns_enumerate", "miyawaki_search", "identify_dagger",
                 "conductor_congruence", "two_torsion_field_unramified_at",
                 "load_seed_rows", "dagger_report"],
    "padic": ["Lattice.from_generators", "PadicMatrix.__matmul__",
              "PadicMatrix.inverse", "column_reduce", "is_pure", "intersect",
              "lattice_sum", "project_mod_ell", "orthogonal"],
    "intlinalg": ["mat_mul", "smith_diagonal", "smith_with_transforms",
                  "kernel_mod", "solve_mod"],
    "galois": ["teichmuller_unit", "build_rep", "verify_identities",
               "identities_pass", "group_ring_span",
               "quotient_group_structure", "stable_submodules", "filtration",
               "component_transfer", "node_lattice", "sigma_trivial_mod_ell",
               "find_ell_maximal", "toric_complement_check",
               "product_kernel", "dual_transfer_roundtrip"],
    "ramification": ["herbrand_phi", "herbrand_psi", "upper_jumps",
                     "conductor_exponent", "check_break_bound",
                     "check_tower_equivalence", "controlled_predicate"],
}

# (outer, inner, size of outer's result): inner calls made while outer runs
# are counted so that useful outcomes per attempt can be reported.
NESTED = [
    ("families.miyawaki_search", "curves.has_rational_ell_torsion",
     lambda hits: sum(len(v) for v in hits.values())),
    ("galois.stable_submodules", "padic.Lattice.from_generators", len),
]


class Stat:
    __slots__ = ("calls", "incl", "self")

    def __init__(self):
        self.calls, self.incl, self.self = 0, 0.0, 0.0


PACKAGE = "semistable_lab"


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.top = 0.0  # time inside outermost wrapped calls
        self.active: dict[str, int] = {}
        self.nested: dict[tuple[str, str], int] = {}
        self.outcomes: dict[str, int] = {}
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls, stat.incl, stat.self = 0, 0.0, 0.0
        self.top = 0.0
        self.nested = {}
        self.outcomes = {}

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        tracer = self
        inners = [o for o, i, _ in NESTED if i == name]
        sizer = next((sz for o, _i, sz in NESTED if o == name), None)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            active = tracer.active
            active[name] = active.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active[name] -= 1
                child = stack.pop()
                stat.calls += 1
                stat.incl += elapsed
                stat.self += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.top += elapsed
                for outer in inners:
                    if active.get(outer):
                        key = (outer, name)
                        tracer.nested[key] = tracer.nested.get(key, 0) + 1
            if sizer is not None:
                tracer.outcomes[name] = (tracer.outcomes.get(name, 0)
                                         + sizer(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for dotted in names:
                owner, attr = module, dotted
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(module, cls_name, None)
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    continue
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(f"{layer}.{dotted}", fn)
                self._set(owner, attr, staticmethod(wrapper) if is_static
                          else wrapper)
                if owner is module:
                    for other in modules:
                        if other is not module and other.__dict__.get(attr) is fn:
                            self._set(other, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat.self
        return out

    def times(self) -> dict[str, dict[str, float]]:
        """Inclusive and self seconds per wrapped function since reset()."""
        return {n: {"incl": s.incl, "self": s.self}
                for n, s in sorted(self.stats.items()) if s.calls}

    def snapshot(self) -> dict:
        """Deterministic work counts of the calls traced since reset()."""
        return {
            "calls": {n: s.calls for n, s in sorted(self.stats.items())},
            "nested": {f"{o}>{i}": c for (o, i), c in sorted(self.nested.items())},
            "outcomes": dict(sorted(self.outcomes.items())),
        }
