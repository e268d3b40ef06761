"""Spans around the calls into each layer of ``involute``, recorded from the
benchmark's own code, and the per-layer metrics computed from them.

``Tracer.install`` replaces each listed public function at every module
attribute that holds it, so a call is recorded whichever module's namespace
the caller looks it up in (``report.closure``, ``morphisms.generating_set``,
``families.sym_group_table`` ...).  ``perms`` is left alone: ``compose`` and
the ``Permutation`` methods run millions of times per operation and wrapping
them would swamp the measurement.

A span is ``[name, start, end, parent, op, caller, extra]``: ``parent`` is
the index of the enclosing span (-1 at the root), ``op`` the operation it
belongs to, ``caller`` the module whose attribute was called and ``extra``
a small count taken from the result (see ``Tracer._hook``).
"""

from __future__ import annotations

import sys
import weakref
from time import perf_counter

LAYERS = ("cli", "semigroups", "morphisms", "permgroups", "report",
          "families", "battery", "graphs", "traces")

WRAPPED = {
    "cli": ["main"],
    "semigroups": ["validate", "load_table", "from_json_dict", "green_relations",
                   "generating_set", "closure_of_subset", "atoms"],
    "morphisms": ["enumerate_isomorphism_mappings", "enumerate_automorphisms",
                  "enumerate_anti_automorphisms", "involutions",
                  "order_two_automorphisms", "find_isomorphism",
                  "find_anti_isomorphism", "is_homomorphism",
                  "is_anti_homomorphism", "is_proper_involution"],
    "permgroups": ["closure", "c_group", "g_group", "signed_aut_group",
                   "derived_subgroup", "group_fingerprint", "to_cayley_table",
                   "k_group", "two_involution_factorization"],
    "report": ["analyze", "identify_group", "report_to_json_dict", "report_to_text"],
    "families": ["cyclic_group", "r_of_n", "klein_four", "sym_group_table",
                 "full_transformation_monoid", "symmetric_inverse_monoid",
                 "partition_monoid", "star_map", "dual_symmetric_inverse_monoid",
                 "rectangular_band", "zero_semigroup", "doubled_semigroup",
                 "direct_product_table", "dual_table", "dihedral_group",
                 "quaternion_group", "elementary_abelian_two_group",
                 "alternating_group_table"],
    "battery": ["run_battery"],
    "graphs": ["graph_automorphisms", "graph_involution_group", "frucht_semigroup"],
    "traces": ["normal_form", "trace_equal", "gamma_map", "delta_map",
               "bfs_trace_class"],
}


class Tracer:
    """Records a span for every call to a wrapped function, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._returned: dict[int, weakref.ref] = {}

    def _memo_hit(self, out):
        """1 if ``out`` is an object an earlier call already returned."""
        ref = self._returned.get(id(out))
        if ref is not None and ref() is out:
            return 1
        try:
            self._returned[id(out)] = weakref.ref(out)
        except TypeError:
            pass
        return 0

    def _hook(self, name):
        return {
            "semigroups.validate": lambda out: out.n,
            "morphisms.enumerate_isomorphism_mappings": len,
            "morphisms.enumerate_automorphisms": self._memo_hit,
            "morphisms.enumerate_anti_automorphisms": self._memo_hit,
            "morphisms.find_isomorphism": lambda out: int(out is not None),
            "permgroups.closure": lambda out: [out.order, len(out.generators)],
        }.get(name)

    def _wrap(self, fn, name, caller):
        spans, stack = self.spans, self._stack
        hook = self._hook(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, caller, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    rec[6] = hook(out)
                except (AttributeError, TypeError):
                    pass
            return out

        return traced

    def install(self, package: str = "involute"):
        """Wrap every listed name at each ``package`` module attribute bound
        to it.  A name a refactor removed is recorded in ``absent``."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for attr in names:
                fn = getattr(home, attr, None) if home is not None else None
                if fn is None:
                    self.absent.append(f"{layer}.{attr}")
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            caller = mod.__name__.rpartition(".")[2]
                            setattr(mod, key, self._wrap(fn, f"{layer}.{attr}", caller))


# --- metrics from spans ------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _inside(spans, i, names):
    """True if an enclosing span of span ``i`` is a call to one of ``names``."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


#: Metric -> wrapped functions whose calls it times, inclusive of callees.  A
#: call inside another call of the same group (klein_four ->
#: direct_product_table, a recursive search) is not counted twice.
INCLUSIVE = {
    "semigroups.validate_s": ["semigroups.validate"],
    "semigroups.load_s": ["semigroups.load_table"],
    "semigroups.green_s": ["semigroups.green_relations"],
    "semigroups.generating_set_s": ["semigroups.generating_set"],
    "morphisms.aut_s": ["morphisms.enumerate_automorphisms"],
    "morphisms.anti_s": ["morphisms.enumerate_anti_automorphisms"],
    "morphisms.find_iso_s": ["morphisms.find_isomorphism"],
    "report.identify_s": ["report.identify_group"],
    "permgroups.fingerprint_s": ["permgroups.group_fingerprint"],
    "permgroups.derived_s": ["permgroups.derived_subgroup"],
    "permgroups.cayley_s": ["permgroups.to_cayley_table"],
    "permgroups.closure_s": ["permgroups.closure"],
    "permgroups.signed_s": ["permgroups.signed_aut_group"],
    "report.render_s": ["report.report_to_json_dict", "report.report_to_text"],
    "graphs.automorphisms_s": ["graphs.graph_automorphisms"],
    "families.build_s": [f"families.{name}" for name in WRAPPED["families"]],
}


def layer_metrics(spans, op_walls, op_bytes, op_names, checks):
    """Per-layer metrics for one traced pass.

    ``op_walls[i]`` is the wall time the worker measured around operation
    ``i``; ``op_bytes[i]`` the size of what it printed; ``op_names[i]`` its
    check name on the ``verify`` workload; ``checks`` every check name.
    Returns {metric: value} and, per op, (self seconds by layer, seconds
    outside every span).
    """
    m = dict.fromkeys(metric_names(checks), 0)
    group_of = {fn: (metric, set(fns)) for metric, fns in INCLUSIVE.items() for fn in fns}
    selfs = self_times(spans)
    per_op = [dict.fromkeys(LAYERS, 0.0) for _ in op_walls]
    memo_calls = memo_hits = iso_matches = 0
    for i, (name, start, end, _, op, caller, extra) in enumerate(spans):
        layer = name.partition(".")[0]
        m[f"{layer}.self_s"] += selfs[i]
        per_op[op][layer] += selfs[i]
        if name in group_of:
            metric, group = group_of[name]
            if not _inside(spans, i, group):
                m[metric] += end - start
        m["families.build_calls"] += layer == "families"
        if name in ("morphisms.enumerate_automorphisms",
                    "morphisms.enumerate_anti_automorphisms"):
            m["morphisms.aut_calls"] += name == "morphisms.enumerate_automorphisms"
            memo_calls += 1
            memo_hits += extra or 0
        elif name == "morphisms.find_isomorphism" and caller == "report":
            m["report.iso_attempts"] += 1
            iso_matches += extra or 0
        elif name == "report.analyze":
            m["report.analyze_s"] += selfs[i]
        elif name == "battery.run_battery" and op_names[op] in checks:
            m[f"battery.{op_names[op]}_s"] += end - start
        elif name == "semigroups.validate":
            m["semigroups.elements_validated"] += extra or 0
        elif name == "morphisms.enumerate_isomorphism_mappings":
            m["morphisms.solutions"] += extra or 0
        elif name == "permgroups.closure" and extra:
            m["permgroups.closure_order"] += extra[0]
            m["permgroups.closure_generators"] += extra[1]
    m["report.iso_match_ratio"] = iso_matches / max(m["report.iso_attempts"], 1)
    m["morphisms.memo_hit_ratio"] = memo_hits / max(memo_calls, 1)
    m["report.json_bytes"] = sum(op_bytes)
    m["bench.spans"] = len(spans)
    ops = [(layers, wall - sum(layers.values())) for layers, wall in zip(per_op, op_walls)]
    m["bench.unattributed_s"] = sum(unattributed for _, unattributed in ops)
    return m, ops


def metric_names(checks):
    """Every per-layer metric ``layer_metrics`` returns, in report order; the
    runner adds ``bench.trace_overhead_s``."""
    names = [f"{layer}.self_s" for layer in LAYERS] + list(INCLUSIVE)
    names += ["report.analyze_s", "semigroups.elements_validated", "morphisms.solutions",
              "morphisms.aut_calls", "morphisms.memo_hit_ratio", "report.iso_attempts",
              "report.iso_match_ratio", "permgroups.closure_order",
              "permgroups.closure_generators", "families.build_calls",
              "report.json_bytes"]
    names += [f"battery.{c}_s" for c in checks]
    names += ["bench.spans", "bench.unattributed_s"]
    return names


def unit_of(name):
    if name == "report.json_bytes":
        return "bytes"
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
