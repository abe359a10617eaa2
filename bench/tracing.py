"""Span tracing by wrapping the program's public functions in place.

Each traced function is replaced, at every module attribute of the package
that refers to it, by a wrapper that times the call.  Calls nest on one
stack, so a span's self time is its duration minus the time of the traced
calls made inside it.  Only the benchmark installs the wrappers; the
program itself carries no tracing code.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED = {
    "structure": ("bundle_types", "canonical_bundle_labeling"),
    "graphs": (
        "build_bundle_graph", "build_class_graph", "bundle_down_moves", "reachable",
        "graph_to_json_doc", "graph_to_dot",
    ),
    "congruence": (
        "congruence_graph", "star_graph_2x2", "parametric_to_json_doc", "parametric_to_dot",
        "classify_congruence", "congruence_template", "star_template",
    ),
    "perturb": (
        "random_survey", "numeric_jordan_type", "eigen_clusters", "numeric_weyr",
        "find_arrow_witness",
    ),
    "tangent": (
        "action_operator", "numeric_rank", "guarded_rank", "similarity_codim_numeric",
        "congruence_codim_numeric", "star_congruence_codim_numeric",
    ),
    "reduction": ("reduce_to_miniversal", "sylvester_solve"),
    "templates": ("miniversal_template", "pattern_check"),
    "cli": ("run",),
}

# matrix order of a call, for the per-size tangent figures
_ORDER_OF = {
    "tangent.action_operator": lambda args: np.shape(args[1])[0],
    "tangent.numeric_rank": lambda args: np.shape(args[0])[0],
}
N12_ORDERS = {12, 144, 288}  # n, n^2 (complex operator), 2 n^2 (real operator)


class Tracer:
    """Collects per-function call durations and self times while installed."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.orders: dict[str, list[int]] = defaultdict(list)
        self._stack = [0.0]
        self._patched = []

    def _wrap(self, key, fn):
        durations, self_time, stack = self.durations[key], self.self_time, self._stack
        orders, order_of = self.orders[key], _ORDER_OF.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                children = stack.pop()
                stack[-1] += dt
                durations.append(dt)
                self_time[key] += dt - children
                if order_of is not None:
                    orders.append(order_of(args))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name == "matstrata" or name.startswith("matstrata.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"matstrata.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- summaries --------------------------------------------------------

    def total(self, *keys) -> float:
        return sum(sum(self.durations[k]) for k in keys)

    def calls(self, *keys) -> int:
        return sum(len(self.durations[k]) for k in keys)

    def self_total(self, *keys) -> float:
        return sum(self.self_time[k] for k in keys)

    def percentile(self, key: str, q: float, scale: float) -> float:
        d = self.durations[key]
        return float(np.percentile(d, q)) * scale if d else 0.0

    def median_at_n12(self, key: str, scale: float) -> float:
        d = [t for t, n in zip(self.durations[key], self.orders[key]) if n in N12_ORDERS]
        return float(np.median(d)) * scale if d else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure the spans give (counts from results are added by the caller)."""
        us, ms = 1e6, 1e3
        builds = ("graphs.build_bundle_graph", "graphs.build_class_graph")
        return {
            "structure.bundle_types_s": self.total("structure.bundle_types"),
            "structure.relabel_calls": self.calls("structure.canonical_bundle_labeling"),
            "structure.relabel_s": self.total("structure.canonical_bundle_labeling"),
            "graphs.build_s": self.total(*builds),
            "graphs.build_self_s": self.self_total(*builds),
            "graphs.down_moves_calls": self.calls("graphs.bundle_down_moves"),
            "graphs.down_moves_s": self.total("graphs.bundle_down_moves"),
            "graphs.serialize_s": self.total(
                "graphs.graph_to_json_doc", "graphs.graph_to_dot",
                "congruence.parametric_to_json_doc", "congruence.parametric_to_dot",
            ),
            "graphs.reachable_calls": self.calls("graphs.reachable"),
            "graphs.reachable_us_p50": self.percentile("graphs.reachable", 50, us),
            "graphs.reachable_us_p99": self.percentile("graphs.reachable", 99, us),
            "congruence.graph_s": self.total("congruence.congruence_graph", "congruence.star_graph_2x2"),
            "congruence.classify_us_p50": self.percentile("congruence.classify_congruence", 50, us),
            "congruence.classify_us_p99": self.percentile("congruence.classify_congruence", 99, us),
            "perturb.survey_self_s": self.self_total("perturb.random_survey"),
            "perturb.estimate_us_p50": self.percentile("perturb.numeric_jordan_type", 50, us),
            "perturb.estimate_us_p99": self.percentile("perturb.numeric_jordan_type", 99, us),
            "perturb.clusters_us_p50": self.percentile("perturb.eigen_clusters", 50, us),
            "perturb.weyr_calls": self.calls("perturb.numeric_weyr"),
            "perturb.weyr_us_p50": self.percentile("perturb.numeric_weyr", 50, us),
            "perturb.witness_ms_p50": self.percentile("perturb.find_arrow_witness", 50, ms),
            "tangent.assemble_s": self.total("tangent.action_operator"),
            "tangent.rank_s": self.total("tangent.numeric_rank"),
            "tangent.assemble_ms_n12": self.median_at_n12("tangent.action_operator", ms),
            "tangent.rank_ms_n12": self.median_at_n12("tangent.numeric_rank", ms),
            "tangent.guarded_rank_calls": self.calls("tangent.guarded_rank"),
            "tangent.guarded_rank_s": self.total("tangent.guarded_rank"),
            "reduction.sylvester_calls": self.calls("reduction.sylvester_solve"),
            "reduction.sylvester_s": self.total("reduction.sylvester_solve"),
            "reduction.sweep_self_s": self.self_total("reduction.reduce_to_miniversal"),
            "templates.build_s": self.total(
                "templates.miniversal_template", "congruence.congruence_template",
                "congruence.star_template",
            ),
            "templates.pattern_check_s": self.total("templates.pattern_check"),
            "cli.run_self_s": self.self_total("cli.run"),
        }

    def sample_counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in sorted(self.durations.items())}
