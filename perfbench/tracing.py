"""Per-layer tracing of ``symlab`` from outside the package.

:class:`Tracer` wraps the public functions of each ``src/symlab`` module
(the layers) and keeps, per function and per layer, call counts, span
durations and self time (a span's duration minus the time its child spans
cover).  The spans are aggregated as they close; nothing inside the package
is edited.

A wrapper must sit at every name a caller binds, not only at the defining
module: ``from .stats import evaluate_many`` in ``montecarlo`` binds its own
name at import, so patching ``symlab.stats.evaluate_many`` alone would miss
every Monte Carlo call.  :meth:`Tracer.install` therefore replaces each
traced function under every ``symlab`` module attribute bound to it.

``validate`` and ``_oracles`` are test harnesses, not user paths, and are
never patched.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: layer -> (module, public functions traced).  ``montecarlo._simulate`` is
#: private but it is the one place a null simulation actually runs, which is
#: what ``montecarlo.repeat_null_frac`` counts.
LAYERS = {
    "stats": (
        "symlab.stats",
        ("parse_statistic", "evaluate", "evaluate_many", "evaluate_family_member",
         "brute_force", "counting_tables"),
    ),
    "montecarlo": (
        "symlab.montecarlo",
        ("null_distribution", "critical_value", "p_value", "power", "_simulate"),
    ),
    "distributions": ("symlab.distributions", ("get_null", "get_alternative")),
    "rng": ("symlab._rng", ("stream",)),
    "location": (
        "symlab.location",
        ("trim_weights", "trimmed_mean", "influence_curve", "trimmed_mean_derivative",
         "population_trimmed_mean"),
    ),
    "asymptotics": (
        "symlab.asymptotics",
        ("projection", "asymptotic_variance", "variance_function", "sup_variance",
         "slope_derivative", "slope_function", "sup_slope", "cm_family_slope",
         "sqrtb1_slope", "report"),
    ),
    "quad": ("symlab._quad", ("quad", "quad_split")),
    "efficiency": (
        "symlab.efficiency",
        ("bahadur_index", "index_curve", "default_grid", "zero_efficiency_alpha",
         "ks_s_equivalence_crossover", "equivalence_report"),
    ),
    "cli": ("symlab.cli", ("main",)),
}

#: sampler methods are traced on every class of ``symlab.distributions`` that
#: defines one; the density/cdf methods are not, because quadrature
#: integrands call them millions of times and wrapping them would swamp the
#: layers being measured
SAMPLE_METHOD = "sample"

_EXCLUDED_MODULES = ("symlab.validate", "symlab._oracles")

#: per-layer metric -> (unit, the end-to-end metric it should move, where)
PER_LAYER = {
    "stats.evaluate_many.calls": ("count", "work_per_s and wall_s on mc-short-rows"),
    "stats.evaluate_many.rows": ("count", "work_per_s on mc-short-rows"),
    "stats.evaluate_many.self_s": ("s", "work_per_s and wall_s on mc-short-rows"),
    "stats.evaluate_many.us_per_row": ("us", "work_per_s on mc-short-rows and eval-long-rows"),
    "stats.evaluate.calls": ("count", "work_per_s on eval-long-rows"),
    "stats.evaluate.self_s": ("s", "work_per_s on eval-long-rows; zero on index-curves"),
    "montecarlo.power.s": ("s", "job_p50_ms and work_per_s on mc-short-rows"),
    "montecarlo.p_value.s": ("s", "job_p50_ms and work_per_s on mc-short-rows"),
    "montecarlo.critical_value.s": ("s", "job_p50_ms and work_per_s on mc-short-rows"),
    "montecarlo.null_distribution.calls": ("count", "job_p50_ms on mc-short-rows"),
    "montecarlo.self_s": ("s", "job_p50_ms on mc-short-rows"),
    "montecarlo.repeat_null_frac": ("ratio", "work_per_s and job_p50_ms on mc-short-rows"),
    "distributions.sample.calls": ("count", "work_per_s on mc-short-rows"),
    "distributions.sample.draws": ("count", "work_per_s on mc-short-rows"),
    "distributions.sample.s": ("s", "work_per_s on mc-short-rows"),
    "rng.stream.calls": ("count", "work_per_s on mc-short-rows"),
    "rng.stream.s": ("s", "work_per_s on mc-short-rows"),
    "location.trimmed_mean_derivative.calls": ("count", "work_per_s on index-curves"),
    "location.trimmed_mean_derivative.s": ("s", "work_per_s on index-curves"),
    "asymptotics.sup_variance.calls": ("count", "work_per_s and wall_s on index-curves"),
    "asymptotics.sup_variance.s": ("s", "work_per_s and wall_s on index-curves"),
    "asymptotics.sup_slope.calls": ("count", "work_per_s and wall_s on index-curves"),
    "asymptotics.sup_slope.s": ("s", "work_per_s and wall_s on index-curves"),
    "asymptotics.variance_function.calls": ("count", "work_per_s on index-curves"),
    "asymptotics.slope_function.calls": ("count", "work_per_s on index-curves"),
    "asymptotics.asymptotic_variance.s": ("s", "work_per_s on index-curves"),
    "asymptotics.slope_derivative.s": ("s", "work_per_s on index-curves"),
    "asymptotics.cm_family_slope.calls": ("count", "work_per_s on index-curves"),
    "asymptotics.cm_family_slope.s": ("s", "work_per_s on index-curves"),
    "asymptotics.cm_family_slope.repeat_frac": ("ratio", "work_per_s on index-curves"),
    "asymptotics.sqrtb1_slope.s": ("s", "work_per_s on index-curves"),
    "quad.calls": ("count", "work_per_s on index-curves"),
    "quad.s": ("s", "work_per_s on index-curves"),
    "efficiency.index_curve.calls": ("count", "work_per_s on index-curves"),
    "efficiency.index_curve.s": ("s", "work_per_s on index-curves"),
    "efficiency.self_s": ("s", "work_per_s on index-curves"),
    "cli.main.s": ("s", "job_p50_ms on index-curves and mc-short-rows"),
    "cli.self_s": ("s", "job_p50_ms on index-curves and mc-short-rows"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall time of one round"),
}


class Tracer:
    """Aggregating span recorder; one per process."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child time accumulated per open span
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_outer: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------
    def _observe_args(self, key: str, args, kwargs) -> None:
        if key == "montecarlo._simulate":
            spec, model, theta, cfg = args[:4]
            t = args[5] if len(args) > 5 else kwargs.get("t")
            if theta is None:
                sim = (spec.label, spec.alpha, model.name, cfg.n, cfg.reps, cfg.seed, t)
                self._count_repeat("null_sims", sim)
        elif key == "asymptotics.cm_family_slope":
            null, alt = args[:2]
            self._count_repeat("cm_family_slope", (null.name, alt.kind, alt.base.name))
        elif key == "stats.evaluate_many":
            self.counts["evaluate_many.rows"] += len(args[1])

    def _observe_result(self, key: str, result) -> None:
        if key == "distributions.sample":
            self.counts["sample.draws"] += int(getattr(result, "size", 0))

    def _count_repeat(self, what: str, key) -> None:
        self.counts[what] += 1
        if key in self._seen[what]:
            self.counts[what + ".repeats"] += 1
        else:
            self._seen[what].add(key)

    def wrap(self, layer: str, key: str, func):
        tracer = self

        def traced(*args, **kwargs):
            tracer._observe_args(key, args, kwargs)
            children = [0.0]
            tracer._stack.append(children)
            tracer._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                own = duration - children[0]
                tracer.calls[key] += 1
                tracer.total[key] += duration
                tracer.self_time[key] += own
                tracer.layer_self[layer] += own
                if tracer._depth[layer] == 0:
                    tracer.layer_outer[layer] += duration
            tracer._observe_result(key, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", key)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Patch every traced function at every ``symlab`` name bound to it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if (name == "symlab" or name.startswith("symlab.")) and name not in _EXCLUDED_MODULES
        }
        wrappers = {}
        for layer, (mod_name, names) in LAYERS.items():
            mod = modules.get(mod_name)
            if mod is None:
                self.missing.append(mod_name)
                continue
            for name in names:
                func = getattr(mod, name, None)
                if func is None:
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                wrappers[id(func)] = self.wrap(layer, f"{layer}.{name}", func)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        dist = modules.get("symlab.distributions")
        if dist is not None:
            for value in list(vars(dist).values()):
                if isinstance(value, type) and SAMPLE_METHOD in vars(value):
                    original = vars(value)[SAMPLE_METHOD]
                    self._patched.append((value, SAMPLE_METHOD, original))
                    setattr(value, SAMPLE_METHOD,
                            self.wrap("distributions", "distributions.sample", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict aggregate, mergeable across processes by summing."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "layer_self": dict(self.layer_self),
            "layer_outer": dict(self.layer_outer),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def merge(snapshots) -> dict:
    """Sum several :meth:`Tracer.snapshot` results (one per process)."""
    out = {"calls": {}, "total": {}, "self_time": {}, "layer_self": {}, "layer_outer": {},
           "counts": {}, "missing": []}
    for snap in snapshots:
        for field, values in snap.items():
            if field == "missing":
                out["missing"] = sorted(set(out["missing"]) | set(values))
                continue
            for key, value in values.items():
                out[field][key] = out[field].get(key, 0) + value
    return out


def per_layer_metrics(snap: dict, overhead_s: float) -> dict:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from a merged snapshot."""
    calls, total, own = snap["calls"], snap["total"], snap["self_time"]
    counts = snap["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    rows = counts.get("evaluate_many.rows", 0)
    values = {
        "stats.evaluate_many.calls": calls.get("stats.evaluate_many", 0),
        "stats.evaluate_many.rows": rows,
        "stats.evaluate_many.self_s": own.get("stats.evaluate_many", 0.0),
        "stats.evaluate_many.us_per_row": 1e6 * ratio(total.get("stats.evaluate_many", 0.0), rows),
        "stats.evaluate.calls": calls.get("stats.evaluate", 0),
        "stats.evaluate.self_s": own.get("stats.evaluate", 0.0),
        "montecarlo.power.s": total.get("montecarlo.power", 0.0),
        "montecarlo.p_value.s": total.get("montecarlo.p_value", 0.0),
        "montecarlo.critical_value.s": total.get("montecarlo.critical_value", 0.0),
        "montecarlo.null_distribution.calls": calls.get("montecarlo.null_distribution", 0),
        "montecarlo.self_s": snap["layer_self"].get("montecarlo", 0.0),
        "montecarlo.repeat_null_frac": ratio(counts.get("null_sims.repeats", 0),
                                             counts.get("null_sims", 0)),
        "distributions.sample.calls": calls.get("distributions.sample", 0),
        "distributions.sample.draws": counts.get("sample.draws", 0),
        "distributions.sample.s": total.get("distributions.sample", 0.0),
        "rng.stream.calls": calls.get("rng.stream", 0),
        "rng.stream.s": total.get("rng.stream", 0.0),
        "location.trimmed_mean_derivative.calls": calls.get("location.trimmed_mean_derivative", 0),
        "location.trimmed_mean_derivative.s": total.get("location.trimmed_mean_derivative", 0.0),
        "asymptotics.sup_variance.calls": calls.get("asymptotics.sup_variance", 0),
        "asymptotics.sup_variance.s": total.get("asymptotics.sup_variance", 0.0),
        "asymptotics.sup_slope.calls": calls.get("asymptotics.sup_slope", 0),
        "asymptotics.sup_slope.s": total.get("asymptotics.sup_slope", 0.0),
        "asymptotics.variance_function.calls": calls.get("asymptotics.variance_function", 0),
        "asymptotics.slope_function.calls": calls.get("asymptotics.slope_function", 0),
        "asymptotics.asymptotic_variance.s": total.get("asymptotics.asymptotic_variance", 0.0),
        "asymptotics.slope_derivative.s": total.get("asymptotics.slope_derivative", 0.0),
        "asymptotics.cm_family_slope.calls": calls.get("asymptotics.cm_family_slope", 0),
        "asymptotics.cm_family_slope.s": total.get("asymptotics.cm_family_slope", 0.0),
        "asymptotics.cm_family_slope.repeat_frac": ratio(
            counts.get("cm_family_slope.repeats", 0), counts.get("cm_family_slope", 0)),
        "asymptotics.sqrtb1_slope.s": total.get("asymptotics.sqrtb1_slope", 0.0),
        "quad.calls": calls.get("quad.quad", 0),
        "quad.s": snap["layer_outer"].get("quad", 0.0),
        "efficiency.index_curve.calls": calls.get("efficiency.index_curve", 0),
        "efficiency.index_curve.s": total.get("efficiency.index_curve", 0.0),
        "efficiency.self_s": snap["layer_self"].get("efficiency", 0.0),
        "cli.main.s": total.get("cli.main", 0.0),
        "cli.self_s": snap["layer_self"].get("cli", 0.0),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
