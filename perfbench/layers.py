"""Per-layer metrics from the span files of one traced pass over a workload.

A layer is an ietlab module.  ``busy_s`` of a function is the summed
duration of its spans, ``self_s`` of a span is its duration minus that of
its direct children, and a module's ``self_s`` sums the self time of its
spans.  No wrapped function calls itself, so spans of one name never nest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# (metric, unit) in the order they are printed.
PER_LAYER = [
    ("kernels.lyap_orbit.steps", "count"),
    ("kernels.lyap_orbit.busy_s", "s"),
    ("kernels.lyap_orbit.ns_per_step", "ns/step"),
    ("kernels.birkhoff_h_orbit.steps", "count"),
    ("kernels.birkhoff_h_orbit.busy_s", "s"),
    ("kernels.birkhoff_h_orbit.ns_per_step", "ns/step"),
    ("kernels.flow_time_one_batch.points", "count"),
    ("kernels.flow_time_one_batch.busy_s", "s"),
    ("kernels.flow_time_one_batch.ns_per_point", "ns/point"),
    ("kernels.roof_eval_batch.points", "count"),
    ("kernels.roof_eval_batch.busy_s", "s"),
    ("kernels.base_step_batch.points", "count"),
    ("kernels.base_step_batch.busy_s", "s"),
    ("kernels.code_orbit.steps", "count"),
    ("kernels.code_orbit.busy_s", "s"),
    ("kernels.code_orbit.ns_per_step", "ns/step"),
    ("kernels.canonicalize_k.calls", "count"),
    ("kernels.canonicalize_k.busy_s", "s"),
    ("flow.lyapunov_experiment.busy_s", "s"),
    ("flow.aaronson_experiment.busy_s", "s"),
    ("flow.self_s", "s"),
    ("flow.trajectories.attempted", "count"),
    ("flow.trajectories.discarded", "count"),
    ("flow.clean_ratio", "1"),
    ("flow.crossings", "count"),
    ("measure.sample_mu.calls", "count"),
    ("measure.sample_mu.samples", "count"),
    ("measure.sample_mu.busy_s", "s"),
    ("measure.sample_mu.acceptance", "1"),
    ("measure.sample_mu.band_rejects", "count"),
    ("measure.sample_mu.step_discards", "count"),
    ("measure.invariance_check.busy_s", "s"),
    ("measure.invariance_check.used_ratio", "1"),
    ("measure.total_mass.busy_s", "s"),
    ("measure.coded_orbit_stream.busy_s", "s"),
    ("measure.plugin_block_entropy.busy_s", "s"),
    ("measure.lz78_rate.busy_s", "s"),
    ("measure.lz78_rate.phrases", "count"),
    ("measure.lz78_rate.ns_per_symbol", "ns/symbol"),
    ("roof.choose_b_and_check.busy_s", "s"),
    ("roof.roof_integral.calls", "count"),
    ("roof.roof_integral.busy_s", "s"),
    ("roof.log_derivative_integral.busy_s", "s"),
    ("geometry.canonicalize.calls", "count"),
    ("geometry.canonicalize.busy_s", "s"),
    ("geometry.metric_norm.calls", "count"),
    ("geometry.metric_norm.busy_s", "s"),
    ("geometry.metric_form.calls", "count"),
    ("geometry.metric_form.busy_s", "s"),
    ("geometry.constant_C.calls", "count"),
    ("geometry.constant_C.busy_s", "s"),
    ("geometry.beta_factor.calls", "count"),
    ("geometry.beta_factor.busy_s", "s"),
    ("geometry.canonicalize.failures", "count"),
    ("iet.validate.busy_s", "s"),
    ("iet.locate.calls", "count"),
    ("iet.locate.busy_s", "s"),
    ("cli.load_config.busy_s", "s"),
    ("cli.build_spec.busy_s", "s"),
    ("cli.run_check_suite.busy_s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.bytes", "count"),
    ("cli.write_csv.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "1"),
]

# Counts that must repeat exactly on every pass at one seed.
EXACT_COUNTS = (
    "kernels.lyap_orbit.steps", "kernels.birkhoff_h_orbit.steps",
    "kernels.code_orbit.steps", "kernels.flow_time_one_batch.points",
    "kernels.canonicalize_k.calls", "flow.crossings",
    "flow.trajectories.attempted", "measure.sample_mu.proposals",
    "measure.sample_mu.accepted", "measure.lz78_rate.phrases",
    "geometry.canonicalize.calls",
)


@dataclass
class Trace:
    """Spans and counts of every process of one pass, merged."""

    busy_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add_file(self, path) -> None:
        with np.load(path, allow_pickle=False) as data:
            names = [str(n) for n in data["names"]]
            name, parent = data["name"], data["parent"]
            dur = data["end"] - data["start"]
            counts = json.loads(str(data["counts"]))
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=name.shape[0])
        self_ns = dur - child_ns
        for nid, label in enumerate(names):
            mine = name == nid
            _add(self.calls, label, int(np.count_nonzero(mine)))
            _add(self.busy_ns, label, int(dur[mine].sum()))
            _add(self.self_ns, label, int(self_ns[mine].sum()))
        for key, value in counts.items():
            _add(self.counts, key, value)

    def busy_s(self, name: str) -> float:
        return self.busy_ns.get(name, 0) * 1e-9

    def module_self_s(self, module: str) -> float:
        return sum(v for k, v in self.self_ns.items()
                   if k.startswith(module + ".")) * 1e-9

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)

    def exact_counts(self) -> dict[str, int]:
        out = {}
        for key in EXACT_COUNTS:
            fn, _, what = key.rpartition(".")
            out[key] = self.calls.get(fn, 0) if what == "calls" else self.count(key)
        return out


def _add(d: dict, key: str, value) -> None:
    d[key] = d.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Trace) -> dict[str, float]:
    """Every per-layer metric of one pass except ``trace.overhead_ratio``."""
    m: dict[str, float] = {}
    for fn, work in (("kernels.lyap_orbit", "steps"),
                     ("kernels.birkhoff_h_orbit", "steps"),
                     ("kernels.flow_time_one_batch", "points"),
                     ("kernels.roof_eval_batch", "points"),
                     ("kernels.base_step_batch", "points"),
                     ("kernels.code_orbit", "steps")):
        done = t.count(f"{fn}.{work}")
        m[f"{fn}.{work}"] = done
        m[f"{fn}.busy_s"] = t.busy_s(fn)
        m[f"{fn}.ns_per_{work[:-1]}"] = _ratio(t.busy_ns.get(fn, 0), done)
    for fn in ("kernels.canonicalize_k", "roof.roof_integral", "iet.locate",
               "cli.write_csv", "measure.sample_mu",
               *(f"geometry.{g}" for g in ("canonicalize", "metric_norm",
                                            "metric_form", "constant_C",
                                            "beta_factor"))):
        m[f"{fn}.calls"] = t.calls.get(fn, 0)
    for fn in ("kernels.canonicalize_k", "flow.lyapunov_experiment",
               "flow.aaronson_experiment", "measure.sample_mu",
               "measure.invariance_check", "measure.total_mass",
               "measure.coded_orbit_stream", "measure.plugin_block_entropy",
               "measure.lz78_rate", "roof.choose_b_and_check",
               "roof.roof_integral", "roof.log_derivative_integral",
               "iet.validate", "iet.locate", "cli.load_config",
               "cli.build_spec", "cli.run_check_suite", "cli.write_csv",
               *(f"geometry.{g}" for g in ("canonicalize", "metric_norm",
                                            "metric_form", "constant_C",
                                            "beta_factor"))):
        m[f"{fn}.busy_s"] = t.busy_s(fn)

    m["flow.self_s"] = t.module_self_s("flow")
    samples = discarded = crossings = 0
    for fn in ("flow.lyapunov_experiment", "flow.aaronson_experiment"):
        samples += t.count(f"{fn}.samples")
        discarded += t.count(f"{fn}.discarded")
        crossings += t.count(f"{fn}.crossings")
    m["flow.trajectories.attempted"] = samples + discarded
    m["flow.trajectories.discarded"] = discarded
    m["flow.clean_ratio"] = _ratio(samples, samples + discarded)
    m["flow.crossings"] = crossings

    m["measure.sample_mu.samples"] = t.count("measure.sample_mu.samples")
    m["measure.sample_mu.acceptance"] = _ratio(
        t.count("measure.sample_mu.accepted"),
        t.count("measure.sample_mu.proposals"))
    for what in ("band_rejects", "step_discards"):
        m[f"measure.sample_mu.{what}"] = t.count(f"measure.sample_mu.{what}")
    m["measure.invariance_check.used_ratio"] = _ratio(
        t.count("measure.invariance_check.used"),
        t.count("measure.invariance_check.count"))
    m["measure.lz78_rate.phrases"] = t.count("measure.lz78_rate.phrases")
    m["measure.lz78_rate.ns_per_symbol"] = _ratio(
        t.busy_ns.get("measure.lz78_rate", 0),
        t.count("measure.lz78_rate.symbols"))
    m["geometry.canonicalize.failures"] = t.count(
        "geometry.canonicalize.failures")
    m["cli.write_csv.bytes"] = t.count("cli.write_csv.bytes")
    m["cli.main.self_s"] = t.self_ns.get("cli.main", 0) * 1e-9
    return m
