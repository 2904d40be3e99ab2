"""Tests of the benchmark itself: configs, correctness gate, spans, names.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import layers
import run
import tracer
import workloads
from conftest import BENCH, ROOT
from ietlab import cli
from ietlab.measure import SymbolStream, lz78_rate

# The per-layer metrics named by the benchmark's definition, in its order.
PER_LAYER_NAMES = [
    *(f"kernels.{k}.{m}" for k in ("lyap_orbit", "birkhoff_h_orbit")
      for m in ("steps", "busy_s", "ns_per_step")),
    "kernels.flow_time_one_batch.points", "kernels.flow_time_one_batch.busy_s",
    "kernels.flow_time_one_batch.ns_per_point",
    "kernels.roof_eval_batch.points", "kernels.roof_eval_batch.busy_s",
    "kernels.base_step_batch.points", "kernels.base_step_batch.busy_s",
    "kernels.code_orbit.steps", "kernels.code_orbit.busy_s",
    "kernels.code_orbit.ns_per_step",
    "kernels.canonicalize_k.calls", "kernels.canonicalize_k.busy_s",
    "flow.lyapunov_experiment.busy_s", "flow.aaronson_experiment.busy_s",
    "flow.self_s",
    "flow.trajectories.attempted", "flow.trajectories.discarded",
    "flow.clean_ratio", "flow.crossings",
    *(f"measure.sample_mu.{m}" for m in ("calls", "samples", "busy_s",
                                         "acceptance", "band_rejects",
                                         "step_discards")),
    "measure.invariance_check.busy_s", "measure.invariance_check.used_ratio",
    "measure.total_mass.busy_s",
    "measure.coded_orbit_stream.busy_s", "measure.plugin_block_entropy.busy_s",
    "measure.lz78_rate.busy_s", "measure.lz78_rate.phrases",
    "measure.lz78_rate.ns_per_symbol",
    "roof.choose_b_and_check.busy_s",
    "roof.roof_integral.calls", "roof.roof_integral.busy_s",
    "roof.log_derivative_integral.busy_s",
    *(f"geometry.{g}.{m}" for g in ("canonicalize", "metric_norm",
                                    "metric_form", "constant_C", "beta_factor")
      for m in ("calls", "busy_s")),
    "geometry.canonicalize.failures",
    "iet.validate.busy_s", "iet.locate.calls", "iet.locate.busy_s",
    "cli.load_config.busy_s", "cli.build_spec.busy_s",
    "cli.run_check_suite.busy_s",
    "cli.write_csv.calls", "cli.write_csv.bytes", "cli.write_csv.busy_s",
    "cli.main.self_s",
    "trace.overhead_ratio",
]

WORKLOAD_RATES = {
    "orbit": {"orbit_steps_per_s"},
    "measure": {"mu_samples_per_s"},
    "diagnostics": {"check_s", "entropy_symbols_per_s"},
}


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.COMMANDS))
def test_config_is_deterministic_in_the_seed_and_parses(name):
    cfg = workloads.make_config(name, 7)
    assert cfg == workloads.make_config(name, 7)
    assert cfg != workloads.make_config(name, 8)
    parsed = cli.parse_config(json.loads(json.dumps(cfg)))
    assert cli.serialize_config(parsed) == cli.serialize_config(
        cli.parse_config(cfg))
    kinds = {e.kind for e in parsed.experiments}
    assert kinds == set(workloads.COMMANDS[name])


def test_config_seeds_are_derived_from_the_workload_seed():
    seeds = [e["seed"] for e in workloads.make_config("diagnostics", 3)
             ["experiments"]]
    assert len(set(seeds)) == len(seeds) == workloads.CHECK_SEEDS + 1
    orbit = workloads.make_config("orbit", 3)["experiments"]
    assert [e["samples"] for e in orbit] == [workloads.ORBIT_SAMPLES] * 2


def _run_lab(tmp_path, kind, experiments, family="BlockRotation"):
    cfg = {"iet": {"family": family, "n_trunc": 64},
           "experiments": experiments}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / kind
    code = cli.main([kind, "--config", str(path), "--out", str(out)])
    return code, out, cfg


def test_gate_passes_clean_output_and_fails_tampered_csv(tmp_path):
    code, out, cfg = _run_lab(tmp_path, "lyapunov", [
        {"kind": "lyapunov", "n": 300, "samples": 2, "seed": 1}])
    csvs = workloads.expected_csvs(cfg, "lyapunov")
    digest, problems = gate.check_invocation(code, out, csvs, None)
    assert problems == [] and len(digest) == 64
    assert gate.check_invocation(code, out, csvs, digest) == (digest, [])

    data = bytearray((out / csvs[0]).read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    (out / csvs[0]).write_bytes(bytes(data))
    tampered, problems = gate.check_invocation(code, out, csvs, digest)
    assert tampered != digest
    assert any("digest" in p for p in problems)


def test_gate_fails_on_exit_code_missing_output_and_report_gates(tmp_path):
    code, out, cfg = _run_lab(tmp_path, "check", [
        {"kind": "check", "seed": 1}, {"kind": "check", "seed": 2}])
    csvs = workloads.expected_csvs(cfg, "check")
    assert csvs == ["check_0.csv", "check_1.csv"]
    assert gate.check_invocation(code, out, csvs, None)[1] == []
    assert gate.check_invocation(2, out, csvs, None)[1] == ["exit code 2"]

    report = json.loads((out / "report.json").read_text())
    report["results"][1]["verdicts"]["beta_bound"] = "FAIL"
    (out / "report.json").write_text(json.dumps(report))
    assert any("FAIL" in p for p in gate.check_invocation(code, out, csvs,
                                                           None)[1])
    (out / "check_1.csv").unlink()
    digest, problems = gate.check_invocation(code, out, csvs, None)
    assert digest is None and "missing" in problems[0]


def test_report_gates_cover_every_experiment_kind():
    bad = {"results": [
        {"kind": "lyapunov", "discard_rate_ok": False},
        {"kind": "aaronson", "discard_rate_ok": True},
        {"kind": "measure", "invariance": {"passed": False}, "passed": False},
        {"kind": "check", "verdicts": {"a": "WARN", "b": "PASS"}},
    ]}
    problems = gate.report_problems(bad)
    assert len(problems) == 2
    assert gate.report_problems({"results": []}) == ["report has no results"]


def _traced(tmp_path, kind, experiments, family="BlockRotation"):
    cfg = {"iet": {"family": family, "n_trunc": 64},
           "experiments": experiments}
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    spans = tmp_path / f"{kind}.spans.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LAB_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans), f"test/{kind}",
         "--", kind, "--config", str(path), "--out", str(tmp_path / kind)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return spans


def test_spans_nest_and_self_time_is_nonnegative(tmp_path):
    files = [
        _traced(tmp_path, "lyapunov", [
            {"kind": "lyapunov", "n": 300, "samples": 3, "seed": 1}]),
        _traced(tmp_path, "entropy", [
            {"kind": "entropy", "n": 70000, "seed": 2, "block_len": 12}],
            family="VonNeumannKakutani"),
    ]
    trace = layers.Trace()
    for path in files:
        with np.load(path, allow_pickle=False) as data:
            names = list(data["names"])
            name, parent = data["name"], data["parent"]
            start, end = data["start"], data["end"]
            assert str(data["run_id"]).startswith("test/")
        assert (end >= start).all()
        roots = np.flatnonzero(parent < 0)
        assert [names[name[r]] for r in roots] == ["cli.main"]
        child = parent >= 0
        assert (start[parent[child]] <= start[child]).all()
        assert (end[child] <= end[parent[child]]).all()
        dur = end - start
        self_ns = dur - np.bincount(parent[child], weights=dur[child],
                                    minlength=dur.size)
        assert (self_ns >= 0).all()
        trace.add_file(path)
    assert all(v >= 0 for v in trace.self_ns.values())
    m = layers.layer_metrics(trace)
    assert m["kernels.lyap_orbit.steps"] == 3 * 300
    assert m["flow.trajectories.attempted"] >= 3
    assert m["measure.sample_mu.calls"] >= 3
    assert m["kernels.code_orbit.steps"] >= 70000
    assert m["measure.lz78_rate.phrases"] > 0
    assert m["cli.main.self_s"] >= 0 and m["flow.self_s"] >= 0


def test_lz78_phrase_count_is_recovered_exactly():
    rng = np.random.default_rng(5)
    for n, a in ((1000, 2), (50000, 2), (200000, 16)):
        sym = rng.integers(0, a, size=n)
        table, node, phrases = {}, 0, 0
        for s in sym.tolist():
            nxt = table.get((node, s))
            if nxt is None:
                table[(node, s)] = len(table) + 1
                phrases += 1
                node = 0
            else:
                node = nxt
        phrases += node != 0
        rate = lz78_rate(SymbolStream(a, sym))
        assert tracer._lz78_phrases(rate, n) == phrases


def test_printed_metric_names_match_the_definition():
    assert [n for n, _ in layers.PER_LAYER] == PER_LAYER_NAMES
    computed = layers.layer_metrics(layers.Trace())
    assert set(PER_LAYER_NAMES) - set(computed) == {"trace.overhead_ratio"}
    spec = bench_json()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == \
        ["orbit", "measure", "diagnostics"]
    for name, rates in WORKLOAD_RATES.items():
        cfg = workloads.make_config(name, 0)
        walls = {kind: 1.0 for kind in workloads.COMMANDS[name]}
        assert set(workloads.workload_rates(name, cfg, walls)) == rates


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
