"""Run one `lab` command in this process with a span around every layer call.

Usage::

    python3 perfbench/tracer.py SPANS_FILE RUN_ID -- <lab arguments>

Before ``ietlab.cli.main`` runs, every function in ``TARGETS`` is replaced
by a recording wrapper at every name that refers to it in any ietlab module
(``cli.lyapunov_experiment``, ``flow.sample_mu``, ``kernels.lyap_orbit``,
...), so the wrapper sits at the name each caller looks up.  A span is
(name, start, end, parent); all spans of one process share RUN_ID.  Counts
of work done are taken from arguments and results after each call.  Spans
stay in memory and are written to SPANS_FILE (``.npz``) when the command
ends.  The program's own code is not changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from array import array

import numpy as np

# module -> functions wrapped; "Class.method" wraps a method on its class.
# Besides the functions the per-layer metrics name, every function one
# module calls in another is wrapped, so that its time is not counted as
# self time of its caller's layer.
TARGETS = {
    "cli": ("main", "load_config", "build_spec", "run_check_suite",
            "write_csv"),
    "flow": ("lyapunov_experiment", "aaronson_experiment", "cocycle", "flow",
             "jacobian_step"),
    "measure": ("sample_mu", "invariance_check", "total_mass",
                "bernoulli_stream", "coded_orbit_stream", "entropy_estimate",
                "plugin_block_entropy", "lz78_rate", "abramov"),
    "geometry": ("canonicalize", "metric_norm", "metric_form", "constant_C",
                 "beta_factor", "op_norm_between", "op_norm_euclidean"),
    "roof": ("choose_b_and_check", "roof_integral", "log_derivative_integral"),
    "iet": ("validate", "CountableIET.locate"),
    "kernels": ("lyap_orbit", "birkhoff_h_orbit", "flow_time_one_batch",
                "roof_eval_batch", "base_step_batch", "code_orbit",
                "canonicalize_k"),
}


def _lz78_phrases(rate: float, n: int) -> int:
    """Invert ``rate = c log(c) / n`` for the integer phrase count c."""
    x = rate * n
    c = max(x, 2.0)
    for _ in range(60):
        c = x / math.log(c)
    for k in range(max(2, int(c) - 3), int(c) + 4):
        if k * math.log(k) / n == rate:
            return k
    return -1


def _lyap_orbit(count, a, status):
    cps = a["cps"]
    count("steps", int(cps[-1]) if status == 0 else int(a["out_fail"][0]))


def _birkhoff_h_orbit(count, a, status):
    # a failed orbit does not report where it stopped: only clean ones count
    if status == 0:
        count("steps", int(a["cps"][-1]))


def _code_orbit(count, a, status):
    if status == 0:
        count("steps", int(a["out"].shape[0]))


def _points(count, a, result):
    count("points", int(a["idx"].shape[0]))


def _sample_mu(count, a, batch):
    count("samples", int(a["count"]))
    count("proposals", batch.proposals)
    count("accepted", batch.accepted)
    count("band_rejects", batch.band_rejects)
    count("step_discards", batch.step_discards)


def _invariance_check(count, a, report):
    count("count", report.count)
    count("used", report.used)


def _lz78_rate(count, a, rate):
    n = len(a["stream"])
    count("symbols", n)
    count("phrases", _lz78_phrases(rate, n))


def _experiment(count, a, res):
    count("samples", res.samples)
    count("discarded", res.discarded_trajectories)
    count("crossings", sum(row.crossings for row in res.rows
                           if row.n == res.n and hasattr(row, "crossings")))


def _write_csv(count, a, result):
    count("bytes", os.path.getsize(a["path"]))


HOOKS = {
    "kernels.lyap_orbit": _lyap_orbit,
    "kernels.birkhoff_h_orbit": _birkhoff_h_orbit,
    "kernels.code_orbit": _code_orbit,
    "kernels.flow_time_one_batch": _points,
    "kernels.roof_eval_batch": _points,
    "kernels.base_step_batch": _points,
    "measure.sample_mu": _sample_mu,
    "measure.invariance_check": _invariance_check,
    "measure.lz78_rate": _lz78_rate,
    "flow.lyapunov_experiment": _experiment,
    "flow.aaronson_experiment": _experiment,
    "cli.write_csv": _write_csv,
}


class Recorder:
    """Spans as parallel int64 arrays plus per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        def count(key, amount):
            self.count(f"{name}.{key}", amount)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                count("failures", 1)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(count, bound.arguments, result)
            return result

        return traced

    def save(self, path: str, run_id: str) -> None:
        def arr(a):
            return np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
        np.savez(path, name=arr(self.name), parent=arr(self.parent),
                 start=arr(self.start), end=arr(self.end),
                 names=np.array(self.names, dtype=str),
                 counts=np.array(json.dumps(self.counts)),
                 run_id=np.array(run_id))


def install(recorder: Recorder) -> None:
    """Replace each target at every ietlab name bound to it."""
    import ietlab.cli  # noqa: F401  (loads every module that is patched)

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "ietlab" or key.startswith("ietlab."))]
    for mod_name, funcs in TARGETS.items():
        module = sys.modules[f"ietlab.{mod_name}"]
        for func in funcs:
            owner_name, _, attr = func.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = recorder.wrap(f"{mod_name}.{attr}", original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_file, run_id, lab_args = argv[0], argv[1], argv[3:]
    recorder = Recorder()
    install(recorder)
    import ietlab.cli

    try:
        return ietlab.cli.main(lab_args)
    finally:
        recorder.save(spans_file, run_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
