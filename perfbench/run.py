#!/usr/bin/env python3
"""The ietlab benchmark: whole `lab` runs timed end to end, layers traced.

Usage, from the root of a source checkout (``src/ietlab`` must exist)::

    python3 perfbench/run.py --workload orbit --seed 0 --seconds 30 --trace 0

The workload seed generates a `lab` config (see ``workloads.py``).  A pass
runs the workload's `lab` commands as fresh processes, one after the other,
and checks every invocation's outputs (``gate.py``).  Passes repeat until
``--seconds`` is used up, at least ``MIN_PASSES`` times.

``--trace 0`` prints the end-to-end metrics: medians over passes of the
pass wall time and of a set-up probe (fresh interpreter to a built
RoofSpec) run before each pass, and the largest max-RSS of any `lab`
process.  ``--trace 1`` alternates plain passes with passes whose
processes run under ``tracer.py`` and prints the per-layer metrics
(``layers.py``) plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import gate
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 100.0
REFERENCE_LOOP_N = 1_000_000

LAB_CODE = "import sys; from ietlab.cli import main; sys.exit(main())"
SETUP_CODE = """\
import sys, time
import ietlab
from ietlab import cli, kernels
cli.build_spec(cli.load_config(sys.argv[1]))
print(time.clock_gettime(time.CLOCK_MONOTONIC), kernels.NUMBA_ENABLED)
"""

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Proc:
    exit_code: int
    wall_s: float
    rss_mb: float
    started: float


def spawn(argv: list[str], env: dict, log: Path) -> Proc:
    """Run one process to its exit; wall time from spawn to reaping."""
    with open(log, "wb") as fh:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], COMMAND_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if ready else -9
    return Proc(code, wall, usage.ru_maxrss / 1024.0, started)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP_N):
            acc = (acc + i * i) & 0xFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ietlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


@dataclass
class Run:
    workload: str
    seed: int
    config: dict
    config_path: Path
    work: Path
    env: dict
    expected: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    backend: str = "unknown"

    def lab(self, pass_no: int, traced: bool) -> tuple[float, float, dict, Path]:
        """One pass: (wall s, peak RSS MB, per-command wall s, pass dir)."""
        pass_dir = self.work / f"pass{pass_no}"
        wall = rss = 0.0
        walls = {}
        for kind in workloads.COMMANDS[self.workload]:
            out = pass_dir / kind
            out.mkdir(parents=True)
            lab_args = [kind, "--config", str(self.config_path),
                        "--out", str(out)]
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"),
                        str(pass_dir / f"{kind}.spans.npz"),
                        f"{self.workload}/{self.seed}/pass{pass_no}/{kind}",
                        "--", *lab_args]
            else:
                argv = [sys.executable, "-c", LAB_CODE, *lab_args]
            proc = spawn(argv, self.env, pass_dir / f"{kind}.log")
            wall += proc.wall_s
            rss = max(rss, proc.rss_mb)
            walls[kind] = proc.wall_s
            self.attempted += 1
            csvs = workloads.expected_csvs(self.config, kind)
            digest, problems = gate.check_invocation(
                proc.exit_code, out, csvs, self.expected.get(kind))
            if digest:
                self.digests[kind] = digest
                self.expected.setdefault(kind, digest)
            if problems:
                self.failed += 1
                tail = (pass_dir / f"{kind}.log").read_text(errors="replace")
                self.problems.append(
                    f"pass {pass_no} lab {kind}: {'; '.join(problems)}"
                    + (f"\n{tail[-2000:]}" if tail else ""))
        return wall, rss, walls, pass_dir

    def setup_probe(self, pass_no: int) -> float | None:
        """Seconds from spawning an interpreter to a built RoofSpec."""
        log = self.work / f"setup{pass_no}.log"
        proc = spawn([sys.executable, "-c", SETUP_CODE, str(self.config_path)],
                     self.env, log)
        fields = log.read_text().split()
        if proc.exit_code != 0 or len(fields) != 2:
            self.problems.append(f"set-up probe {pass_no} failed:\n"
                                 + log.read_text(errors="replace")[-2000:])
            return None
        self.backend = "numba" if fields[1] == "True" else "pure"
        return float(fields[0]) - proc.started


def median_quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + seconds
    walls, setups, rates, lines = [], [], {}, []
    peak = 0.0
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        setup = run.setup_probe(len(walls))
        if setup is not None:
            setups.append(setup)
        wall, rss, cmd_walls, pass_dir = run.lab(len(walls), traced=False)
        shutil.rmtree(pass_dir)
        walls.append(wall)
        peak = max(peak, rss)
        for name, (value, unit) in workloads.workload_rates(
                run.workload, run.config, cmd_walls).items():
            rates.setdefault(name, ([], unit))[0].append(value)
        longest = max(longest, time.perf_counter() - t0)
        if len(walls) >= MIN_PASSES and (
                run.failed or time.perf_counter() + longest > deadline):
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": peak,
    }
    lines.append(f"  {'wall_s':<24}{metrics['wall_s']:>14.6g} s"
                 f"    {median_quartiles(walls)}")
    lines.append("  passes " + " ".join(f"{w:.4f}" for w in walls))
    lines.append(f"  {'setup_s':<24}{metrics['setup_s']:>14.6g} s"
                 f"    {median_quartiles(setups)}")
    lines.append(f"  {'peak_rss_mb':<24}{peak:>14.6g} MB   max over "
                 f"{run.attempted} lab processes")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    lines.append(f"  {'failed_ratio':<24}{ratio:>14.6g} 1    "
                 f"{run.failed}/{run.attempted} lab invocations")
    for name, (values, unit) in rates.items():
        lines.append(f"  {name:<24}{statistics.median(values):>14.6g} {unit}"
                     f"    {median_quartiles(values)}")
    return metrics, lines


def measure_layers(run: Run, seconds: float) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + seconds
    plain, traced, per_pass, exact = [], [], [], []
    longest = 0.0
    pass_no = 0
    run.setup_probe(-1)  # records the backend
    while True:
        t0 = time.perf_counter()
        is_traced = pass_no % 2 == 1
        wall, _, _, pass_dir = run.lab(pass_no, traced=is_traced)
        if is_traced:
            trace = layers.Trace()
            for spans in sorted(pass_dir.glob("*.spans.npz")):
                trace.add_file(spans)
            traced.append(wall)
            per_pass.append(layers.layer_metrics(trace))
            exact.append(trace.exact_counts())
        else:
            plain.append(wall)
        shutil.rmtree(pass_dir)
        pass_no += 1
        longest = max(longest, time.perf_counter() - t0)
        if is_traced and len(traced) >= MIN_PASSES - 1 and (
                run.failed or time.perf_counter() + 2 * longest > deadline):
            break
    for k, counts in enumerate(exact[1:], start=1):
        drift = {key: (exact[0][key], v) for key, v in counts.items()
                 if v != exact[0][key]}
        if drift:
            run.problems.append(f"traced pass {k}: counts drift {drift}")
    metrics = {}
    for name, unit in layers.PER_LAYER:
        if name == "trace.overhead_ratio":
            # each traced pass against the plain pass just before it
            value = statistics.median(
                t / p for p, t in zip(plain, traced)) - 1.0
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = value
    lines = [f"  {name:<42}{metrics[name]:>16.6g} {unit}"
             for name, unit in layers.PER_LAYER]
    lines.append(f"  traced passes {len(traced)}, plain passes {len(plain)}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ietlab" / "cli.py").is_file():
        print(f"error: no ietlab sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / (f"{args.workload}-s{args.seed}-"
                                  f"t{args.trace}-{os.getpid()}")
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = workloads.make_config(args.workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    env = dict(os.environ, LAB_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = Run(args.workload, args.seed, config, config_path, work, env)
    if args.seed == gate.DEFAULT_SEED:
        run.expected = dict(gate.PINNED[args.workload])

    try:
        reference_before = reference_loop()
        if args.trace:
            metrics, lines = measure_layers(run, args.seconds)
            units = dict(layers.PER_LAYER)
        else:
            metrics, lines = measure_end_to_end(run, args.seconds)
            units = dict(END_TO_END)
        reference_after = reference_loop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    environment = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "backend": run.backend,
        "lab_threads": env["LAB_THREADS"], "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "reference_loop_s": {"before": reference_before,
                             "after": reference_after},
        "csv_sha256": run.digests,
    }
    correct = not run.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{'correct' if correct else 'NOT CORRECT'}")
    for line in lines:
        print(line)
    for problem in run.problems:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
