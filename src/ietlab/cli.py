"""Command line front end: config ingestion, orchestration, persistence.

One JSON config describes the base map, the blend-width policy, the metric
parameter, and a list of experiments.  Unknown keys are rejected everywhere
(fail closed) because a silently ignored typo in an experiment config is a
reproducibility bug.  ``parse_config(serialize_config(cfg)) == cfg`` holds
for every valid config.

Exit codes: 0 all passed, 1 config or usage error (including constraint
violations while building the objects), 2 experiment or check failure.
CSV cells use shortest round-trip decimals; rerunning a command with the
same config yields byte-identical CSV files, and a report.json identical
except for the wall-clock field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svgplot
from .flow import (
    cocycle,
    aaronson_experiment,
    flow as flow_point,
    jacobian_step,
    lyapunov_experiment,
)
from .measure import (
    abramov,
    bernoulli_stream,
    coded_orbit_stream,
    entropy_estimate,
    invariance_check,
    total_mass,
)
from .errors import ConfigError, ConstraintViolationError, LabError
from .geometry import (
    MetricParams,
    SuspensionPoint,
    TangentVec,
    beta_factor,
    canonicalize,
    constant_C,
    metric_form,
    metric_norm,
    op_norm_between,
    op_norm_euclidean,
)
from .iet import GOLDEN_ROTATION, CountableIET, FiberPoint, validate
from .roof import (
    DefaultPolicy,
    ExplicitPolicy,
    ProportionalPolicy,
    RoofSpec,
    choose_b_and_check,
    log_derivative_integral,
    roof_integral,
)

FAMILIES = ("BlockRotation", "BlockSwap", "VonNeumannKakutani", "ExplicitTable")


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------


def _reject_unknown(raw: dict, allowed: set[str], where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@dataclass(frozen=True)
class IETConfig:
    family: str = "BlockRotation"
    theta: float | None = None
    n_trunc: int = 64
    pairs: tuple = ()
    tail: str | None = None


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "default"
    c: float = 0.125
    rho: float = 0.5
    kappa: float = 0.25
    values: tuple = ()


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    n: int = 1000
    samples: int = 1
    seed: int = 0
    output_path: str | None = None
    p_values: tuple = (0.1, 0.3, 0.5)
    block_len: int = 12
    h_base: tuple = ()


@dataclass(frozen=True)
class LabConfig:
    iet: IETConfig = field(default_factory=IETConfig)
    b_policy: PolicyConfig = field(default_factory=PolicyConfig)
    delta: float = 0.25
    experiments: tuple = ()
    plot: bool = False


def _parse_iet(raw: dict) -> IETConfig:
    _reject_unknown(raw, {"family", "theta", "n_trunc", "pairs", "tail"},
                    "iet")
    family = raw.get("family", "BlockRotation")
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of "
                          f"{FAMILIES}")
    theta = raw.get("theta")
    if theta is not None:
        if family != "BlockRotation":
            raise ConfigError("theta only applies to BlockRotation")
        theta = float(theta)
    pairs_raw = raw.get("pairs", [])
    tail = raw.get("tail")
    if family == "ExplicitTable":
        if not pairs_raw:
            raise ConfigError("ExplicitTable requires pairs")
        if tail != "identity":
            raise ConfigError('ExplicitTable requires "tail": "identity"')
    elif pairs_raw or tail is not None:
        raise ConfigError("pairs/tail only apply to ExplicitTable")
    pairs = []
    for k, entry in enumerate(pairs_raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"pairs[{k}] must be an object with x and a")
        _reject_unknown(entry, {"x", "a"}, f"pairs[{k}]")
        if "x" not in entry or "a" not in entry:
            raise ConfigError(f"pairs[{k}] must have both x and a")
        pairs.append((float(entry["x"]), float(entry["a"])))
    n_trunc = int(raw.get("n_trunc", 64))
    if n_trunc < 2:
        raise ConfigError("n_trunc must be >= 2")
    return IETConfig(family=family, theta=theta, n_trunc=n_trunc,
                     pairs=tuple(pairs), tail=tail)


def _parse_policy(raw: dict) -> PolicyConfig:
    _reject_unknown(raw, {"kind", "c", "rho", "kappa", "values"}, "b_policy")
    kind = raw.get("kind", "default")
    if kind not in ("default", "proportional", "explicit"):
        raise ConfigError(f"unknown b_policy kind {kind!r}")
    extras = {"default": {"c", "rho"}, "proportional": {"kappa"},
              "explicit": {"values"}}[kind]
    for key in ("c", "rho", "kappa", "values"):
        if key in raw and key not in extras:
            raise ConfigError(f"b_policy key {key!r} does not apply to "
                              f"kind {kind!r}")
    if kind == "explicit" and not raw.get("values"):
        raise ConfigError("explicit b_policy requires values")
    return PolicyConfig(
        kind=kind,
        c=float(raw.get("c", 0.125)),
        rho=float(raw.get("rho", 0.5)),
        kappa=float(raw.get("kappa", 0.25)),
        values=tuple(float(v) for v in raw.get("values", [])))


def _parse_h_base(value) -> float:
    if value == "inf":
        return math.inf
    h = float(value)
    if math.isnan(h) or h < 0.0:
        raise ConfigError("h_base entries must be >= 0 or \"inf\"")
    return h


def _parse_experiment(raw: dict, pos: int) -> ExperimentSpec:
    where = f"experiments[{pos}]"
    base_keys = {"kind", "n", "samples", "seed", "output_path"}
    entropy_keys = {"p_values", "block_len", "h_base"}
    _reject_unknown(raw, base_keys | entropy_keys, where)
    if "kind" not in raw:
        raise ConfigError(f"{where} missing kind")
    kind = raw["kind"]
    if kind not in KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    if kind != "entropy":
        for key in entropy_keys:
            if key in raw:
                raise ConfigError(f"{where}: key {key!r} only applies to "
                                  "entropy experiments")
    n = int(raw.get("n", 1000))
    samples = int(raw.get("samples", 1))
    if n < 1 or samples < 1:
        raise ConfigError(f"{where}: n and samples must be >= 1")
    output_path = raw.get("output_path")
    if output_path is not None:
        p = Path(output_path)
        if p.is_absolute() or ".." in p.parts:
            raise ConfigError(f"{where}: output_path must be relative and "
                              "must not escape the output directory")
    return ExperimentSpec(
        kind=kind, n=n, samples=samples, seed=int(raw.get("seed", 0)),
        output_path=output_path,
        p_values=tuple(float(p) for p in raw.get("p_values", (0.1, 0.3, 0.5))),
        block_len=int(raw.get("block_len", 12)),
        h_base=tuple(_parse_h_base(h) for h in raw.get("h_base", ())))


def parse_config(raw: dict) -> LabConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, {"iet", "b_policy", "delta", "experiments", "plot"},
                    "config root")
    try:
        delta = float(raw.get("delta", 0.25))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed delta: {exc}") from exc
    if not 0.0 < delta < 0.5:
        raise ConfigError("delta must lie in (0, 1/2)")
    experiments = raw.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError("experiments must be a list")
    plot = raw.get("plot", False)
    if not isinstance(plot, bool):
        raise ConfigError("plot must be a boolean")
    try:
        return LabConfig(
            iet=_parse_iet(raw.get("iet", {})),
            b_policy=_parse_policy(raw.get("b_policy", {})),
            delta=delta,
            experiments=tuple(_parse_experiment(e, k)
                              for k, e in enumerate(experiments)),
            plot=plot)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def serialize_config(cfg: LabConfig) -> dict:
    """JSON-ready dict with every field materialized (round-trips exactly)."""
    iet: dict = {"family": cfg.iet.family, "n_trunc": cfg.iet.n_trunc}
    if cfg.iet.theta is not None:
        iet["theta"] = cfg.iet.theta
    if cfg.iet.family == "ExplicitTable":
        iet["pairs"] = [{"x": x, "a": a} for x, a in cfg.iet.pairs]
        iet["tail"] = cfg.iet.tail
    pol: dict = {"kind": cfg.b_policy.kind}
    if cfg.b_policy.kind == "default":
        pol["c"] = cfg.b_policy.c
        pol["rho"] = cfg.b_policy.rho
    elif cfg.b_policy.kind == "proportional":
        pol["kappa"] = cfg.b_policy.kappa
    else:
        pol["values"] = list(cfg.b_policy.values)
    exps = []
    for e in cfg.experiments:
        entry: dict = {"kind": e.kind, "n": e.n, "samples": e.samples,
                       "seed": e.seed}
        if e.output_path is not None:
            entry["output_path"] = e.output_path
        if e.kind == "entropy":
            entry["p_values"] = list(e.p_values)
            entry["block_len"] = e.block_len
            entry["h_base"] = ["inf" if math.isinf(h) else h
                               for h in e.h_base]
        exps.append(entry)
    return {"iet": iet, "b_policy": pol, "delta": cfg.delta,
            "experiments": exps, "plot": cfg.plot}


def load_config(path) -> LabConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# building the objects
# ---------------------------------------------------------------------------


def build_iet(cfg: IETConfig) -> CountableIET:
    if cfg.family == "BlockRotation":
        theta = GOLDEN_ROTATION if cfg.theta is None else cfg.theta
        return CountableIET.block_rotation(theta=theta, n_trunc=cfg.n_trunc)
    if cfg.family == "BlockSwap":
        return CountableIET.block_swap(n_trunc=cfg.n_trunc)
    if cfg.family == "VonNeumannKakutani":
        return CountableIET.von_neumann_kakutani(n_trunc=cfg.n_trunc)
    return CountableIET.explicit_table(list(cfg.pairs), n_trunc=cfg.n_trunc)


def build_policy(cfg: PolicyConfig):
    if cfg.kind == "default":
        return DefaultPolicy(c=cfg.c, rho=cfg.rho)
    if cfg.kind == "proportional":
        return ProportionalPolicy(kappa=cfg.kappa)
    return ExplicitPolicy(values=tuple(cfg.values))


def build_spec(cfg: LabConfig):
    iet = build_iet(cfg.iet)
    spec, summability = choose_b_and_check(iet, build_policy(cfg.b_policy))
    return iet, spec, summability


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _render_float(v: float):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _csv_target(out_dir: Path, exp: ExperimentSpec, kind: str,
                position: int, repeats: int) -> Path:
    if exp.output_path is not None:
        return out_dir / exp.output_path
    if repeats > 1:
        return out_dir / f"{kind}_{position}.csv"
    return out_dir / f"{kind}.csv"


# ---------------------------------------------------------------------------
# the check suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: str  # PASS / WARN / FAIL
    detail: str

    def as_row(self) -> tuple:
        return (self.name, self.status, self.detail)


def _check_validation(iet: CountableIET) -> CheckOutcome:
    report = validate(iet)
    detail = (f"partition={report.cond_partition} "
              f"isolation={report.cond_isolation} "
              f"covering={report.cond_covering} "
              f"offenders={len(report.offenders)}")
    return CheckOutcome("iet_validation", report.overall, detail)


def _check_roof_fd(spec: RoofSpec) -> CheckOutcome:
    """Central finite differences of the roof against its derivative."""
    worst = 0.0
    for i in range(min(6, spec.iet.n_trunc)):
        l = float(spec.lengths[i])
        b = float(spec.widths[i])
        offsets = [b * 1e-3, 0.25 * b, 0.5 * b - 1e-3 * b, 0.5 * b + 1e-3 * b,
                   0.75 * b, b * (1 - 1e-3), 0.5 * l, l - 0.75 * b,
                   l - 0.25 * b, l - 1e-3 * b]
        for u in offsets:
            if not 0.0 < u < l:
                continue
            h = 1e-6 * min(u, l - u)
            lo = spec.value_raw(FiberPoint(i, u - h)).value
            hi = spec.value_raw(FiberPoint(i, u + h)).value
            fd = (hi - lo) / (2.0 * h)
            dr = spec.value_raw(FiberPoint(i, u)).derivative
            err = abs(fd - dr) / max(1.0, abs(dr))
            worst = max(worst, err)
    status = "PASS" if worst < 1e-5 else "FAIL"
    return CheckOutcome("roof_smoothness_fd", status, f"max_rel_err={worst:.3e}")


def _check_summability(spec: RoofSpec, summability) -> CheckOutcome:
    value, bound = log_derivative_integral(spec)
    ok = value <= bound * (1.0 + 1e-12)
    verdict = summability.verdict
    if not ok or verdict == "DIVERGENT":
        status = "FAIL"
    elif verdict == "UNKNOWN":
        status = "WARN"
    else:
        status = "PASS"
    return CheckOutcome(
        "summability_certificate", status,
        f"verdict={verdict} log_deriv_integral={value:.6f} bound={bound:.6f}")


def _random_canonical(spec: RoofSpec, rng) -> SuspensionPoint:
    while True:
        try:
            base = spec.iet.locate(rng.random())
            return canonicalize(spec, base, rng.uniform(-2.0, 2.0))
        except LabError:
            continue


def _check_sandwich(spec: RoofSpec, params: MetricParams, seed: int,
                    count: int = 10000) -> CheckOutcome:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    violations = 0
    for _ in range(count):
        z = _random_canonical(spec, rng)
        v = TangentVec(rng.normal(), rng.normal())
        ne = metric_norm(spec, params, z, v, kind="euclidean")
        nd = metric_norm(spec, params, z, v, kind="delta")
        c = constant_C(spec, z)
        if not (ne / c <= nd * (1 + 1e-9) and nd <= c * ne * (1 + 1e-9)):
            violations += 1
    status = "PASS" if violations == 0 else "FAIL"
    return CheckOutcome("metric_sandwich", status,
                        f"violations={violations}/{count}")


def _check_beta_bound(spec: RoofSpec, params: MetricParams, seed: int,
                      count: int = 10000) -> CheckOutcome:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    violations = 0
    tried = 0
    while tried < count:
        z = _random_canonical(spec, rng)
        try:
            jac = jacobian_step(spec, z)
            z1 = flow_point(spec, z, 1.0)
        except LabError:
            continue
        tried += 1
        g0 = metric_form(spec, params, z)
        g1 = metric_form(spec, params, z1)
        lhs = op_norm_between(g0, jac.matrix, g1)
        rhs = (beta_factor(spec, params, z)
               * op_norm_euclidean(jac.matrix))
        if lhs > rhs * (1 + 1e-9):
            violations += 1
    status = "PASS" if violations == 0 else "FAIL"
    return CheckOutcome("beta_bound", status, f"violations={violations}/{count}")


def _check_cocycle_algebra(spec: RoofSpec, seed: int,
                           count: int = 100) -> CheckOutcome:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 303)))
    bad = 0
    tried = 0
    while tried < count:
        z = _random_canonical(spec, rng)
        n = int(rng.integers(2, 200))
        m = int(rng.integers(1, 100))
        try:
            whole = cocycle(spec, z, n + m)
            first = cocycle(spec, z, n)
            z_n = flow_point(spec, z, float(n))
            second = cocycle(spec, z_n, m)
        except LabError:
            continue
        tried += 1
        if (whole.m11, whole.m12, whole.m22) != (1.0, 0.0, 1.0):
            bad += 1
            continue
        prod = second.compose(first)
        tol = 1e-9 * max(1.0, abs(whole.m21))
        if abs(prod.m21 - whole.m21) > tol or prod.crossings != whole.crossings:
            bad += 1
    status = "PASS" if bad == 0 else "FAIL"
    return CheckOutcome("cocycle_algebra", status, f"violations={bad}/{count}")


def _check_measure_identity(spec: RoofSpec) -> CheckOutcome:
    report = total_mass(spec)
    ok = report.identity_gap <= 1e-8
    return CheckOutcome(
        "measure_identity", "PASS" if ok else "FAIL",
        f"total_mass={report.total_mass:.9f} gap={report.identity_gap:.3e}")


def run_check_suite(iet: CountableIET, spec: RoofSpec, summability,
                    params: MetricParams, seed: int = 0) -> list[CheckOutcome]:
    return [
        _check_validation(iet),
        _check_roof_fd(spec),
        _check_summability(spec, summability),
        _check_sandwich(spec, params, seed),
        _check_beta_bound(spec, params, seed),
        _check_cocycle_algebra(spec, seed),
        _check_measure_identity(spec),
    ]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _quantiles(values: np.ndarray) -> dict:
    return {"p5": float(np.percentile(values, 5)),
            "p50": float(np.percentile(values, 50)),
            "p95": float(np.percentile(values, 95))}


# Every runner takes (iet, spec, summability, params, exp, out_path), writes
# its CSV and returns (exit code, report entry, data for its plotter).


def run_check(iet, spec, summability, params, exp: ExperimentSpec,
              out_path: Path) -> tuple[int, dict, None]:
    outcomes = run_check_suite(iet, spec, summability, params, seed=exp.seed)
    write_csv(out_path, ["check", "status", "detail"],
              [o.as_row() for o in outcomes])
    failed = [o.name for o in outcomes if o.status == "FAIL"]
    warned = [o.name for o in outcomes if o.status == "WARN"]
    result = {
        "kind": "check",
        "seed": exp.seed,
        "verdicts": {o.name: o.status for o in outcomes},
        "failed": failed,
        "warned": warned,
        "csv": out_path.name,
    }
    return (2 if failed else 0), result, None


def _orbit_result(res, exp: ExperimentSpec, summary: dict,
                  out_path: Path) -> tuple[int, dict, object]:
    rate_ok = res.discard_rate < 1e-4
    result = {
        "kind": res.kind, "n": exp.n, "samples": exp.samples,
        "seed": exp.seed, "checkpoints": res.checkpoints,
        "summary": summary,
        "discarded_trajectories": res.discarded_trajectories,
        "discard_rate": res.discard_rate,
        "discard_rate_ok": rate_ok,
        "csv": out_path.name,
    }
    return (0 if rate_ok else 2), result, res


def run_lyapunov(iet, spec, summability, params, exp: ExperimentSpec,
                 out_path: Path) -> tuple[int, dict, object]:
    res = lyapunov_experiment(spec, params, exp.n, exp.samples, exp.seed)
    rows = [(rec.seed, rec.n, rec.value_e, rec.value_delta, rec.crossings)
            for rec in res.rows]
    write_csv(out_path, ["sample", "n", "ftle_e", "ftle_delta", "k_n"], rows)
    summary = {}
    for n in res.checkpoints:
        summary[str(n)] = {
            "ftle_e": _quantiles(res.column(n, "value_e")),
            "ftle_delta": _quantiles(res.column(n, "value_delta")),
        }
    return _orbit_result(res, exp, summary, out_path)


def run_aaronson(iet, spec, summability, params, exp: ExperimentSpec,
                 out_path: Path) -> tuple[int, dict, object]:
    res = aaronson_experiment(spec, exp.n, exp.samples, exp.seed)
    rows = [(rec.seed, rec.n, rec.value) for rec in res.rows]
    write_csv(out_path, ["sample", "n", "average"], rows)
    summary = {str(n): _quantiles(res.column(n, "value"))
               for n in res.checkpoints}
    return _orbit_result(res, exp, summary, out_path)


def run_measure(iet, spec, summability, params, exp: ExperimentSpec,
                out_path: Path) -> tuple[int, dict, None]:
    mass = total_mass(spec)
    inv = invariance_check(spec, count=exp.n, seed=exp.seed)
    rows = [(r.region.name, r.region.x_lo, r.region.x_hi, r.region.y_lo,
             r.region.y_hi, r.freq_pre, r.freq_post, r.deviation)
            for r in inv.rows]
    write_csv(out_path,
              ["box", "x_lo", "x_hi", "y_lo", "y_hi",
               "freq_pre", "freq_post", "deviation"], rows)
    ok = bool(inv.passed and mass.identity_gap <= 1e-8)
    result = {
        "kind": "measure", "n": exp.n, "seed": exp.seed,
        "mass": mass.as_dict(),
        "invariance": {"used": inv.used, "discards": inv.discards,
                       "threshold": inv.threshold, "passed": inv.passed,
                       "max_deviation": float(max(r.deviation
                                                  for r in inv.rows))},
        "passed": ok,
        "csv": out_path.name,
    }
    return (0 if ok else 2), result, None


def run_entropy(iet, spec, summability, params, exp: ExperimentSpec,
                out_path: Path) -> tuple[int, dict, None]:
    rows: list[tuple] = []
    estimates: list[dict] = []

    def add_stream(stream):
        for method in ("plugin", "lz78"):
            kwargs = {"block_len": exp.block_len} if method == "plugin" else {}
            est = entropy_estimate(stream, method, **kwargs)
            detail = exp.block_len if method == "plugin" else ""
            rows.append((stream.provenance, method, len(stream), detail,
                         est.value))
            estimates.append({"stream": stream.provenance, **est.as_dict()})

    for p in exp.p_values:
        add_stream(bernoulli_stream(p, exp.n, exp.seed))
    add_stream(coded_orbit_stream(iet, exp.n, seed=exp.seed))

    integral = roof_integral(spec).value
    abramov_rows = []
    for h in exp.h_base:
        res = abramov(h, integral)
        d = res.as_dict()
        rows.append((f"h_base={d['h_base']}", "abramov", exp.n, res.scale,
                     d["h_flow"]))
        abramov_rows.append(d)

    write_csv(out_path, ["label", "method", "length", "detail", "value"], rows)
    result = {
        "kind": "entropy", "n": exp.n, "seed": exp.seed,
        "block_len": exp.block_len,
        "estimates": estimates,
        "abramov": abramov_rows,
        "integral_r": integral,
        "csv": out_path.name,
    }
    return 0, result, None


# ---------------------------------------------------------------------------
# plotting hooks: (spec, runner data, svg path)
# ---------------------------------------------------------------------------


def _svg_for_lyapunov(spec, res, path: Path) -> None:
    ns = res.checkpoints
    med_e = [res.median(n, "value_e") for n in ns]
    med_d = [res.median(n, "value_delta") for n in ns]
    trend = svgplot.trend_panel(
        "median finite-time exponent", "median exponent",
        [("flat norm", ns, med_e), ("blended norm", ns, med_d)])
    roof = svgplot.roof_panel(spec)
    path.write_text(svgplot.document([trend, roof]), encoding="utf-8")


def _svg_for_aaronson(spec, res, path: Path) -> None:
    ns = res.checkpoints
    med = [res.median(n, "value") for n in ns]
    p95 = [res.percentile(n, 95, "value") for n in ns]
    trend = svgplot.trend_panel(
        "Birkhoff-sum growth proxy", "(1/n) log+ sum h",
        [("median", ns, med), ("95th percentile", ns, p95)])
    path.write_text(svgplot.document([trend]), encoding="utf-8")


def _svg_for_check(spec, res, path: Path) -> None:
    path.write_text(svgplot.document([svgplot.roof_panel(spec)]),
                    encoding="utf-8")


#: Experiment kind -> (runner, plotter or None).
RUNNERS = {
    "check": (run_check, _svg_for_check),
    "lyapunov": (run_lyapunov, _svg_for_lyapunov),
    "aaronson": (run_aaronson, _svg_for_aaronson),
    "measure": (run_measure, None),
    "entropy": (run_entropy, None),
}
KINDS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Experiments on suspension flows over countable "
                    "interval exchanges.")
    parser.add_argument("kind", choices=list(KINDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="lab_out", help="output directory")
    parser.add_argument("--plot", action="store_true",
                        help="emit SVG plots alongside the CSV output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    started = time.monotonic()
    try:
        cfg = load_config(args.config)
        iet, spec, summability = build_spec(cfg)
    except (ConfigError, ConstraintViolationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    params = MetricParams(delta=cfg.delta)
    plot = args.plot or cfg.plot
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    selected = [e for e in cfg.experiments if e.kind == args.kind]
    if args.kind == "check" and not selected:
        selected = [ExperimentSpec(kind="check")]
    if not selected:
        print(f"config has no {args.kind!r} experiment", file=sys.stderr)
        return 1

    exit_code = 0
    results = []
    try:
        for pos, exp in enumerate(selected):
            out_path = _csv_target(out_dir, exp, args.kind, pos, len(selected))
            out_path.parent.mkdir(parents=True, exist_ok=True)
            runner, plotter = RUNNERS[exp.kind]
            code, result, data = runner(iet, spec, summability, params, exp,
                                        out_path)
            if plot and plotter is not None:
                plotter(spec, data, out_path.with_suffix(".svg"))
            results.append(result)
            exit_code = max(exit_code, code)
    except LabError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.kind,
        "config": serialize_config(cfg),
        "results": results,
        "wall_clock_seconds": time.monotonic() - started,
    }
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
