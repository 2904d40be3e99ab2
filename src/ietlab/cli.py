"""Command line front end: config ingestion, orchestration, persistence.

One JSON config describes the base map, the blend-width policy, the metric
parameter, and a list of experiments.  Unknown keys are rejected everywhere
(fail closed) because a silently ignored typo in an experiment config is a
reproducibility bug.  ``parse_config(serialize_config(cfg)) == cfg`` holds
for every valid config.

Exit codes: 0 all passed, 1 config or usage error (including constraint
violations while building the objects and outputs that cannot be
written), 2 experiment or check failure.
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
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .flow import _percentile, aaronson_experiment, lyapunov_experiment
from .measure import (
    abramov,
    bernoulli_stream,
    coded_orbit_stream,
    entropy_estimate,
    invariance_check,
    total_mass,
)
from .errors import ConfigError, ConstraintViolationError, LabError
from .geometry import MetricParams
from .iet import DEFAULT_TRUNCATION, CountableIET, FiberPoint, validate
from .roof import (
    DefaultPolicy,
    ExplicitPolicy,
    ProportionalPolicy,
    RoofSpec,
    choose_b_and_check,
    log_derivative_integral,
    roof_integral,
)

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


def _csv_target(dest_dir: Path, exp: ExperimentSpec, kind: str,
                position: int, repeats: int) -> Path:
    if exp.output_path is not None:
        return dest_dir / exp.output_path
    if repeats > 1:
        return dest_dir / f"{kind}_{position}.csv"
    return dest_dir / f"{kind}.csv"


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


# The validation, roof smoothness, summability and measure-identity checks
# depend on the spec alone, not on the seed: each is computed once per spec
# (a RoofSpec hashes by identity), however many check experiments a
# command runs.


@lru_cache(maxsize=1)
def _check_validation(spec: RoofSpec) -> CheckOutcome:
    report = validate(spec.iet)
    detail = (f"partition={report.cond_partition} "
              f"isolation={report.cond_isolation} "
              f"covering={report.cond_covering} "
              f"offenders={len(report.offenders)}")
    return CheckOutcome("iet_validation", report.overall, detail)


@lru_cache(maxsize=1)
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


@lru_cache(maxsize=1)
def _check_summability(spec: RoofSpec) -> CheckOutcome:
    value, bound = log_derivative_integral(spec)
    ok = value <= bound * (1.0 + 1e-12)
    verdict = spec.summability.verdict
    if not ok or verdict == "DIVERGENT":
        status = "FAIL"
    elif verdict == "UNKNOWN":
        status = "WARN"
    else:
        status = "PASS"
    return CheckOutcome(
        "summability_certificate", status,
        f"verdict={verdict} log_deriv_integral={value:.6f} bound={bound:.6f}")


# The sandwich, beta and cocycle-algebra checks draw their points and
# evaluate them on lanes, with ``lane_geometry``, which is imported on first
# use, so that commands without geometry do not load it.  Each check
# evaluates the fiber edges over its points once, for all its functions,
# and the sandwich check the Euclidean lengths of its vectors once.


def _sandwich_values(spec: RoofSpec, params: MetricParams, seed: int,
                     count: int):
    """Points, vectors, both norms and C(z) of the sandwich check."""
    from . import lane_geometry as lanes
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    z, dx, dy = lanes.sandwich_draws(spec, rng, count)
    fibers = lanes.fiber_edges(spec, z.idx, z.off)
    ne = lanes.metric_norm(spec, params, z, dx, dy, kind="euclidean")
    nd = lanes.metric_norm(spec, params, z, dx, dy, "delta", fibers, ne)
    return z, dx, dy, ne, nd, lanes.constant_C(spec, z, fibers)


def _beta_values(spec: RoofSpec, params: MetricParams, seed: int,
                 count: int):
    """Points and the two sides of the beta check's bound."""
    from . import lane_geometry as lanes
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    z, jac, z1, here = lanes.beta_draws(spec, rng, count)
    fibers = lanes.fiber_edges(spec, z.idx, z.off, here=here)
    fibers1 = lanes.image_fiber_edges(spec, z, fibers, z1)
    lhs = lanes.op_norm_between(lanes.metric_form(spec, params, z, fibers),
                                jac, lanes.metric_form(spec, params, z1,
                                                       fibers1))
    rhs = (lanes.beta_factor(spec, params, z, fibers)
           * lanes.op_norm_euclidean(jac))
    return z, lhs, rhs


def _check_sandwich(spec: RoofSpec, params: MetricParams, seed: int,
                    count: int = 10000) -> CheckOutcome:
    z, dx, dy, ne, nd, c = _sandwich_values(spec, params, seed, count)
    held = (ne / c <= nd * (1 + 1e-9)) & (nd <= c * ne * (1 + 1e-9))
    violations = count - int(np.count_nonzero(held))
    status = "PASS" if violations == 0 else "FAIL"
    return CheckOutcome("metric_sandwich", status,
                        f"violations={violations}/{count}")


def _check_beta_bound(spec: RoofSpec, params: MetricParams, seed: int,
                      count: int = 10000) -> CheckOutcome:
    z, lhs, rhs = _beta_values(spec, params, seed, count)
    violations = int(np.count_nonzero(lhs > rhs * (1 + 1e-9)))
    status = "PASS" if violations == 0 else "FAIL"
    return CheckOutcome("beta_bound", status, f"violations={violations}/{count}")


def _cocycle_values(spec: RoofSpec, seed: int, count: int):
    """The cocycle-algebra check's tries (``lane_geometry.CocycleTries``)."""
    from . import lane_geometry as lanes
    rng = np.random.default_rng(np.random.SeedSequence((seed, 303)))
    return lanes.cocycle_tries(spec, rng, count)


def _check_cocycle_algebra(spec: RoofSpec, seed: int,
                           count: int = 100) -> CheckOutcome:
    """The cocycle of n + m steps against the product of those of n steps
    and of m more, on ``count`` tries whose three cocycles exist."""
    tries = _cocycle_values(spec, seed, count)
    bad = 0
    for k in np.flatnonzero(~tries.skipped).tolist():
        whole = tries.whole.at(k)
        prod = tries.second.at(k).compose(tries.first.at(k))
        tol = 1e-9 * max(1.0, abs(whole.m21))
        if abs(prod.m21 - whole.m21) > tol or prod.crossings != whole.crossings:
            bad += 1
    status = "PASS" if bad == 0 else "FAIL"
    return CheckOutcome("cocycle_algebra", status, f"violations={bad}/{count}")


@lru_cache(maxsize=1)
def _check_measure_identity(spec: RoofSpec) -> CheckOutcome:
    report = total_mass(spec)
    ok = report.identity_gap <= 1e-8
    return CheckOutcome(
        "measure_identity", "PASS" if ok else "FAIL",
        f"total_mass={report.total_mass:.9f} gap={report.identity_gap:.3e}")


def run_check_suite(spec: RoofSpec, params: MetricParams,
                    seed: int = 0) -> list[CheckOutcome]:
    return [
        _check_validation(spec),
        _check_roof_fd(spec),
        _check_summability(spec),
        _check_sandwich(spec, params, seed),
        _check_beta_bound(spec, params, seed),
        _check_cocycle_algebra(spec, seed),
        _check_measure_identity(spec),
    ]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _quantiles(values: np.ndarray) -> dict:
    return {f"p{q}": _percentile(values, q) for q in (5, 50, 95)}


# Every runner takes (spec, params, exp, out_path), writes its CSV and
# returns (exit code, report entry, data for its plotter).


def run_check(spec, params, exp: ExperimentSpec,
              out_path: Path) -> tuple[int, dict, None]:
    outcomes = run_check_suite(spec, params, seed=exp.seed)
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


def run_lyapunov(spec, params, exp: ExperimentSpec,
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


def run_aaronson(spec, params, exp: ExperimentSpec,
                 out_path: Path) -> tuple[int, dict, object]:
    res = aaronson_experiment(spec, exp.n, exp.samples, exp.seed)
    rows = [(rec.seed, rec.n, rec.value) for rec in res.rows]
    write_csv(out_path, ["sample", "n", "average"], rows)
    summary = {str(n): _quantiles(res.column(n, "value"))
               for n in res.checkpoints}
    return _orbit_result(res, exp, summary, out_path)


def run_measure(spec, params, exp: ExperimentSpec,
                out_path: Path) -> tuple[int, dict, None]:
    # the invariance check sets the command's peak memory, and arrays the
    # quadrature leaves on the heap before it raise that peak (max RSS
    # 40.5 MB in this order and 42.2 MB in the other, at 4x10^5 samples)
    inv = invariance_check(spec, count=exp.n, seed=exp.seed)
    mass = total_mass(spec)
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


def run_entropy(spec, params, exp: ExperimentSpec,
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
    add_stream(coded_orbit_stream(spec.iet, exp.n, seed=exp.seed))

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
#
# Each imports ``svgplot`` itself, so that a command run without plots does
# not load it.


def _svg_for_lyapunov(spec, res, path: Path) -> None:
    from . import svgplot
    ns = res.checkpoints
    med_e = [res.median(n, "value_e") for n in ns]
    med_d = [res.median(n, "value_delta") for n in ns]
    trend = svgplot.trend_panel(
        "median finite-time exponent", "median exponent",
        [("flat norm", ns, med_e), ("blended norm", ns, med_d)])
    roof = svgplot.roof_panel(spec)
    path.write_text(svgplot.document([trend, roof]), encoding="utf-8")


def _svg_for_aaronson(spec, res, path: Path) -> None:
    from . import svgplot
    ns = res.checkpoints
    med = [res.median(n, "value") for n in ns]
    p95 = [res.percentile(n, 95, "value") for n in ns]
    trend = svgplot.trend_panel(
        "Birkhoff-sum growth proxy", "(1/n) log+ sum h",
        [("median", ns, med), ("95th percentile", ns, p95)])
    path.write_text(svgplot.document([trend]), encoding="utf-8")


def _svg_for_check(spec, res, path: Path) -> None:
    from . import svgplot
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
# configuration schema
# ---------------------------------------------------------------------------
#
# Each config key is one dataclass field below: its default and, in its
# metadata, its Form (check, reading, JSON form) and, for a key that only
# one family or kind takes, that value of its section's SELECTOR key.
# Parsing, serializing and building the objects read nothing else.

FAMILIES = {
    "BlockRotation": CountableIET.block_rotation,
    "BlockSwap": CountableIET.block_swap,
    "VonNeumannKakutani": CountableIET.von_neumann_kakutani,
    "ExplicitTable": CountableIET.explicit_table,
}
POLICIES = {
    "default": DefaultPolicy,
    "proportional": ProportionalPolicy,
    "explicit": ExplicitPolicy,
}


def _same(value, where=None):
    return value


class Form(NamedTuple):
    """A kind of JSON value: the test it must pass, how to read and write it."""

    valid: Callable  # JSON value -> bool
    what: str  # a valid value, as error messages describe it
    read: Callable = _same  # (JSON value, where) -> value
    dump: Callable = _same  # value -> JSON value

    def parse(self, value, where: str):
        if not self.valid(value):
            raise ConfigError(f"{where} must be {self.what}")
        return self.read(value, where)


def _key(form: Form, default=MISSING, only: str | None = None):
    return field(default=default, metadata={"form": form, "only": only})


def _real(value) -> float:
    """A JSON number as a float; nan (outside every range) for anything else."""
    if type(value) not in (int, float):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _number(lo: float = -math.inf, hi: float = math.inf) -> Form:
    """A JSON number strictly between ``lo`` and ``hi``, hence finite."""
    return Form(lambda v: lo < _real(v) < hi, f"a number in ({lo:g}, {hi:g})",
                lambda v, where: _real(v))


def _integer(lo: int) -> Form:
    return Form(lambda v: type(v) is int and v >= lo, f"an integer >= {lo}")


def _choice(options: tuple) -> Form:
    return Form(lambda v: isinstance(v, str) and v in options,
                f"one of {list(options)}")


def _list_of(item: Form) -> Form:
    return Form(lambda v: isinstance(v, list), "a list",
                lambda v, where: tuple(item.parse(x, f"{where}[{k}]")
                                       for k, x in enumerate(v)),
                lambda values: [item.dump(x) for x in values])


def _section(cls) -> Form:
    return Form(lambda v: isinstance(v, dict), "a JSON object",
                lambda v, where: _parse_section(cls, v, where), _dump_section)


def _is_relative_file(value) -> bool:
    if not isinstance(value, str) or "\0" in value:
        return False
    path = Path(value)
    return bool(path.parts) and not path.is_absolute() \
        and ".." not in path.parts


_BOOLEAN = Form(lambda v: type(v) is bool, "true or false")
_PATH = Form(_is_relative_file,
             "a non-empty relative file path inside the output directory")
_PAIR = Form(lambda v: isinstance(v, dict) and set(v) == {"x", "a"},
             "an object with keys x and a",
             lambda v, where: tuple(_number().parse(v[k], f"{where}.{k}")
                                    for k in "xa"),
             lambda pair: {"x": pair[0], "a": pair[1]})
_RATE = Form(lambda v: v == "inf" or 0.0 <= _real(v) < math.inf,
             'a number >= 0 or "inf"',
             lambda v, where: math.inf if v == "inf" else _real(v),
             lambda h: "inf" if math.isinf(h) else h)


def _applicable(section):
    """(key, form, value) of each set key that applies to ``section``."""
    selector = getattr(section, "SELECTOR", None)
    selected = getattr(section, selector) if selector else None
    for f in fields(section):
        value = getattr(section, f.name)
        if value is not None and f.metadata["only"] in (None, selected):
            yield f.name, f.metadata["form"], value


def _parse_section(cls, raw: dict, where: str):
    keys = {f.name: f for f in fields(cls)}
    unknown = raw.keys() - keys.keys()
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in "
                          f"{where or 'config root'}")
    values = {}
    for key, f in keys.items():
        at = f"{where}.{key}" if where else key
        if key in raw:
            values[key] = f.metadata["form"].parse(raw[key], at)
        elif f.default is MISSING:
            raise ConfigError(f"{at} is required")
    section = cls(**values)
    stray = sorted(raw.keys() - {key for key, _, _ in _applicable(section)})
    if stray:
        raise ConfigError(f"{where}.{stray[0]} does not apply to "
                          f"{cls.SELECTOR} {getattr(section, cls.SELECTOR)!r}")
    return section


def _dump_section(section) -> dict:
    return {key: form.dump(value) for key, form, value in _applicable(section)}


@dataclass(frozen=True)
class IETConfig:
    SELECTOR: ClassVar[str] = "family"

    family: str = _key(_choice(tuple(FAMILIES)), "BlockRotation")
    theta: float | None = _key(_number(0.0, 1.0), None, only="BlockRotation")
    n_trunc: int = _key(_integer(2), DEFAULT_TRUNCATION)
    pairs: tuple = _key(_list_of(_PAIR), (), only="ExplicitTable")
    tail: str | None = _key(_choice(("identity",)), None, only="ExplicitTable")

    def __post_init__(self):
        if self.family == "ExplicitTable" and not (self.pairs and self.tail):
            raise ConfigError('iet: ExplicitTable requires pairs and '
                              '"tail": "identity"')


@dataclass(frozen=True)
class PolicyConfig:
    SELECTOR: ClassVar[str] = "kind"

    kind: str = _key(_choice(tuple(POLICIES)), "default")
    c: float = _key(_number(0.0), DefaultPolicy.c, only="default")
    rho: float = _key(_number(0.0, 1.0), DefaultPolicy.rho, only="default")
    kappa: float = _key(_number(0.0, 0.5), ProportionalPolicy.kappa,
                        only="proportional")
    values: tuple = _key(_list_of(_number(0.0)), (), only="explicit")

    def __post_init__(self):
        if self.kind == "explicit" and not self.values:
            raise ConfigError("b_policy: an explicit policy requires values")


@dataclass(frozen=True)
class ExperimentSpec:
    SELECTOR: ClassVar[str] = "kind"

    kind: str = _key(_choice(KINDS))
    n: int = _key(_integer(1), 1000)
    samples: int = _key(_integer(1), 1)
    seed: int = _key(_integer(0), 0)
    output_path: str | None = _key(_PATH, None)
    p_values: tuple = _key(_list_of(_number(0.0, 1.0)), (0.1, 0.3, 0.5),
                           only="entropy")
    block_len: int = _key(_integer(1), 12, only="entropy")
    h_base: tuple = _key(_list_of(_RATE), (), only="entropy")


@dataclass(frozen=True)
class LabConfig:
    iet: IETConfig = _key(_section(IETConfig), IETConfig())
    b_policy: PolicyConfig = _key(_section(PolicyConfig), PolicyConfig())
    delta: float = _key(_number(0.0, 0.5), MetricParams.delta)
    experiments: tuple = _key(_list_of(_section(ExperimentSpec)), ())
    plot: bool = _key(_BOOLEAN, False)


def parse_config(raw) -> LabConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _parse_section(LabConfig, raw, "")


def serialize_config(cfg: LabConfig) -> dict:
    """JSON-ready dict with every field materialized (round-trips exactly)."""
    return _dump_section(cfg)


def load_config(path) -> LabConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# building the objects
# ---------------------------------------------------------------------------


def _arguments(section, *skip: str) -> dict:
    """The set keys that apply to ``section``, less ``skip``, by name."""
    return {key: value for key, _, value in _applicable(section)
            if key not in skip}


def build_iet(cfg: IETConfig) -> CountableIET:
    # the identity tail that "tail" names is the only one explicit_table makes
    return FAMILIES[cfg.family](**_arguments(cfg, "family", "tail"))


def build_policy(cfg: PolicyConfig):
    return POLICIES[cfg.kind](**_arguments(cfg, "kind"))


def build_spec(cfg: LabConfig):
    """The roof spec over the base map; a violated constraint is a config
    error that names the section it comes from."""
    section = "iet"
    try:
        iet = build_iet(cfg.iet)
        section = "b_policy"
        return choose_b_and_check(iet, build_policy(cfg.b_policy))[0]
    except ConstraintViolationError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


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
        spec = build_spec(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    params = MetricParams(delta=cfg.delta)
    plot = args.plot or cfg.plot
    dest_dir = Path(args.out)

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
            out_path = _csv_target(dest_dir, exp, args.kind, pos,
                                   len(selected))
            out_path.parent.mkdir(parents=True, exist_ok=True)
            runner, plotter = RUNNERS[exp.kind]
            code, result, data = runner(spec, params, exp, out_path)
            if plot and plotter is not None:
                plotter(spec, data, out_path.with_suffix(".svg"))
            results.append(result)
            exit_code = max(exit_code, code)
        report = {
            "command": args.kind,
            "config": serialize_config(cfg),
            "results": results,
            "wall_clock_seconds": time.monotonic() - started,
        }
        with open(dest_dir / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except LabError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # --out is a file, or an output_path is a directory of another
        # output (report.json included)
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
