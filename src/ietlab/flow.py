"""The suspension flow, its differential cocycle, and the limit experiments.

Unit flow time moves a point one unit up the fiber, gluing through the roof
onto the next fiber when it crosses.  A crossing at base point x contributes
the lower-unipotent Jacobian [[1, 0], [-2 r'(x), 1]]; products of those stay
lower-unipotent, so the whole cocycle is carried by the single entry m21 and
everything about finite-time exponents reduces to scalar accumulation.

The two Monte Carlo experiments here are the finite-time Lyapunov exponents
under the flat and blended norms, and the growth rate of Birkhoff sums of
h = 2 + 2|r'| along base orbits.  Both report per-sample rows, deterministic
given (seed, sample index) regardless of thread schedule.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    ConstraintViolationError,
    LabError,
    SingularityProximityError,
    TruncationExceededError,
    raise_for_status,
)
from .geometry import (
    MetricParams,
    SuspensionPoint,
    canonicalize,
    constant_C,
    op_norm_euclidean,
)
from .iet import FiberPoint
from .measure import sample_mu
from .roof import RoofSpec


# ---------------------------------------------------------------------------
# cocycle matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle2x2:
    """Product of time-one Jacobians plus the crossing count.

    Every factor is lower-unipotent, so any product has m11 = m22 = 1 and
    m12 = 0 exactly; the class stores all four entries anyway so the
    invariant stays checkable rather than baked in.
    """

    m11: float = 1.0
    m12: float = 0.0
    m21: float = 0.0
    m22: float = 1.0
    crossings: int = 0

    @classmethod
    def identity(cls) -> "Cocycle2x2":
        return cls()

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def compose(self, first: "Cocycle2x2") -> "Cocycle2x2":
        """Matrix product self @ first (self applied after first)."""
        return Cocycle2x2(
            m11=self.m11 * first.m11 + self.m12 * first.m21,
            m12=self.m11 * first.m12 + self.m12 * first.m22,
            m21=self.m21 * first.m11 + self.m22 * first.m21,
            m22=self.m21 * first.m12 + self.m22 * first.m22,
            crossings=self.crossings + first.crossings)

    def inverse(self) -> "Cocycle2x2":
        det = self.m11 * self.m22 - self.m12 * self.m21
        return Cocycle2x2(
            m11=self.m22 / det, m12=-self.m12 / det,
            m21=-self.m21 / det, m22=self.m11 / det,
            crossings=self.crossings)


@dataclass(frozen=True)
class FTLERecord:
    """Finite-time exponent proxies at one checkpoint of one trajectory."""

    n: int
    value_e: float
    value_delta: float
    start: SuspensionPoint
    seed: int
    crossings: int = 0


# ---------------------------------------------------------------------------
# flow and single steps
# ---------------------------------------------------------------------------


def flow(spec: RoofSpec, z: SuspensionPoint, t: float) -> SuspensionPoint:
    """Move ``t`` units of flow time and return canonical coordinates."""
    if not math.isfinite(t):
        raise ConstraintViolationError("flow time must be finite")
    return canonicalize(spec, z.base, z.height + t)


def jacobian_step(spec: RoofSpec, z: SuspensionPoint) -> Cocycle2x2:
    """Differential of the time-one map at ``z``.

    Identity when the unit step stays under the roof; otherwise the single
    crossing at base point x contributes [[1, 0], [-2 r'(x), 1]].
    """
    rv = spec.value(z.base)
    if z.height + 1.0 < rv.value:
        return Cocycle2x2.identity()
    return Cocycle2x2(m21=-2.0 * rv.derivative, crossings=1)


def cocycle_checkpoints(
        spec: RoofSpec, z: SuspensionPoint, checkpoints: list[int],
) -> tuple[list[Cocycle2x2], list[SuspensionPoint]]:
    """Cocycle and trajectory state at each step count in ``checkpoints``."""
    if not checkpoints or any(n < 1 for n in checkpoints):
        raise ConstraintViolationError("checkpoints must be positive")
    cps = np.asarray(checkpoints, dtype=np.int64)
    if np.any(np.diff(cps) <= 0):
        raise ConstraintViolationError("checkpoints must be increasing")
    m = cps.shape[0]
    out_a = np.empty(m)
    out_b = np.empty(m)
    out_c = np.empty(m)
    out_d = np.empty(m)
    out_k = np.empty(m, dtype=np.int64)
    out_i = np.empty(m, dtype=np.int64)
    out_u = np.empty(m)
    out_y = np.empty(m)
    out_fail = np.empty(1, dtype=np.int64)
    status = kernels.lyap_orbit(
        spec.iet.pack(), spec.pack(), z.index, z.offset, z.height, cps,
        out_a, out_b, out_c, out_d, out_k, out_i, out_u, out_y, out_fail)
    if status != kernels.OK:
        raise_for_status(int(status), f"cocycle at step {int(out_fail[0])}")
    mats = [Cocycle2x2(float(out_a[j]), float(out_b[j]), float(out_c[j]),
                       float(out_d[j]), int(out_k[j]))
            for j in range(m)]
    pts = [SuspensionPoint(FiberPoint(int(out_i[j]), float(out_u[j])),
                           float(out_y[j]))
           for j in range(m)]
    return mats, pts


def cocycle(spec: RoofSpec, z: SuspensionPoint, n: int) -> Cocycle2x2:
    """Left-product of the time-one Jacobians along n steps from ``z``."""
    return cocycle_checkpoints(spec, z, [n])[0][0]


def ftle(spec: RoofSpec, params: MetricParams, z: SuspensionPoint, n: int,
         seed: int = -1) -> FTLERecord:
    """Finite-time exponent proxy at ``n`` steps.

    ``value_e`` is (1/n) log+ of the euclidean operator norm of the cocycle;
    ``value_delta`` adds the sandwich corrections (1/n)(log C(z) +
    log C(flow^n z)).
    """
    mats, pts = cocycle_checkpoints(spec, z, [n])
    return _ftle_record(spec, params, z, n, mats[0], pts[0], seed)


def _ftle_record(spec: RoofSpec, params: MetricParams, z: SuspensionPoint,
                 n: int, mat: Cocycle2x2, endpoint: SuspensionPoint,
                 seed: int) -> FTLERecord:
    value_e = max(0.0, math.log(op_norm_euclidean(mat.matrix))) / n
    correction = (math.log(constant_C(spec, z))
                  + math.log(constant_C(spec, endpoint))) / n
    return FTLERecord(n=n, value_e=value_e, value_delta=value_e + correction,
                      start=z, seed=seed, crossings=mat.crossings)


def aaronson_average(spec: RoofSpec, x: FiberPoint, n: int,
                     h_const: float | None = None) -> float:
    """(1/n) log+ of the Birkhoff sum of h = 2 + 2|r'| along the base orbit.

    ``h_const`` replaces h by a constant, a hook with the closed form
    (log n + log c)/n used to calibrate the experiment plumbing.
    """
    if n < 1:
        raise ConstraintViolationError("n must be >= 1")
    cps = np.asarray([n], dtype=np.int64)
    out = np.empty(1)
    status = kernels.birkhoff_h_orbit(
        spec.iet.pack(), spec.pack(), x.index, x.offset, cps, out,
        0.0 if h_const is None else float(h_const))
    raise_for_status(int(status), "birkhoff sum")
    return max(0.0, math.log(out[0])) / n


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def checkpoints_geometric(n_max: int) -> list[int]:
    """Geometric step grid 100, 300, 1000, ... capped and ending at n_max."""
    if n_max < 1:
        raise ConstraintViolationError("n must be >= 1")
    out = []
    base = 100
    while base <= n_max:
        for mult in (1, 3):
            val = base * mult
            if val <= n_max:
                out.append(val)
        base *= 10
    if not out or out[-1] != n_max:
        out.append(n_max)
    return out


def thread_count() -> int:
    """Worker cap from LAB_THREADS (default 1)."""
    raw = os.environ.get("LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass
class ExperimentResult:
    """Rows plus discard accounting for one Monte Carlo experiment."""

    kind: str
    n: int
    samples: int
    seed: int
    checkpoints: list[int]
    rows: list = field(default_factory=list)
    discarded_trajectories: int = 0
    total_steps: int = 0

    @property
    def discard_rate(self) -> float:
        if self.total_steps == 0:
            return 0.0
        return self.discarded_trajectories / self.total_steps

    def column(self, n: int, which: str) -> np.ndarray:
        """All per-sample values of one field at one checkpoint."""
        vals = [getattr(row, which) for row in self.rows if row.n == n]
        return np.asarray(vals)

    def median(self, n: int, which: str = "value_delta") -> float:
        return float(np.median(self.column(n, which)))

    def percentile(self, n: int, q: float, which: str = "value") -> float:
        return float(np.percentile(self.column(n, which), q))


@dataclass(frozen=True)
class AaronsonRecord:
    """Birkhoff-sum growth proxy at one checkpoint of one base orbit."""

    n: int
    value: float
    start: FiberPoint
    seed: int


MAX_ATTEMPTS = 64


def _draw_start(spec: RoofSpec, seed: int, sample: int,
                attempt: int) -> SuspensionPoint:
    batch = sample_mu(spec, 1, (seed, sample, attempt))
    return batch.point(0)


def _lyapunov_sample(spec: RoofSpec, params: MetricParams, cps: list[int],
                     seed: int, sample: int) -> tuple[list[FTLERecord], int]:
    """Rows for one trajectory; resamples the start on band hits."""
    discarded = 0
    for attempt in range(MAX_ATTEMPTS):
        z = _draw_start(spec, seed, sample, attempt)
        try:
            mats, pts = cocycle_checkpoints(spec, z, cps)
        except (SingularityProximityError, TruncationExceededError):
            discarded += 1
            continue
        rows = [_ftle_record(spec, params, z, n, mats[j], pts[j], sample)
                for j, n in enumerate(cps)]
        return rows, discarded
    raise LabError(f"sample {sample}: no clean trajectory in "
                   f"{MAX_ATTEMPTS} attempts")


def _aaronson_sample(spec: RoofSpec, cps: list[int], seed: int, sample: int,
                     h_const: float | None) -> tuple[list[AaronsonRecord], int]:
    discarded = 0
    rng = np.random.default_rng(np.random.SeedSequence((seed, sample)))
    cps_arr = np.asarray(cps, dtype=np.int64)
    out = np.empty(len(cps))
    for attempt in range(MAX_ATTEMPTS):
        x = spec.iet.locate(rng.random())
        status = kernels.birkhoff_h_orbit(
            spec.iet.pack(), spec.pack(), x.index, x.offset, cps_arr, out,
            0.0 if h_const is None else float(h_const))
        if status == kernels.OK:
            rows = [AaronsonRecord(n=n, value=max(0.0, math.log(out[j])) / n,
                                   start=x, seed=sample)
                    for j, n in enumerate(cps)]
            return rows, discarded
        discarded += 1
    raise LabError(f"sample {sample}: no clean base orbit in "
                   f"{MAX_ATTEMPTS} attempts")


def _run_samples(worker, samples: int, threads: int):
    """Apply worker to sample indices, in order, optionally threaded."""
    if threads <= 1:
        return [worker(k) for k in range(samples)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(samples)))


def lyapunov_experiment(spec: RoofSpec, params: MetricParams, n: int,
                        samples: int, seed: int,
                        threads: int | None = None) -> ExperimentResult:
    """Finite-time exponents for ``samples`` trajectories of length ``n``.

    Starts are drawn from the suspension measure; rows appear ordered by
    (sample, checkpoint) whatever the thread count.
    """
    if samples < 1:
        raise ConstraintViolationError("samples must be >= 1")
    cps = checkpoints_geometric(n)
    threads = thread_count() if threads is None else max(1, threads)
    result = ExperimentResult(kind="lyapunov", n=n, samples=samples,
                              seed=seed, checkpoints=cps)

    def worker(k: int):
        return _lyapunov_sample(spec, params, cps, seed, k)

    for rows, discarded in _run_samples(worker, samples, threads):
        result.rows.extend(rows)
        result.discarded_trajectories += discarded
        result.total_steps += n + discarded * n
    return result


def aaronson_experiment(spec: RoofSpec, n: int, samples: int, seed: int,
                        threads: int | None = None,
                        h_const: float | None = None) -> ExperimentResult:
    """Birkhoff-sum growth proxies for ``samples`` base orbits."""
    if samples < 1:
        raise ConstraintViolationError("samples must be >= 1")
    cps = checkpoints_geometric(n)
    threads = thread_count() if threads is None else max(1, threads)
    result = ExperimentResult(kind="aaronson", n=n, samples=samples,
                              seed=seed, checkpoints=cps)

    def worker(k: int):
        return _aaronson_sample(spec, cps, seed, k, h_const)

    for rows, discarded in _run_samples(worker, samples, threads):
        result.rows.extend(rows)
        result.discarded_trajectories += discarded
        result.total_steps += n + discarded * n
    return result
