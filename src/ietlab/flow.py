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
from .measure import sample_starts
from .roof import RoofSpec


# ---------------------------------------------------------------------------
# cocycle matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle2x2:
    """Product of time-one Jacobians plus the crossing count.

    Every factor is a shear (1, 0; s, 1), and shears multiply by adding
    their s, so the product is the shear (1, 0; m21, 1): m21 and the
    crossing count are all there is to store.
    """

    m21: float = 0.0
    crossings: int = 0

    @classmethod
    def identity(cls) -> "Cocycle2x2":
        return cls()

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1.0, 0.0], [self.m21, 1.0]])

    def compose(self, first: "Cocycle2x2") -> "Cocycle2x2":
        """Matrix product self @ first (self applied after first)."""
        return Cocycle2x2(m21=self.m21 + first.m21,
                          crossings=self.crossings + first.crossings)


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
    out_m21 = np.empty(m)
    out_k = np.empty(m, dtype=np.int64)
    out_i = np.empty(m, dtype=np.int64)
    out_u = np.empty(m)
    out_y = np.empty(m)
    out_fail = np.empty(1, dtype=np.int64)
    status = kernels.lyap_orbit(
        spec.iet.pack(), spec.pack(), z.index, z.offset, z.height, cps,
        out_m21, out_k, out_i, out_u, out_y, out_fail)
    if status != kernels.OK:
        raise_for_status(int(status), f"cocycle at step {int(out_fail[0])}")
    mats = [Cocycle2x2(float(out_m21[j]), int(out_k[j])) for j in range(m)]
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
    return _ftle_record(z, n, op_norm_euclidean(mats[0].matrix),
                        math.log(constant_C(spec, z)),
                        math.log(constant_C(spec, pts[0])), mats[0].crossings,
                        seed)


def _ftle_record(z: SuspensionPoint, n: int, norm_e: float,
                 log_c_start: float, log_c_end: float, crossings: int,
                 seed: int) -> FTLERecord:
    """The record at ``n`` steps from ``z``: cocycle norm ``norm_e``, and
    log C at ``z`` and at the endpoint."""
    value_e = max(0.0, math.log(norm_e)) / n
    correction = (log_c_start + log_c_end) / n
    return FTLERecord(n=n, value_e=value_e, value_delta=value_e + correction,
                      start=z, seed=seed, crossings=crossings)


def aaronson_average(spec: RoofSpec, x: FiberPoint, n: int) -> float:
    """(1/n) log+ of the Birkhoff sum of h = 2 + 2|r'| along the base orbit."""
    if n < 1:
        raise ConstraintViolationError("n must be >= 1")
    cps = np.asarray([n], dtype=np.int64)
    out = np.empty(1)
    status = kernels.birkhoff_h_orbit(
        spec.iet.pack(), spec.pack(), x.index, x.offset, cps, out)
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


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` bit for bit, without the import of
    ``numpy.ma`` that costs its first call in a process about 11 ms.

    The steps of numpy's default (linear) method: the same partition (so
    that tied zeros keep numpy's signs), index, weight and interpolation,
    and the last value when that is NaN.
    """
    n = values.shape[0]
    index = (n - 1) * (q / 100)
    # at the top, numpy takes the last value twice, with weight index + 1
    lo = math.floor(index) if index < n - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    part = np.partition(values, sorted({0, -1, lo, hi}))
    if math.isnan(part[-1]):
        return float(part[-1])
    gamma = index - lo
    a, b = float(part[lo]), float(part[hi])
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


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
        return _percentile(self.column(n, which), 50)

    def percentile(self, n: int, q: float, which: str = "value") -> float:
        return _percentile(self.column(n, which), q)


@dataclass(frozen=True)
class AaronsonRecord:
    """Birkhoff-sum growth proxy at one checkpoint of one base orbit."""

    n: int
    value: float
    start: FiberPoint
    seed: int


MAX_ATTEMPTS = 64

def _batch_backend():
    """The batch orbit kernels and the thread count of an experiment.

    Threads (``thread_count()``) split the lanes only under numba, whose
    compiled loops release the GIL.  Numpy lanes hold it for calls this
    small, so there each round runs as one chunk.
    """
    orbits = kernels.batch_kernels()
    if orbits is not kernels:
        return orbits, 1
    return orbits, thread_count()


def _in_chunks(run, count: int, threads: int) -> None:
    """Call ``run(lo, hi)`` on contiguous chunks of ``count`` lanes.

    Each chunk runs in its own thread.  Lanes are independent, so the
    results do not depend on the chunking or the schedule.
    """
    parts = max(1, min(threads, count))
    if parts == 1:
        run(0, count)
        return
    # only the numba backend runs more than one chunk
    from concurrent.futures import ThreadPoolExecutor
    bounds = [count * t // parts for t in range(parts + 1)]
    with ThreadPoolExecutor(max_workers=parts) as pool:
        list(pool.map(run, bounds[:-1], bounds[1:]))


def _attempt_rounds(samples: int, what: str, draw,
                    run_batch) -> tuple[list, int]:
    """Rows of every sample, drawn and run in rounds of attempts.

    Round ``a`` calls ``draw(pending, a)`` once for the pending samples,
    which gives one entry per sample: its start, None when it has no
    representable start (a discarded attempt), or the ``LabError`` its draw
    raised.  The starts all run in one ``run_batch(starts)`` call.  That
    returns ``rows_of(lane, k)``: the lane's rows, or None for a discarded
    attempt.  Discarded samples are drawn again in the next round.  A
    sample whose draw or rows raise, or that has no clean attempt in
    ``MAX_ATTEMPTS`` rounds, fails, and the first failed sample raises, as
    it would when the samples ran one after the other.  Returns the rows in
    sample order and the number of discarded attempts.
    """
    rows: list = [None] * samples
    failed: dict[int, LabError] = {}
    discarded = 0
    pending = list(range(samples))
    for attempt in range(MAX_ATTEMPTS):
        drawn, starts = [], []
        for k, start in zip(pending, draw(pending, attempt)):
            if isinstance(start, LabError):
                failed[k] = start
            elif start is None:
                discarded += 1
            else:
                starts.append(start)
                drawn.append(k)
        rows_of = run_batch(starts) if drawn else None
        for lane, k in enumerate(drawn):
            try:
                rows[k] = rows_of(lane, k)
            except LabError as exc:
                failed[k] = exc
                continue
            if rows[k] is None:
                discarded += 1
        first = min(failed, default=samples)
        pending = [k for k in pending if k < first and k not in failed
                   and rows[k] is None]
        if not pending:
            break
    for k in pending:
        failed[k] = LabError(f"sample {k}: no clean {what} in "
                             f"{MAX_ATTEMPTS} attempts")
    if failed:
        raise failed[min(failed)]
    return [row for rs in rows for row in rs], discarded


def _result(kind: str, n: int, samples: int, seed: int, cps: list[int],
            rows: list, discarded: int) -> ExperimentResult:
    return ExperimentResult(kind=kind, n=n, samples=samples, seed=seed,
                            checkpoints=cps, rows=rows,
                            discarded_trajectories=discarded,
                            total_steps=(samples + discarded) * n)


def lyapunov_experiment(spec: RoofSpec, params: MetricParams, n: int,
                        samples: int, seed: int) -> ExperimentResult:
    """Finite-time exponents for ``samples`` trajectories of length ``n``.

    Attempt ``a`` of sample ``k`` starts from the suspension measure drawn
    with seed ``(seed, k, a)``; attempts that hit a singularity band or
    leave the truncation are discarded, and so are clean orbits whose C at
    the start or at a checkpoint endpoint is refused because the point is
    in the exclusion band or its backward step leaves the truncation.  Rows
    appear ordered by (sample, checkpoint) whatever the thread count.

    ``params`` is never read: ``value_delta`` is the sandwich's upper bound
    ``value_e + (log C(z) + log C(flow^n z))/n``, and C does not depend on
    the metric's ``delta``, so the rows are the same for any ``delta``.
    """
    if samples < 1:
        raise ConstraintViolationError("samples must be >= 1")
    from . import lane_geometry
    cps = checkpoints_geometric(n)
    orbits, threads = _batch_backend()
    base, roof = spec.iet.pack(), spec.pack()
    cps_arr = np.asarray(cps, dtype=np.int64)

    def draw(pending: list[int], attempt: int) -> list:
        return sample_starts(spec, [(seed, k, attempt) for k in pending])

    def run_batch(starts: list[SuspensionPoint]):
        count, m = len(starts), len(cps)
        idx = np.array([z.index for z in starts], dtype=np.int64)
        off = np.array([z.offset for z in starts])
        hei = np.array([z.height for z in starts])
        out_m21 = np.empty((count, m))
        out_k = np.empty((count, m), dtype=np.int64)
        out_i = np.empty((count, m), dtype=np.int64)
        out_u = np.empty((count, m))
        out_y = np.empty((count, m))
        out_fail = np.empty(count, dtype=np.int64)
        status = np.empty(count, dtype=np.int64)
        outs = (out_m21, out_k, out_i, out_u, out_y, out_fail, status)
        _in_chunks(lambda lo, hi: orbits.lyap_orbits(
            base, roof, idx[lo:hi], off[lo:hi], hei[lo:hi], cps_arr,
            *(a[lo:hi] for a in outs)), count, threads)

        # one lane call each for C at the starts and checkpoint endpoints
        # of the clean lanes, a row per lane, and their cocycles' norms
        ok = status == kernels.OK
        row = np.cumsum(ok) - 1
        ends = lane_geometry.Points(*(
            np.column_stack((at[ok], out[ok])).ravel()
            for at, out in ((idx, out_i), (off, out_u), (hei, out_y))))
        c, refused = (a.reshape(-1, m + 1)
                      for a in lane_geometry.sandwich_constants(spec, ends))
        norm_e = lane_geometry.op_norm_euclidean(
            lane_geometry.shears(out_m21[ok].ravel())).reshape(-1, m)

        def rows_of(lane: int, k: int):
            st = int(status[lane])
            if st in (kernels.SINGULARITY, kernels.TRUNCATION):
                return None
            raise_for_status(st, f"cocycle at step {int(out_fail[lane])}")
            r = int(row[lane])
            if refused[r].any():
                # the first refused point raises: a point in the exclusion
                # band or whose backward step leaves the truncation
                # discards the attempt, any other refusal fails the sample
                try:
                    constant_C(spec, ends.point(r * (m + 1)
                                                + int(np.argmax(refused[r]))))
                except (SingularityProximityError, TruncationExceededError):
                    return None
            log_c = [math.log(x) for x in c[r].tolist()]
            return [_ftle_record(starts[lane], nj, float(norm_e[r, j]),
                                 log_c[0], log_c[j + 1], int(out_k[lane, j]),
                                 k)
                    for j, nj in enumerate(cps)]

        return rows_of

    rows, discarded = _attempt_rounds(samples, "trajectory", draw, run_batch)
    return _result("lyapunov", n, samples, seed, cps, rows, discarded)


def aaronson_experiment(spec: RoofSpec, n: int, samples: int,
                        seed: int) -> ExperimentResult:
    """Birkhoff-sum growth proxies for ``samples`` base orbits.

    Sample ``k`` draws its uniform starts, one per attempt, from its own
    generator seeded with ``(seed, k)``; attempts whose start lies beyond
    the truncation or whose orbit fails are discarded.
    """
    if samples < 1:
        raise ConstraintViolationError("samples must be >= 1")
    cps = checkpoints_geometric(n)
    orbits, threads = _batch_backend()
    base, roof = spec.iet.pack(), spec.pack()
    cps_arr = np.asarray(cps, dtype=np.int64)
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, k)))
            for k in range(samples)]

    def locate(k: int) -> FiberPoint | None:
        try:
            return spec.iet.locate(rngs[k].random())
        except TruncationExceededError:
            return None  # mass beyond the truncation, skipped as in sample_mu

    def draw(pending: list[int], attempt: int) -> list:
        return [locate(k) for k in pending]

    def run_batch(starts: list[FiberPoint]):
        count = len(starts)
        idx = np.array([x.index for x in starts], dtype=np.int64)
        off = np.array([x.offset for x in starts])
        out = np.empty((count, len(cps)))
        status = np.empty(count, dtype=np.int64)
        _in_chunks(lambda lo, hi: orbits.birkhoff_h_orbits(
            base, roof, idx[lo:hi], off[lo:hi], cps_arr, out[lo:hi],
            status[lo:hi]), count, threads)

        def rows_of(lane: int, k: int):
            if status[lane] != kernels.OK:
                return None
            return [AaronsonRecord(
                n=nj, value=max(0.0, math.log(out[lane, j])) / nj,
                start=starts[lane], seed=k) for j, nj in enumerate(cps)]

        return rows_of

    rows, discarded = _attempt_rounds(samples, "base orbit", draw, run_batch)
    return _result("aaronson", n, samples, seed, cps, rows, discarded)
