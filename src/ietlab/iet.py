"""Countable interval exchange transformations on [0, 1).

The base maps are piecewise translations T x = x + a_i on a countable
partition into intervals [x_i, x_{i+1}) whose endpoints increase to 1.
Four families are provided: a per-block rotation and a per-block half swap
built over the dyadic partition of [0, 1), the dyadic odometer (adding
machine), and user-supplied explicit tables finished by an identity tail.

Points are handled in fiber coordinates ``(interval index, offset)`` so
relative precision does not degrade near the accumulation point at 1; see
``kernels`` for the step formulas.  Orbits are restricted to interval
indices below a truncation bound; leaving that range raises
``TruncationExceededError`` rather than silently losing precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import (
    ConstraintViolationError,
    TruncationExceededError,
    raise_for_status,
)
from .libm import elementwise

#: Default rotation number of the per-block rotation family.
GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

#: Default number of retained intervals.
DEFAULT_TRUNCATION = 64

#: Relative tolerance of the endpoint-isolation check in ``validate``.
ISOLATION_GAP_TOL = 1e-9

_DUMMY_F = np.zeros(1, dtype=np.float64)
_DUMMY_I = np.zeros(1, dtype=np.int64)

_FAMILY_NAMES = {
    kernels.FAM_ROTATION: "BlockRotation",
    kernels.FAM_SWAP: "BlockSwap",
    kernels.FAM_ODOMETER: "VonNeumannKakutani",
    kernels.FAM_EXPLICIT: "ExplicitTable",
}


class FiberPoint(NamedTuple):
    """Base point as (interval index, offset from the left endpoint)."""

    index: int
    offset: float


class CountableIET:
    """A truncated countable interval exchange in fiber coordinates.

    Instances are immutable.  Use the classmethods to construct one of the
    built-in families or an explicit table; the raw constructor is internal.
    """

    __slots__ = ("family", "theta", "xs", "aa", "ys", "yl", "yi", "n_trunc")

    def __init__(self, family, theta, xs, aa, ys, yl, yi, n_trunc):
        if n_trunc < 2:
            raise ConstraintViolationError("need at least two intervals")
        self.family = int(family)
        self.theta = float(theta)
        self.xs = np.ascontiguousarray(xs, dtype=np.float64)
        self.aa = np.ascontiguousarray(aa, dtype=np.float64)
        self.ys = np.ascontiguousarray(ys, dtype=np.float64)
        self.yl = np.ascontiguousarray(yl, dtype=np.float64)
        self.yi = np.ascontiguousarray(yi, dtype=np.int64)
        self.n_trunc = int(n_trunc)

    # -- constructors -----------------------------------------------------

    @classmethod
    def block_rotation(cls, theta: float = GOLDEN_ROTATION,
                       n_trunc: int = DEFAULT_TRUNCATION) -> "CountableIET":
        """Each dyadic block of [0, 1) rotated by theta times its length.

        Interval 2n is the left piece of block n (relative length 1-theta),
        interval 2n+1 the right piece (relative length theta).
        """
        if not (0.0 < theta < 1.0):
            raise ConstraintViolationError("rotation number must lie in (0, 1)")
        return cls(kernels.FAM_ROTATION, theta, _DUMMY_F, _DUMMY_F,
                   _DUMMY_F, _DUMMY_F, _DUMMY_I, n_trunc)

    @classmethod
    def block_swap(cls, n_trunc: int = DEFAULT_TRUNCATION) -> "CountableIET":
        """The two halves of each dyadic block exchanged (an involution)."""
        return cls(kernels.FAM_SWAP, 0.0, _DUMMY_F, _DUMMY_F,
                   _DUMMY_F, _DUMMY_F, _DUMMY_I, n_trunc)

    @classmethod
    def von_neumann_kakutani(cls, n_trunc: int = DEFAULT_TRUNCATION) -> "CountableIET":
        """The dyadic odometer: x + 3/2^(n+1) - 1 on [1 - 2^-n, 1 - 2^-n-1).

        Its image endpoints accumulate at 0, so it deliberately violates the
        endpoint-isolation condition checked by ``validate``.
        """
        return cls(kernels.FAM_ODOMETER, 0.0, _DUMMY_F, _DUMMY_F,
                   _DUMMY_F, _DUMMY_F, _DUMMY_I, n_trunc)

    @classmethod
    def explicit_table(cls, pairs: Sequence[tuple[float, float]],
                       n_trunc: int = DEFAULT_TRUNCATION) -> "CountableIET":
        """Table of (left endpoint, translation) pairs plus an identity tail.

        The final pair must carry translation 0; its endpoint marks the start
        of the tail [x_K, 1), which is kept pointwise fixed and subdivided
        into dyadic sub-blocks so the partition stays countable.  The finite
        part must map into [0, x_K) injectively, otherwise the tail would not
        be invariant and the table is rejected.
        """
        pts = [(float(x), float(a)) for x, a in pairs]
        if not pts:
            raise ConstraintViolationError("table needs at least one pair")
        xs = np.array([x for x, _ in pts], dtype=np.float64)
        aa = np.array([a for _, a in pts], dtype=np.float64)
        if xs[0] != 0.0:
            raise ConstraintViolationError("first endpoint must be 0")
        if np.any(np.diff(xs) <= 0.0):
            raise ConstraintViolationError("endpoints must be strictly increasing")
        if not xs[-1] < 1.0:
            raise ConstraintViolationError("tail start must be below 1")
        if aa[-1] != 0.0:
            raise ConstraintViolationError(
                "last pair must have translation 0 to mark the identity tail")
        k = len(pts) - 1
        if n_trunc <= k + 1:
            raise ConstraintViolationError(
                f"truncation {n_trunc} leaves no room for the tail of a "
                f"{k}-interval table")
        if k == 0:
            return cls(kernels.FAM_EXPLICIT, 0.0, xs, np.zeros(0),
                       _DUMMY_F, _DUMMY_F, _DUMMY_I, n_trunc)
        ts = float(xs[-1])
        lengths = np.diff(xs)
        starts = xs[:-1] + aa[:-1]
        ends = starts + lengths
        slack = 1e-12
        if np.any(starts < -slack) or np.any(ends > ts + slack):
            raise ConstraintViolationError(
                "finite intervals must map into [0, tail start)")
        order = np.argsort(starts, kind="stable")
        ys = starts[order]
        yl = lengths[order]
        yi = order.astype(np.int64)
        gaps = ys[1:] - (ys[:-1] + yl[:-1])
        if np.any(gaps < -slack):
            raise ConstraintViolationError("image intervals overlap")
        return cls(kernels.FAM_EXPLICIT, 0.0, xs, aa[:-1], ys, yl, yi, n_trunc)

    # -- structure ---------------------------------------------------------

    @property
    def name(self) -> str:
        return _FAMILY_NAMES[self.family]

    @property
    def n_finite(self) -> int:
        """Number of finite-table intervals (explicit family only)."""
        if self.family != kernels.FAM_EXPLICIT:
            return 0
        return self.xs.shape[0] - 1

    def pack(self):
        """The ``base`` argument of the kernels."""
        return (self.family, self.theta, self.xs, self.aa,
                self.ys, self.yl, self.yi, self.n_trunc)

    def length(self, i: int) -> float:
        self._check_index(i)
        return float(kernels.iet_length(self.pack(), i))

    def left(self, i: int) -> float:
        """Absolute left endpoint of interval ``i``."""
        self._check_index(i)
        fam = self.family
        if fam in (kernels.FAM_ROTATION, kernels.FAM_SWAP):
            # block i >> 1 starts at 1 - 2^-(i >> 1), its right interval
            # where its left one ends
            start = 1.0 - math.ldexp(1.0, -(i >> 1))
            return start + self.length(i - 1) if i & 1 else start
        if fam == kernels.FAM_ODOMETER:
            return 0.0 if i == 0 else 1.0 - math.ldexp(1.0, -i)
        nf = self.n_finite
        if i < nf:
            return float(self.xs[i])
        gap = 1.0 - float(self.xs[nf])
        return 1.0 - math.ldexp(gap, -(i - nf))

    def right(self, i: int) -> float:
        return self.left(i) + self.length(i)

    # -- points ------------------------------------------------------------

    def locate(self, x: float) -> FiberPoint:
        """Fiber coordinates of an absolute point in [0, 1)."""
        if not 0.0 <= x < 1.0:
            raise ConstraintViolationError(f"point {x!r} outside [0, 1)")
        fam = self.family
        if fam == kernels.FAM_ROTATION:
            n, w = kernels.dyadic_block(x)
            cut = (1.0 - self.theta) * math.ldexp(1.0, -n - 1)
            i, u = (2 * n, w) if w < cut else (2 * n + 1, w - cut)
        elif fam == kernels.FAM_SWAP:
            n, w = kernels.dyadic_block(x)
            half = math.ldexp(1.0, -n - 2)
            i, u = (2 * n, w) if w < half else (2 * n + 1, w - half)
        elif fam == kernels.FAM_ODOMETER:
            i, u = kernels.dyadic_block(x)
        else:
            i, u = kernels.explicit_locate(self.xs, x)
        if i >= self.n_trunc:
            raise TruncationExceededError(
                f"point {x!r} lies in interval {i} >= truncation {self.n_trunc}")
        return FiberPoint(int(i), float(u))

    def absolute(self, p: FiberPoint) -> float:
        """Absolute coordinate of a fiber point (for reporting only)."""
        return self.left(p.index) + p.offset

    def step(self, p: FiberPoint) -> FiberPoint:
        """One forward application of the base map."""
        j, v, status = kernels.iet_step(self.pack(), p.index, p.offset)
        if status != kernels.OK:
            self._fail(status, j, "forward step")
        return FiberPoint(int(j), float(v))

    def step_back(self, p: FiberPoint) -> FiberPoint:
        """One backward application of the base map."""
        j, v, status = kernels.iet_step_inv(self.pack(), p.index, p.offset)
        if status != kernels.OK:
            self._fail(status, j, "backward step")
        return FiberPoint(int(j), float(v))

    def _fail(self, status: int, j: int, what: str) -> None:
        if status == kernels.TRUNCATION:
            raise TruncationExceededError(
                f"orbit reached interval {j} >= truncation {self.n_trunc}")
        raise_for_status(status, what)

    def image_left(self, i: int) -> float:
        """Absolute image of the left endpoint of interval ``i``."""
        return self.absolute(self.step(FiberPoint(i, 0.0)))

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_trunc:
            raise TruncationExceededError(
                f"interval index {i} outside [0, {self.n_trunc})")

    def __repr__(self) -> str:
        extra = f", theta={self.theta!r}" if self.family == kernels.FAM_ROTATION else ""
        return f"CountableIET({self.name}{extra}, n_trunc={self.n_trunc})"


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of the structural checks on a truncated base map.

    ``overall`` is FAIL when the partition itself or the covering property
    is broken, WARN when only the endpoint-isolation condition fails (the
    map is still a bijection, but the theory behind the roof construction
    does not apply), PASS otherwise.
    """

    family: str
    n_checked: int
    tail_bound: float
    cond_partition: bool
    cond_isolation: bool
    cond_covering: bool
    offenders: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def overall(self) -> str:
        if not (self.cond_partition and self.cond_covering):
            return "FAIL"
        if not self.cond_isolation:
            return "WARN"
        return "PASS"

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n_checked": self.n_checked,
            "tail_bound": self.tail_bound,
            "partition_monotone": self.cond_partition,
            "image_endpoints_isolated": self.cond_isolation,
            "images_disjoint": self.cond_covering,
            "offenders": [list(o) for o in self.offenders],
            "notes": list(self.notes),
            "overall": self.overall,
        }


def validate(iet: CountableIET) -> CheckReport:
    """Check the truncated map against the structural requirements.

    Three checks run over the ``n_trunc`` intervals of the truncation:

    * partition: left endpoints start at 0, increase strictly, stay below 1;
    * isolation: each image endpoint outside the unchecked tail zone must
      have no other image endpoint within ``ISOLATION_GAP_TOL`` times its
      distance to 1 (accumulation anywhere except 1 is flagged);
    * covering: image intervals lie in [0, 1) and are pairwise disjoint.

    The isolation tolerance is relative to the gap 1 - y so that families
    whose endpoints legitimately pile up at 1 are not penalized however
    deep the truncation reaches.
    """
    n_check = iet.n_trunc
    report = CheckReport(family=iet.name, n_checked=n_check, tail_bound=0.0,
                         cond_partition=True, cond_isolation=True,
                         cond_covering=True)

    lefts = np.array([iet.left(i) for i in range(n_check)])
    lengths = np.array([iet.length(i) for i in range(n_check)])
    rights = lefts + lengths
    report.tail_bound = float(max(0.0, 1.0 - rights[-1]))

    if lefts[0] != 0.0:
        report.cond_partition = False
        report.notes.append("first endpoint is not 0")
    if np.any(lengths <= 0.0):
        report.cond_partition = False
        report.notes.append("non-positive interval length")
    if np.any(lefts[1:] < rights[:-1] - 1e-15) or \
            np.any(lefts[1:] > rights[:-1] + 1e-15):
        report.cond_partition = False
        report.notes.append("intervals do not abut in order")
    if rights[-1] > 1.0 + 1e-15:
        report.cond_partition = False
        report.notes.append("partition exceeds [0, 1)")

    imgs = np.array([iet.image_left(i) for i in range(n_check)])

    # endpoint isolation: the set under test is {x_i + a_i} U {x_{i+1} + a_i},
    # i.e. both ends of every image interval, exactly as the condition states.
    # Endpoints within 1e-14 are one mathematical point seen through two
    # float rounding paths (shared edges of abutting images); merge them.
    raw = np.sort(np.concatenate([imgs, imgs + lengths]))
    merged = [raw[0]]
    for y in raw[1:]:
        if y - merged[-1] > 1e-14:
            merged.append(y)
    points = np.asarray(merged)
    npts = points.size
    excuse_from = 1.0 - report.tail_bound
    for pos in range(npts):
        y = points[pos]
        if y >= excuse_from:
            continue
        nearest = math.inf
        if pos > 0:
            nearest = min(nearest, y - points[pos - 1])
        if pos + 1 < npts:
            nearest = min(nearest, points[pos + 1] - y)
        # relative to the gap below 1, so endpoints that legitimately pile
        # up at 1 pass at any truncation depth
        if nearest <= ISOLATION_GAP_TOL * max(1.0 - y, 1e-300):
            report.cond_isolation = False
            if len(report.offenders) < 8:
                report.offenders.append((float(y), float(nearest)))
    if not report.cond_isolation:
        report.notes.append(
            "image endpoints accumulate away from 1 (isolation violated)")

    # covering: images inside [0, 1) and pairwise disjoint
    img_ends = imgs + lengths
    if np.any(imgs < -1e-15) or np.any(img_ends > 1.0 + 1e-15):
        report.cond_covering = False
        report.notes.append("an image interval leaves [0, 1)")
    order = np.argsort(imgs, kind="stable")
    s_starts = imgs[order]
    s_ends = img_ends[order]
    overlap = s_ends[:-1] - s_starts[1:]
    # absolute floor: endpoints are compared in absolute coordinates, where
    # rounding noise is a few ulps of 1 regardless of interval size
    tol = 1e-15 + 1e-12 * np.minimum(lengths[order][:-1], lengths[order][1:])
    if np.any(overlap > tol):
        report.cond_covering = False
        report.notes.append("image intervals overlap")
    return report


# ---------------------------------------------------------------------------
# entropy of the defining partition
# ---------------------------------------------------------------------------


@dataclass
class PartitionEntropy:
    """Entropy sum of the defining partition with a convergence verdict.

    ``partial_sum`` covers the explicitly enumerated cells; ``tail_bound``
    is the family's analytic tail contribution.  ``status`` is the verdict:
    CONVERGENT (with ``value`` = partial + tail), DIVERGENT (``value`` is
    inf), or UNKNOWN (``value`` is nan).  For explicit tables the verdict
    is inferred from how per-octave chunks of the series shrink; built-in
    families converge by construction.
    """

    partial_sum: float
    tail_bound: float
    status: str

    @property
    def value(self) -> float:
        if self.status == "DIVERGENT":
            return math.inf
        if self.status == "UNKNOWN":
            return math.nan
        return self.partial_sum + self.tail_bound


def _entropy_term(lengths: np.ndarray) -> np.ndarray:
    return -lengths * elementwise(math.log, lengths)


def _octave_trend(lengths: np.ndarray) -> tuple[str, float]:
    """Convergence verdict from per-octave sums of -l log l.

    Octave k covers indices [2^k, 2^(k+1)).  If the last three complete
    octave sums shrink by a factor <= 0.6 each, the series is declared
    convergent with a geometric remainder estimate; if they each shrink by
    a factor >= 0.75 (or grow), divergent; in between, unknown.  Fewer than
    32 entries are treated as complete finite data.
    """
    n = lengths.size
    if n < 32:
        return "CONVERGENT", 0.0
    sums = []
    k = 0
    while True:
        a, b = 1 << k, 1 << (k + 1)
        if b > n:
            break
        sums.append(float(np.sum(_entropy_term(lengths[a:b]))))
        k += 1
    ratios = [sums[j + 1] / sums[j] for j in range(len(sums) - 1) if sums[j] > 0.0]
    if len(ratios) < 3:
        return "UNKNOWN", math.nan
    last = ratios[-3:]
    if max(last) <= 0.6:
        r = max(last)
        return "CONVERGENT", sums[-1] * r / (1.0 - r)
    if min(last) >= 0.75:
        return "DIVERGENT", math.inf
    return "UNKNOWN", math.nan


def partition_entropy(iet: CountableIET) -> PartitionEntropy:
    """Sum of -l log l over the map's defining partition.

    Built-in families use their countable enumeration: the partial sum runs
    over the ``n_trunc`` intervals of the truncation and
    the tail is summed term by term to machine precision, which is exact
    because the tails decay geometrically.  Explicit tables use their own
    cells: the finite table entries plus the identity tail as a single cell
    (a degenerate one-pair table therefore has entropy 0), with the verdict
    inferred from the shrinkage of per-octave chunks of the finite series.
    """
    n_terms = iet.n_trunc
    if iet.family == kernels.FAM_EXPLICIT:
        nf = iet.n_finite
        lengths = np.diff(iet.xs)
        head = lengths[:min(n_terms, nf)]
        partial = float(np.sum(_entropy_term(head))) if head.size else 0.0
        rest = lengths[min(n_terms, nf):]
        tail = float(np.sum(_entropy_term(rest))) if rest.size else 0.0
        gap = 1.0 - float(iet.xs[nf])
        if gap < 1.0:
            tail += -gap * math.log(gap)
        status, _ = _octave_trend(lengths) if nf else ("CONVERGENT", 0.0)
        return PartitionEntropy(partial, tail, status)

    base = iet.pack()

    def term(i: int) -> float:
        piece = kernels.iet_length(base, i)
        return -piece * math.log(piece)

    partial = 0.0
    for i in range(n_terms):
        partial += term(i)
    tail = 0.0
    for i in range(n_terms, n_terms + 4096):
        t = term(i)
        tail += t
        if t < 1e-22:
            break
    return PartitionEntropy(partial, tail, "CONVERGENT")
