"""Points of the suspension space and the two Riemannian norms on it.

The space is the region between the graphs of -r(T^-1 x) and r(x), with the
top of each fiber glued to the bottom of the fiber over Tx.  Canonical
coordinates are bottom-inclusive: -r(T^-1 x) <= y < r(x).

Two norms are provided: the ambient Euclidean one, and a blended norm that
interpolates (by a smooth function of the fiber distance to the singular
edges, scaled by delta) between Euclidean in the interior and the pullback
under the edge-straightening shear near the edges.  The comparison constant
between the two and the one-step expansion factor beta are computed from
the shear actually in force at the point: the derivative entering them
belongs to whichever edge (top or bottom) the point is closest to.  The
top-edge formulas use r'(x); the bottom-edge ones use r'(T^-1 x).  Using
the near-edge derivative on both sides is what makes the sandwich and the
operator-norm bound hold pointwise with no exceptions.

Each formula is written once, on numpy lanes, in ``lane_geometry``; the
functions here evaluate it at a single point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ConstraintViolationError, raise_for_status
from .iet import FiberPoint
from .roof import RoofSpec

#: Edge gluings ``canonicalize`` may apply before it gives up.
MAX_GLUE = 100000


class SuspensionPoint(NamedTuple):
    """Point of the suspension space in canonical fiber coordinates."""

    base: FiberPoint
    height: float

    @property
    def index(self) -> int:
        return self.base.index

    @property
    def offset(self) -> float:
        return self.base.offset


class TangentVec(NamedTuple):
    dx: float
    dy: float


@dataclass(frozen=True)
class MetricParams:
    """Blend depth of the edge-adapted norm (fiber distance units)."""

    delta: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ConstraintViolationError("delta must lie in (0, 1/2)")


def canonicalize(spec: RoofSpec, base: FiberPoint,
                 y_raw: float) -> SuspensionPoint:
    """Apply the edge gluing until -r(T^-1 x) <= y < r(x).

    Already-canonical points are returned bit-exactly unchanged.  Each
    upward gluing replaces (x, y) by (Tx, y - 2 r(x)); downward by
    (T^-1 x, y + 2 r(T^-1 x)).  Terminates because r >= 1.
    """
    i, u, y, status = kernels.canonicalize_k(
        spec.iet.pack(), spec.pack(), base.index, base.offset, float(y_raw),
        MAX_GLUE)
    raise_for_status(status, "canonicalize")
    return SuspensionPoint(FiberPoint(int(i), float(u)), float(y))


def _lane(z: SuspensionPoint):
    """``lane_geometry``, imported on first use so that ``import ietlab``
    loads neither it nor ``lanes``, and ``z`` as one lane of its Points."""
    from . import lane_geometry
    return lane_geometry, lane_geometry.Points(
        np.array([z.index], dtype=np.int64), np.array([z.offset], dtype=float),
        np.array([z.height], dtype=float))


def metric_form(spec: RoofSpec, params: MetricParams,
                z: SuspensionPoint) -> np.ndarray:
    """Gram matrix of the blended norm at z (identity off the edge zone)."""
    lanes, pts = _lane(z)
    return lanes.metric_form(spec, params, pts)[0]


def metric_norm(spec: RoofSpec, params: MetricParams, z: SuspensionPoint,
                v: TangentVec, kind: str = "delta") -> float:
    """Length of a tangent vector under the chosen norm."""
    lanes, pts = _lane(z)
    dx, dy = np.array([v.dx], dtype=float), np.array([v.dy], dtype=float)
    return float(lanes.metric_norm(spec, params, pts, dx, dy, kind)[0])


def constant_C(spec: RoofSpec, z: SuspensionPoint) -> float:
    """Sandwich constant: C(z)^-1 ||v||_e <= ||v||_delta <= C(z) ||v||_e."""
    lanes, pts = _lane(z)
    return float(lanes.constant_C(spec, pts)[0])


def beta_factor(spec: RoofSpec, params: MetricParams,
                z: SuspensionPoint) -> float:
    """One-step expansion bound: ||dphi||_delta <= beta(z) ||dphi||_e."""
    lanes, pts = _lane(z)
    return float(lanes.beta_factor(spec, params, pts)[0])


def op_norm_euclidean(m: np.ndarray) -> float:
    """Largest singular value of a 2x2 matrix, closed form."""
    from . import lane_geometry
    return float(lane_geometry.op_norm_euclidean(_stack(m))[0])


def op_norm_between(g_from: np.ndarray, m: np.ndarray,
                    g_to: np.ndarray) -> float:
    """sup ||Mv||_{g_to} / ||v||_{g_from} for SPD Gram matrices."""
    from . import lane_geometry
    return float(lane_geometry.op_norm_between(_stack(g_from), _stack(m),
                                               _stack(g_to))[0])


def _stack(m) -> np.ndarray:
    """The 2x2 matrix ``m`` as a stack of one."""
    return np.asarray(m, dtype=float).reshape(1, 2, 2)
