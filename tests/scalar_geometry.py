"""The scalar geometry functions, one point at a time: the test oracle.

These are the float formulas ``ietlab.geometry`` held before each
operation got one implementation, on lanes, in ``ietlab.lane_geometry``.
The pinned digests of the check suite were taken from them, and the lane
functions must give their floats bit for bit.
"""

import math

import numpy as np

from ietlab import kernels
from ietlab.errors import ConsistencyError, ConstraintViolationError
from ietlab.geometry import MetricParams, SuspensionPoint, TangentVec
from ietlab.iet import FiberPoint
from ietlab.roof import RoofSpec, RoofValue


def fiber_edges(spec: RoofSpec, base: FiberPoint) -> tuple[RoofValue, RoofValue]:
    """(roof at T^-1 x, roof at x): the fiber is [-first.value, second.value)."""
    prev = spec.iet.step_back(base)
    return spec.value(prev), spec.value(base)


def is_canonical(spec: RoofSpec, z: SuspensionPoint) -> bool:
    below, here = fiber_edges(spec, z.base)
    return -below.value <= z.height < here.value


def edge_distance(spec: RoofSpec, z: SuspensionPoint) -> float:
    """min(r(x) - y, y + r(T^-1 x)): fiber distance to the singular edges."""
    below, here = fiber_edges(spec, z.base)
    return min(here.value - z.height, z.height + below.value)


# ---------------------------------------------------------------------------
# the blended norm
# ---------------------------------------------------------------------------


def rho_blend(spec: RoofSpec, params: MetricParams, z: SuspensionPoint) -> float:
    """Blend weight: 0 at the edges, exactly 1 at fiber distance >= delta."""
    d = edge_distance(spec, z)
    a, _ = kernels.smooth_step(d / params.delta)
    return 1.0 - a


def _active_shear(spec: RoofSpec, z: SuspensionPoint) -> tuple[float, float, bool]:
    """(shear entry s, edge distance d, top_active).

    The straightening shear is [[1, 0], [s, 1]] with s = -r'(x) when the top
    edge is nearest and s = +r'(T^-1 x) when the bottom edge is.
    """
    below, here = fiber_edges(spec, z.base)
    d_top = here.value - z.height
    d_bot = z.height + below.value
    if d_top <= d_bot:
        return -here.derivative, d_top, True
    return below.derivative, d_bot, False


def metric_form(spec: RoofSpec, params: MetricParams,
                z: SuspensionPoint) -> np.ndarray:
    """Gram matrix of the blended norm at z (identity off the edge zone)."""
    s, d, _ = _active_shear(spec, z)
    a, _ = kernels.smooth_step(d / params.delta)
    rho = 1.0 - a
    if rho == 1.0 or s == 0.0:
        return np.eye(2)
    # rho*I + (1-rho) * B^T B for B = [[1,0],[s,1]]
    return np.array([[rho + (1.0 - rho) * (1.0 + s * s), (1.0 - rho) * s],
                     [(1.0 - rho) * s, 1.0]])


def metric_norm(spec: RoofSpec, params: MetricParams, z: SuspensionPoint,
                v: TangentVec, kind: str = "delta") -> float:
    """Length of a tangent vector under the chosen norm."""
    if kind == "euclidean":
        return math.hypot(v.dx, v.dy)
    if kind != "delta":
        raise ConstraintViolationError(f"unknown norm kind {kind!r}")
    s, d, _ = _active_shear(spec, z)
    a, _ = kernels.smooth_step(d / params.delta)
    rho = 1.0 - a
    if rho == 1.0 or s == 0.0:
        return math.hypot(v.dx, v.dy)
    e2 = v.dx * v.dx + v.dy * v.dy
    sheared = s * v.dx + v.dy
    return math.sqrt(rho * e2 + (1.0 - rho) * (v.dx * v.dx + sheared * sheared))


def constant_C(spec: RoofSpec, z: SuspensionPoint) -> float:
    """Sandwich constant: C(z)^-1 ||v||_e <= ||v||_delta <= C(z) ||v||_e.

    Uses the roof derivative of the edge the point is nearest to.
    """
    s, _, _ = _active_shear(spec, z)
    return 2.0 + 2.0 * abs(s)


def in_K_delta(spec: RoofSpec, params: MetricParams, z: SuspensionPoint) -> bool:
    """The core region where the time-one differential is an isometry."""
    below, here = fiber_edges(spec, z.base)
    return (-below.value + params.delta < z.height
            < here.value - (1.0 + params.delta))


def beta_factor(spec: RoofSpec, params: MetricParams,
                z: SuspensionPoint) -> float:
    """One-step expansion bound: ||dphi||_delta <= beta(z) ||dphi||_e.

    Equals 1 on the core region.  Elsewhere it is C(z) times the larger of
    the two sandwich constants the image point can see: for a near-top
    point the image lies over x or Tx; for a near-bottom point (which
    cannot cross within unit time) it lies over x with either edge active,
    so the bottom (T^-1 x) and top (x) derivatives both enter.
    """
    if in_K_delta(spec, params, z):
        return 1.0
    below, here = fiber_edges(spec, z.base)
    d_top = here.value - z.height
    d_bot = z.height + below.value
    c_top = 2.0 + 2.0 * abs(here.derivative)
    c_bot = 2.0 + 2.0 * abs(below.derivative)
    if d_top <= d_bot:
        nxt = spec.iet.step(z.base)
        c_next = 2.0 + 2.0 * abs(spec.value(nxt).derivative)
        return c_top * max(c_top, c_next)
    return c_bot * max(c_bot, c_top)


# ---------------------------------------------------------------------------
# 2x2 operator norms (exact, via singular values / pencil eigenvalues)
# ---------------------------------------------------------------------------


def op_norm_euclidean(m: np.ndarray) -> float:
    """Largest singular value of a 2x2 matrix, closed form."""
    a, b, c, d = float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1])
    q = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = max(0.0, q * q - 4.0 * det * det)
    return math.sqrt(0.5 * (q + math.sqrt(disc)))


def op_norm_between(g_from: np.ndarray, m: np.ndarray,
                    g_to: np.ndarray) -> float:
    """sup ||Mv||_{g_to} / ||v||_{g_from} for SPD Gram matrices.

    The square is the largest root of det(M^T g_to M - lambda g_from) = 0.
    A ``g_from`` whose determinant rounds to 0.0 raises ConsistencyError.
    """
    a = m.T @ g_to @ m
    a11, a12, a22 = float(a[0, 0]), float(a[0, 1]), float(a[1, 1])
    b11, b12, b22 = float(g_from[0, 0]), float(g_from[0, 1]), float(g_from[1, 1])
    det_b = b11 * b22 - b12 * b12
    if det_b == 0.0:
        raise ConsistencyError(
            f"Gram matrix {[[b11, b12], [b12, b22]]} has determinant "
            "0.0 in floating point, so the operator norm is undefined")
    det_a = a11 * a22 - a12 * a12
    p = a11 * b22 + a22 * b11 - 2.0 * a12 * b12
    disc = max(0.0, p * p - 4.0 * det_b * det_a)
    lam = (p + math.sqrt(disc)) / (2.0 * det_b)
    return math.sqrt(max(0.0, lam))
