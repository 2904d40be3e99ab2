"""The suspension geometry on numpy lanes, its one implementation.

The blended norm, its Gram matrix, the sandwich constant C, the expansion
factor beta and the 2x2 operator norms are written here once, for arrays
of points; ``geometry``'s functions of one point are one-lane calls.
``lab check`` draws its points with ``sandwich_draws``, ``beta_draws`` and
``cocycle_tries`` and evaluates them all at once, and ``lab lyapunov``
takes C at every start and checkpoint endpoint of a round in one call.
Points travel as ``Points``, three arrays, and cocycles as ``Cocycles``.
The functions that read the roof at both fiber edges take them as
``fibers``, ``fiber_edges``' result, where a check evaluates several of
them at the same points, so that each edge is evaluated once;
``image_fiber_edges`` takes them over to the images whose base point did
not move.

Each lane gives the formula's floats on Python floats bit for bit: only
the operations ``lanes`` vectorises are used, plus sqrt and the stacked
2x2 ``matmul``.  Where points are refused, the first refused lane raises
its error, through ``RoofSpec.value`` and the base steps at that point, as
a loop over the points in order would.  The module is separate from
``lanes`` so that commands without geometry do not compile it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, ConstraintViolationError
from .flow import Cocycle2x2
from .geometry import MAX_GLUE, SuspensionPoint
from .iet import FiberPoint
from .kernels import OK, SINGULARITY
from .libm import elementwise
from .lanes import (
    _in_band,
    _smooth_step,
    canonicalize_k,
    iet_step,
    iet_step_inv,
    locate,
    lyap_orbits,
    roof_eval,
)


class Points(NamedTuple):
    """Points of the suspension space on lanes, in canonical coordinates."""

    idx: np.ndarray
    off: np.ndarray
    hei: np.ndarray

    def take(self, lanes) -> "Points":
        return Points(self.idx[lanes], self.off[lanes], self.hei[lanes])

    def point(self, k: int) -> SuspensionPoint:
        return SuspensionPoint(FiberPoint(int(self.idx[k]),
                                          float(self.off[k])),
                               float(self.hei[k]))


def _roof_value(spec, i, u):
    """``RoofSpec.value`` on lanes: arrays ``(r, dr, refused)``, refused
    in the exclusion band, where the scalar version raises."""
    lengths, bs, band = spec.pack()
    l = lengths[i]
    return (*roof_eval(u, bs[i], l), _in_band(u, l, band))


def fiber_edges(spec, idx, off, check: bool = True, here=None):
    """``((r_below, dr_below, r_here, dr_here), refused)``: the roof at
    T^-1 x and at x, so that the fiber over x is [-r_below, r_here), and
    the lanes where the backward step or a roof is refused, the first of
    which raises if ``check``.  ``here`` is the roof at x as
    ``_roof_value`` gives it, where the caller has it already."""
    j, v, st = iet_step_inv(spec.iet.pack(), idx, off)
    stepped = st == OK
    j, v = np.where(stepped, j, idx), np.where(stepped, v, off)
    r_below, dr_below, below_refused = _roof_value(spec, j, v)
    r_here, dr_here, here_refused = (_roof_value(spec, idx, off)
                                     if here is None else here)
    refused = ~stepped | below_refused | here_refused
    if check and refused.any():
        k = int(np.argmax(refused))
        base = FiberPoint(int(idx[k]), float(off[k]))
        spec.value(spec.iet.step_back(base))
        spec.value(base)
    return (r_below, dr_below, r_here, dr_here), refused


def image_fiber_edges(spec, z: Points, fibers, image: Points):
    """``fiber_edges`` at ``image`` with ``check``, given ``fibers``, that
    result at ``z`` with ``check``.  A lane whose base point ``image``
    keeps has its edges in ``fibers`` and is not refused, so only the lanes
    whose base point moved are evaluated, and the first of them that is
    refused raises, as it would among all lanes."""
    moved = np.flatnonzero((image.idx != z.idx) | (image.off != z.off))
    new_edges, new_refused = fiber_edges(spec, image.idx[moved],
                                         image.off[moved])
    edges = tuple(a.copy() for a in fibers[0])
    for whole, part in zip(edges, new_edges):
        whole[moved] = part
    refused = fibers[1].copy()
    refused[moved] = new_refused
    return edges, refused


def _fibers(spec, z: Points, fibers, check: bool = True):
    """``fibers``, the result of ``fiber_edges`` at ``z`` with ``check``
    that a caller has already, or else that result evaluated now."""
    return fiber_edges(spec, z.idx, z.off, check) if fibers is None else fibers


def _shear(spec, z: Points, check: bool = True, fibers=None):
    """``(s, d, refused)``: the straightening shear [[1, 0], [s, 1]] in
    force, s = -r'(x) where the top edge is nearest and s = +r'(T^-1 x)
    where the bottom edge is, the fiber distance d to that edge, and the
    refused lanes of ``fiber_edges``."""
    (r_below, dr_below, r_here, dr_here), refused = _fibers(spec, z, fibers,
                                                            check)
    d_top = r_here - z.hei
    d_bot = z.hei + r_below
    top = d_top <= d_bot
    return (np.where(top, -dr_here, dr_below), np.where(top, d_top, d_bot),
            refused)


def _blend(params, d):
    """The blend weight rho at fiber distance d."""
    return 1.0 - _smooth_step(d / params.delta)[0]


def metric_form(spec, params, z: Points, fibers=None):
    """Gram matrices of the blended norm, shape (n, 2, 2): rho I + (1 - rho)
    B^T B for the shear B, the identity off the edge zone."""
    s, d, _ = _shear(spec, z, fibers=fibers)
    rho = _blend(params, d)
    g = np.empty((s.shape[0], 2, 2))
    g[:, 0, 0] = rho + (1.0 - rho) * (1.0 + s * s)
    g[:, 0, 1] = g[:, 1, 0] = (1.0 - rho) * s
    g[:, 1, 1] = 1.0
    g[(rho == 1.0) | (s == 0.0)] = np.eye(2)
    return g


def metric_norm(spec, params, z: Points, dx, dy, kind: str = "delta",
                fibers=None, euclidean=None):
    """Lengths of the tangent vectors ``(dx, dy)`` under ``kind``'s norm.
    ``euclidean`` is their Euclidean lengths, where the caller has them
    already."""
    if euclidean is None:
        euclidean = elementwise(math.hypot, dx, dy)
    if kind == "euclidean":
        return euclidean
    if kind != "delta":
        raise ConstraintViolationError(f"unknown norm kind {kind!r}")
    s, d, _ = _shear(spec, z, fibers=fibers)
    rho = _blend(params, d)
    e2 = dx * dx + dy * dy
    sheared = s * dx + dy
    delta = np.sqrt(rho * e2 + (1.0 - rho) * (dx * dx + sheared * sheared))
    return np.where((rho == 1.0) | (s == 0.0), euclidean, delta)


def sandwich_constants(spec, z: Points):
    """``(C, refused)``: ``constant_C`` of every lane, without raising for
    the lanes whose fiber edges are refused; their C is not a value."""
    s, _, refused = _shear(spec, z, check=False)
    return 2.0 + 2.0 * np.abs(s), refused


def constant_C(spec, z: Points, fibers=None):
    """Sandwich constants, C(z)^-1 ||v||_e <= ||v||_delta <= C(z) ||v||_e,
    from the roof derivative of the edge each point is nearest to."""
    return 2.0 + 2.0 * np.abs(_shear(spec, z, fibers=fibers)[0])


def _max(a, b):
    """Python's ``max(a, b)``: ``b`` where ``b > a``, else ``a``."""
    return np.where(b > a, b, a)


def beta_factor(spec, params, z: Points, fibers=None):
    """One-step expansion bounds: ||dphi||_delta <= beta(z) ||dphi||_e.

    1 on the core, -r(T^-1 x) + delta < y < r(x) - (1 + delta); elsewhere
    C(z) times the larger sandwich constant the image can see: over x or
    Tx near the top, over x with either edge active near the bottom.  The
    first lane whose edges, or Tx or the roof there, are refused raises.
    """
    (r_below, dr_below, r_here, dr_here), bad = _fibers(spec, z, fibers,
                                                        check=False)
    y = z.hei
    core = (-r_below + params.delta < y) & (y < r_here - (1.0 + params.delta))
    c_top = 2.0 + 2.0 * np.abs(dr_here)
    c_bot = 2.0 + 2.0 * np.abs(dr_below)
    top = ~core & (r_here - y <= y + r_below)
    at = np.flatnonzero(top)
    j, v, st = iet_step(spec.iet.pack(), z.idx[at], z.off[at])
    stepped = st == OK
    j, v = np.where(stepped, j, z.idx[at]), np.where(stepped, v, z.off[at])
    _, dr_next, refused = _roof_value(spec, j, v)
    bad = bad.copy()
    bad[at] |= ~stepped | refused
    if bad.any():  # the edges' error first, then that of the step to Tx
        k = int(np.argmax(bad))
        fiber_edges(spec, z.idx[k:k + 1], z.off[k:k + 1])
        spec.value(spec.iet.step(z.point(k).base))
    c_next = 2.0 + 2.0 * np.abs(dr_next)
    beta = np.where(core, 1.0, c_bot * _max(c_bot, c_top))
    beta[at] = c_top[at] * _max(c_top[at], c_next)
    return beta


def jacobian_step(spec, z: Points, here=None):
    """``flow.jacobian_step`` on lanes: ``(matrices (n, 2, 2), status)``,
    SINGULARITY where the roof at the point is refused.  ``here`` is that
    roof as ``_roof_value`` gives it, where the caller has it already."""
    r, dr, refused = _roof_value(spec, z.idx, z.off) if here is None else here
    return (shears(np.where(z.hei + 1.0 < r, 0.0, -2.0 * dr)),
            np.where(refused, SINGULARITY, OK))


def shears(m21):
    """The matrices (1, 0; m21, 1), shape (n, 2, 2), for an array m21."""
    m = np.zeros((m21.shape[0], 2, 2))
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    m[:, 1, 0] = m21
    return m


def flow(spec, z: Points, t):
    """``flow.flow`` on lanes, by a time ``t`` or by a time per lane:
    ``(points, status)``."""
    if not np.isfinite(t).all():
        raise ConstraintViolationError("flow time must be finite")
    i, u, y, status = canonicalize_k(spec.iet.pack(), spec.pack(), z.idx,
                                     z.off, z.hei + t, MAX_GLUE)
    return Points(i, u, y), status


def _nonnegative(x):
    """Python's ``max(0.0, x)``: 0.0 unless x > 0.0, so NaN gives 0.0."""
    return np.where(x > 0.0, x, 0.0)


def op_norm_euclidean(m):
    """Largest singular value of each matrix in ``m`` (n, 2, 2), closed form."""
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    q = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = _nonnegative(q * q - 4.0 * det * det)
    return np.sqrt(0.5 * (q + np.sqrt(disc)))


def op_norm_between(g_from, m, g_to):
    """sup ||Mv||_{g_to} / ||v||_{g_from} for stacks of 2x2 matrices, the
    Gram matrices SPD.

    The square is the largest root of det(M^T g_to M - lambda g_from) = 0.
    ``M^T g_to M`` is one stacked matmul, which rounds as 2-D products of
    each matrix do; written out by components it would not.  The first
    ``g_from`` whose determinant rounds to 0.0 raises ConsistencyError.
    """
    a = np.matmul(np.matmul(m.transpose(0, 2, 1), g_to), m)
    a11, a12, a22 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    b11, b12, b22 = g_from[:, 0, 0], g_from[:, 0, 1], g_from[:, 1, 1]
    det_b = b11 * b22 - b12 * b12
    if (det_b == 0.0).any():
        k = int(np.argmax(det_b == 0.0))
        g = [[float(b11[k]), float(b12[k])], [float(b12[k]), float(b22[k])]]
        raise ConsistencyError(
            f"Gram matrix {g} has determinant 0.0 in floating point, so the "
            "operator norm is undefined")
    det_a = a11 * a22 - a12 * a12
    p = a11 * b22 + a22 * b11 - 2.0 * a12 * b12
    disc = _nonnegative(p * p - 4.0 * det_b * det_a)
    lam = (p + np.sqrt(disc)) / (2.0 * det_b)
    return np.sqrt(_nonnegative(lam))


class Cocycles(NamedTuple):
    """Cocycles of lanes, ``flow.Cocycle2x2`` field by field."""

    m21: np.ndarray
    crossings: np.ndarray

    def at(self, k: int) -> Cocycle2x2:
        return Cocycle2x2(float(self.m21[k]), int(self.crossings[k]))


def cocycles(spec, z: Points, *steps):
    """``flow.cocycle`` of each lane after each of its step counts.

    ``steps`` holds arrays of step counts, one count per lane each.  All
    are read from one ``lyap_orbits`` run with a checkpoint at every count
    that occurs.  Returns a list of ``(Cocycles, fails)``, one per array,
    with ``fails`` where the scalar version raises: the lane failed before
    that step count.
    """
    cps, col = np.unique(np.concatenate(steps), return_inverse=True)
    col = col.reshape(len(steps), -1)
    count = z.idx.shape[0]
    shape = (count, cps.shape[0])
    m21, u, y = (np.empty(shape) for _ in range(3))
    k, i = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int64)
    fail = np.empty(count, dtype=np.int64)
    status = np.empty(count, dtype=np.int64)
    lyap_orbits(spec.iet.pack(), spec.pack(), z.idx, z.off, z.hei, cps,
                m21, k, i, u, y, fail, status)
    lane = np.arange(count)
    return [(Cocycles(m21[lane, at], k[lane, at]),
             (status != OK) & (fail < n)) for at, n in zip(col, steps)]


# ---------------------------------------------------------------------------
# random canonical points of the check suite
# ---------------------------------------------------------------------------
#
# The checks draw their random canonical points in rounds of k tries, one
# per point still wanted: x = random(k), then y = random(k).  A try whose x
# locates and whose (x, -2 + 4y) canonicalizes gives a point; the rounds go
# on until the check has its points.


def _canonical_draws(spec, rng, k: int) -> Points:
    """The points of a round of ``k`` tries, in draw order."""
    x = rng.random(k)
    y = rng.random(k)
    base = spec.iet.pack()
    i, u, located = locate(base, x)
    at = np.flatnonzero(located == OK)
    i, u, y, status = canonicalize_k(base, spec.pack(), i[at], u[at],
                                     -2.0 + 4.0 * y[at], MAX_GLUE)
    return Points(i, u, y).take(status == OK)


def _joined(parts):
    """``parts``, arrays or tuples of them (nested), joined field by field."""
    first = parts[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    fields = [_joined(f) for f in zip(*parts)]
    return type(first)(*fields) if hasattr(first, "_fields") else fields


def sandwich_draws(spec, rng, count: int):
    """The sandwich check's points and tangent vectors ``(z, dx, dy)``:
    ``count`` points, then the vectors from one ``standard_normal`` call."""
    parts = []
    found = 0
    while found < count:
        parts.append(_canonical_draws(spec, rng, count - found))
        found += parts[-1].idx.shape[0]
    dx, dy = rng.standard_normal((2, count))
    return _joined(parts), dx, dy


class CocycleTries(NamedTuple):
    """The cocycle-algebra check's tries, skipped ones included."""

    z: Points
    n: np.ndarray
    m: np.ndarray
    skipped: np.ndarray
    whole: Cocycles  # n + m steps from z
    first: Cocycles  # n steps from z
    second: Cocycles  # m steps from the flow of z by n


def cocycle_tries(spec, rng, count: int) -> CocycleTries:
    """The cocycle-algebra check's tries, until ``count`` are not skipped.

    Each round draws the points of as many tries as are still wanted, then
    their step counts n = integers(2, 200) and m = integers(1, 100), one
    array each.  A try is skipped where one of its three cocycles, or the
    flow of z by n, fails; the cocycles of a skipped try are placeholders.
    """
    parts = []
    done = 0
    while done < count:
        z = _canonical_draws(spec, rng, count - done)
        k = z.idx.shape[0]
        n, m = rng.integers(2, 200, k), rng.integers(1, 100, k)
        (whole, broken), (first, _) = cocycles(spec, z, n + m, n)
        z_n, flowed = flow(spec, z, n)
        # a failed flow leaves a point inside the truncation, whose
        # cocycle is computed and not read
        (second, lost), = cocycles(spec, z_n, m)
        skipped = broken | (flowed != OK) | lost
        parts.append(CocycleTries(z, n, m, skipped, whole, first, second))
        done += k - int(np.count_nonzero(skipped))
    return _joined(parts)


def beta_draws(spec, rng, count: int):
    """The beta check's points, their time-one Jacobians and images, and
    the roof at the points (``_roof_value``'s three arrays), which the
    Jacobians read.

    Each round draws the points of as many tries as are still wanted; a
    point whose Jacobian or time-one image fails is skipped.
    """
    parts = []
    found = 0
    while found < count:
        z = _canonical_draws(spec, rng, count - found)
        here = _roof_value(spec, z.idx, z.off)
        jac, jac_status = jacobian_step(spec, z, here)
        z1, flow_status = flow(spec, z, 1.0)
        keep = np.flatnonzero((jac_status == OK) & (flow_status == OK))
        parts.append((z.take(keep), jac[keep], z1.take(keep),
                      tuple(a[keep] for a in here)))
        found += keep.shape[0]
    return tuple(_joined(parts))
