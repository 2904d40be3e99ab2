"""The suspension geometry on numpy lanes, for the check suite.

``lab check``'s metric-sandwich and beta-bound checks draw their points with
``sandwich_draws`` and ``beta_draws`` and evaluate them all at once with
the twins here of ``geometry.fiber_edges``, ``metric_form``,
``metric_norm``, ``constant_C``, ``beta_factor`` and the operator norms,
and of ``flow.jacobian_step`` and ``flow.flow``.  Both backends use them.
Points travel as ``Points``, three arrays.

Each lane gives the scalar function's floats bit for bit: the twins use
only the operations ``lanes`` vectorises, plus sqrt and the stacked 2x2
``matmul``.  Where a scalar function raises, its twin raises the error of
the first failing lane, by calling the scalar function on it.  The module
is separate from ``lanes`` so that commands without checks do not compile
it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ConstraintViolationError
from .geometry import SuspensionPoint
from .iet import FiberPoint
from .kernels import OK, SINGULARITY
from .lanes import (
    _in_band,
    _math,
    _smooth_step,
    canonicalize_k,
    iet_step,
    iet_step_inv,
    locate,
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


def _raise_first(bad, scalar) -> None:
    """``scalar(k)`` for the first lane k in ``bad``: the scalar function
    raises that lane's error, as a loop over the lanes in order would."""
    if bad.any():
        scalar(int(np.argmax(bad)))


def _roof_value(spec, i, u):
    """``RoofSpec.value`` on lanes: arrays ``(r, dr, refused)``, refused
    in the exclusion band, where the scalar version raises."""
    lengths, bs, flat, band = spec.pack()
    l = lengths[i]
    return (*roof_eval(u, bs[i], l, flat), _in_band(u, l, band))


def fiber_edges(spec, idx, off):
    """``geometry.fiber_edges`` on lanes: arrays ``(r_below, dr_below,
    r_here, dr_here)``, the roof at T^-1 x and at x."""
    j, v, st = iet_step_inv(spec.iet.pack(), idx, off)
    stepped = st == OK
    j, v = np.where(stepped, j, idx), np.where(stepped, v, off)
    r_below, dr_below, below_refused = _roof_value(spec, j, v)
    r_here, dr_here, here_refused = _roof_value(spec, idx, off)
    _raise_first(~stepped | below_refused | here_refused,
                 lambda k: geometry.fiber_edges(
                     spec, FiberPoint(int(idx[k]), float(off[k]))))
    return r_below, dr_below, r_here, dr_here


def _active_shear(spec, z: Points):
    """``geometry._active_shear`` on lanes: arrays ``(s, d)``."""
    r_below, dr_below, r_here, dr_here = fiber_edges(spec, z.idx, z.off)
    d_top = r_here - z.hei
    d_bot = z.hei + r_below
    top = d_top <= d_bot
    return np.where(top, -dr_here, dr_below), np.where(top, d_top, d_bot)


def _blend(params, d):
    """The blend weight rho at fiber distance d."""
    return 1.0 - _smooth_step(d / params.delta)[0]


def metric_form(spec, params, z: Points):
    """``geometry.metric_form`` on lanes: Gram matrices, shape (n, 2, 2)."""
    s, d = _active_shear(spec, z)
    rho = _blend(params, d)
    g = np.empty((s.shape[0], 2, 2))
    g[:, 0, 0] = rho + (1.0 - rho) * (1.0 + s * s)
    g[:, 0, 1] = g[:, 1, 0] = (1.0 - rho) * s
    g[:, 1, 1] = 1.0
    g[(rho == 1.0) | (s == 0.0)] = np.eye(2)
    return g


def metric_norm(spec, params, z: Points, dx, dy, kind: str = "delta"):
    """``geometry.metric_norm`` on lanes, tangent vectors ``(dx, dy)``."""
    euclidean = _math(math.hypot, dx, dy)
    if kind == "euclidean":
        return euclidean
    if kind != "delta":
        raise ConstraintViolationError(f"unknown norm kind {kind!r}")
    s, d = _active_shear(spec, z)
    rho = _blend(params, d)
    e2 = dx * dx + dy * dy
    sheared = s * dx + dy
    delta = np.sqrt(rho * e2 + (1.0 - rho) * (dx * dx + sheared * sheared))
    return np.where((rho == 1.0) | (s == 0.0), euclidean, delta)


def constant_C(spec, z: Points):
    """``geometry.constant_C`` on lanes."""
    return 2.0 + 2.0 * np.abs(_active_shear(spec, z)[0])


def _max(a, b):
    """Python's ``max(a, b)``: ``b`` where ``b > a``, else ``a``."""
    return np.where(b > a, b, a)


def beta_factor(spec, params, z: Points):
    """``geometry.beta_factor`` on lanes.

    A near-top point outside the core sees the roof at Tx; where that step
    or that roof fails, the first such lane raises the scalar error.
    """
    r_below, dr_below, r_here, dr_here = fiber_edges(spec, z.idx, z.off)
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
    _raise_first(~stepped | refused,
                 lambda k: geometry.beta_factor(spec, params, z.point(at[k])))
    c_next = 2.0 + 2.0 * np.abs(dr_next)
    beta = np.where(core, 1.0, c_bot * _max(c_bot, c_top))
    beta[at] = c_top[at] * _max(c_top[at], c_next)
    return beta


def jacobian_step(spec, z: Points):
    """``flow.jacobian_step`` on lanes: ``(matrices (n, 2, 2), status)``,
    SINGULARITY where the roof at the point is refused."""
    r, dr, refused = _roof_value(spec, z.idx, z.off)
    m = np.zeros((r.shape[0], 2, 2))
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    m[:, 1, 0] = np.where(z.hei + 1.0 < r, 0.0, -2.0 * dr)
    return m, np.where(refused, SINGULARITY, OK)


def flow(spec, z: Points, t: float):
    """``flow.flow`` on lanes: ``(points, status)``."""
    if not math.isfinite(t):
        raise ConstraintViolationError("flow time must be finite")
    i, u, y, status = canonicalize_k(spec.iet.pack(), spec.pack(), z.idx,
                                     z.off, z.hei + t, geometry.MAX_GLUE)
    return Points(i, u, y), status


def _nonnegative(x):
    """Python's ``max(0.0, x)``: 0.0 unless x > 0.0, so NaN gives 0.0."""
    return np.where(x > 0.0, x, 0.0)


def op_norm_euclidean(m):
    """``geometry.op_norm_euclidean`` of each matrix in ``m`` (n, 2, 2)."""
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    q = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = _nonnegative(q * q - 4.0 * det * det)
    return np.sqrt(0.5 * (q + np.sqrt(disc)))


def op_norm_between(g_from, m, g_to):
    """``geometry.op_norm_between`` on stacks of 2x2 matrices.

    ``M^T g_to M`` is one stacked matmul, which rounds as the scalar
    version's 2-D products do; written out by components it would not.
    A ``g_from`` whose determinant rounds to 0.0 raises the scalar
    version's ConsistencyError, for the first such matrix.
    """
    a = np.matmul(np.matmul(m.transpose(0, 2, 1), g_to), m)
    a11, a12, a22 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    b11, b12, b22 = g_from[:, 0, 0], g_from[:, 0, 1], g_from[:, 1, 1]
    det_b = b11 * b22 - b12 * b12
    _raise_first(det_b == 0.0,
                 lambda k: geometry.op_norm_between(g_from[k], m[k], g_to[k]))
    det_a = a11 * a22 - a12 * a12
    p = a11 * b22 + a22 * b11 - 2.0 * a12 * b12
    disc = _nonnegative(p * p - 4.0 * det_b * det_a)
    lam = (p + np.sqrt(disc)) / (2.0 * det_b)
    return np.sqrt(_nonnegative(lam))


# ---------------------------------------------------------------------------
# random canonical points of the check suite
# ---------------------------------------------------------------------------
#
# ``cli._random_canonical`` draws x = random() and, if x locates, y =
# uniform(-2, 2), which is -2 + 4 random(); a point that does not locate or
# canonicalize is drawn again.  The draws below give its points bit for bit.


def _canonical_draws(spec, x, y):
    """``(points, fails, located)`` of the draws ``(x, y)``: where a draw
    fails, its point is a placeholder."""
    base = spec.iet.pack()
    i, u, located = locate(base, x)
    located = located == OK
    at = np.flatnonzero(located)
    i, u, y, status = canonicalize_k(base, spec.pack(), i[at], u[at],
                                     -2.0 + 4.0 * y[at], geometry.MAX_GLUE)
    z = Points(np.zeros(x.shape[0], dtype=np.int64), np.zeros(x.shape[0]),
               np.zeros(x.shape[0]))
    z.idx[at], z.off[at], z.hei[at] = i, u, y
    fails = np.ones(x.shape[0], dtype=bool)
    fails[at] = status != OK
    return z, fails, located


def _draw_ahead(rng, count: int) -> np.ndarray:
    """``count`` points' doubles x, y and two standard normals, as rows."""
    random, normal = rng.random, rng.standard_normal
    rows = [(random(), random(), normal(), normal()) for _ in range(count)]
    return np.array(rows).reshape(count, 4).T


def sandwich_draws(spec, rng, count: int):
    """The sandwich check's points and tangent vectors ``(z, dx, dy)``.

    Each point draws (x, y) and then its vector (normal(), normal()), which
    is ``0.0 + 1.0 * standard_normal()``, as ``Generator.normal`` computes
    it.  A normal takes a varying number of raw outputs, so the draws are
    a scalar loop that assumes no point fails.  At the first point that
    does, the generator is rewound to before it, the failed attempt is
    drawn again (x alone if it did not locate), and the drawing goes on.
    """
    bg = rng.bit_generator
    parts = []
    done = 0
    ahead = count  # points drawn at once: about twice the last good run
    while done < count:
        state = bg.state
        x, y, nx, ny = _draw_ahead(rng, min(ahead, count - done))
        z, fails, located = _canonical_draws(spec, x, y)
        good = int(np.argmax(fails)) if fails.any() else x.shape[0]
        parts.append((z.take(slice(good)), nx[:good], ny[:good]))
        done += good
        if good < x.shape[0]:
            bg.state = state
            _draw_ahead(rng, good)
            rng.random()
            if located[good]:
                rng.random()
        ahead = 2 * good + 16
    z = Points(*(np.concatenate([p[0][f] for p in parts]) for f in range(3)))
    dx, dy = (0.0 + 1.0 * np.concatenate([p[f] for p in parts])
              for f in (1, 2))
    return z, dx, dy


def _pair_starts(located):
    """Where the draws (x, y) start in a stream of random() doubles.

    An x that does not locate takes one double, and one that does takes
    two.  Returns the positions of the x's that locate and have their y in
    the stream, and the end of the last whole draw.
    """
    n = located.shape[0]
    starts = []
    p = 0
    while True:
        xs = np.arange(p, n - 1, 2)
        miss = np.flatnonzero(~located[xs])
        if not miss.size:
            starts.append(xs)
            return np.concatenate(starts), (int(xs[-1]) + 2 if xs.size else p)
        starts.append(xs[:miss[0]])
        p = int(xs[miss[0]]) + 1


def beta_draws(spec, rng, count: int):
    """The beta check's points, their time-one Jacobians and images.

    The doubles are drawn as arrays and read as the scalar draws would
    read them; a point whose Jacobian or time-one image fails is skipped.
    Doubles left over when ``count`` points are found go unused.
    """
    base = spec.iet.pack()
    parts = []
    found = 0
    rest = np.empty(0)
    while found < count:
        d = np.concatenate((rest, rng.random(2 * (count - found) + 2)))
        starts, end = _pair_starts(locate(base, d)[2] == OK)
        rest = d[end:]
        z, fails, _ = _canonical_draws(spec, d[starts], d[starts + 1])
        z = z.take(~fails)
        jac, jac_status = jacobian_step(spec, z)
        z1, flow_status = flow(spec, z, 1.0)
        keep = np.flatnonzero((jac_status == OK)
                              & (flow_status == OK))[:count - found]
        parts.append((z.take(keep), jac[keep], z1.take(keep)))
        found += keep.shape[0]
    z, z1 = (Points(*(np.concatenate([p[k][f] for p in parts])
                      for f in range(3))) for k in (0, 2))
    return z, np.concatenate([p[1] for p in parts]), z1
