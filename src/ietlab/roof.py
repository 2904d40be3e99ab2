"""Roof functions with logarithmic spikes and their integral certificates.

Over each base interval of length ``l`` the roof splits at b/2, b, l-b,
l-b/2 into five pieces: log spikes ``1 - log(u/b)`` at both ends, smooth
blend pieces driven by the bump step, and a flat middle at height 1.  The
blend half-width ``b`` must satisfy 0 < b < l/2; widths are assigned per
interval by a policy, together with a summability certificate for
-sum b_i log b_i (the hypothesis behind every integrability claim here).

Evaluation near a breakpoint is refused inside a relative exclusion band:
the roof genuinely diverges there and float evaluation would be noise.
The raw evaluator (no band) exists for divergence diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .errors import ConstraintViolationError, LabError, SingularityProximityError
from .iet import CountableIET, FiberPoint, partition_entropy
from .libm import elementwise

#: Relative half-width of the refusal zone around each breakpoint.
EXCLUSION_BAND = 1e-12


class RoofValue(NamedTuple):
    """(value, derivative, tag) with tag in 1..5 (pieces I1..I5)."""

    value: float
    derivative: float
    tag: int


@lru_cache(maxsize=1)
def bump_sup_derivative() -> float:
    """sup |alpha'| over (0, 1), via dense grid search plus local refinement.

    The symmetric exp(-1/t) step attains it at t = 1/2 with value 2; the
    search does not assume that.
    """
    from . import lanes
    # every thousandth point of the grid i / 10^6, 0 < i < 10^6
    grid = np.arange(1, 1_000_000, 1000) * (1.0 / 1_000_000)
    coarse = grid[int(np.argmax(np.abs(lanes._smooth_step(grid)[1])))]
    lo, hi = coarse - 2e-3, coarse + 2e-3

    def neg_abs(t: float) -> float:
        return -abs(kernels.smooth_step(t)[1])

    # golden-section refinement
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = neg_abs(c), neg_abs(d)
    while b - a > 1e-13:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = neg_abs(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = neg_abs(d)
    return abs(kernels.smooth_step(0.5 * (a + b))[1])


# ---------------------------------------------------------------------------
# blend-width policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefaultPolicy:
    """b_i = min(l_i / 4, c * rho^i): summable with a geometric certificate."""

    c: float = 0.125
    rho: float = 0.5

    def width(self, length: float, i: int) -> float:
        return min(0.25 * length, self.c * self.rho ** i)

    def tail_width_sum(self, iet: CountableIET, start: int, tail_l: float) -> float:
        return self.c * self.rho ** start / (1.0 - self.rho)

    def tail_blog_bound(self, iet: CountableIET, start: int) -> tuple[float, str]:
        # -b log b <= -(c rho^i) log(c rho^i) for b <= c rho^i < 1/e
        c, rho = self.c, self.rho
        geo = rho ** start / (1.0 - rho)
        lin = rho ** start * (start * (1.0 - rho) + rho) / (1.0 - rho) ** 2
        bound = c * (math.log(1.0 / c) * geo + math.log(1.0 / rho) * lin)
        return bound, "CONVERGENT"


@dataclass(frozen=True)
class ProportionalPolicy:
    """b_i = kappa * l_i (diagnostic: summability inherits from the lengths)."""

    kappa: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.kappa < 0.5:
            raise ConstraintViolationError("kappa must lie in (0, 1/2)")

    def width(self, length: float, i: int) -> float:
        return self.kappa * length

    def tail_width_sum(self, iet: CountableIET, start: int, tail_l: float) -> float:
        return self.kappa * tail_l

    def tail_blog_bound(self, iet: CountableIET, start: int) -> tuple[float, str]:
        # -sum kappa l log(kappa l) converges iff -sum l log l does
        ent = partition_entropy(iet)
        if ent.status != "CONVERGENT":
            return math.inf, ent.status
        k = self.kappa
        head = 0.0
        for i in range(start):
            head += -iet.length(i) * math.log(iet.length(i))
        tail_entropy = max(0.0, ent.value - head)
        tail_l = max(0.0, 1.0 - iet.right(start - 1)) if start else 1.0
        return k * tail_entropy + k * math.log(1.0 / k) * tail_l, "CONVERGENT"


@dataclass(frozen=True)
class ExplicitPolicy:
    """User-supplied widths for the truncated range; no tail certificate."""

    values: tuple

    def width(self, length: float, i: int) -> float:
        if i >= len(self.values):
            raise ConstraintViolationError(
                f"explicit width list has no entry for interval {i}")
        return float(self.values[i])

    def tail_width_sum(self, iet: CountableIET, start: int, tail_l: float) -> float:
        return 0.5 * tail_l

    def tail_blog_bound(self, iet: CountableIET, start: int) -> tuple[float, str]:
        return math.inf, "UNKNOWN"


def _underflowing_width(policy, length: float, i: int) -> str | None:
    """The policy's width formula at interval ``i`` if it underflows to 0."""
    if isinstance(policy, DefaultPolicy) and policy.c * policy.rho ** i == 0.0:
        return f"c*rho^i = {policy.c!r}*{policy.rho!r}^{i}"
    if isinstance(policy, ProportionalPolicy) and policy.kappa * length == 0.0:
        return f"kappa*l = {policy.kappa!r}*{length!r}"
    return None


@dataclass
class SummabilityReport:
    """Certificate for -sum b_i log b_i: partial sum, tail bound, verdict."""

    partial_sum: float
    tail_bound: float
    verdict: str


# ---------------------------------------------------------------------------
# the roof itself
# ---------------------------------------------------------------------------


class RoofSpec:
    """Immutable roof over a truncated base map.

    Use ``build`` (policy-driven, with the summability certificate) rather
    than the raw constructor.  The interval lengths are the map's own,
    ``iet.length(i)`` for each truncated interval.
    """

    __slots__ = ("iet", "widths", "lengths", "band",
                 "tail_width_sum", "summability")

    def __init__(self, iet: CountableIET, widths: np.ndarray, band: float,
                 tail_width_sum: float, summability: SummabilityReport):
        self.iet = iet
        self.widths = np.ascontiguousarray(widths, dtype=np.float64)
        self.lengths = np.array([iet.length(i) for i in range(iet.n_trunc)])
        if not self.widths.shape == self.lengths.shape:
            raise ConstraintViolationError("one width per truncated interval")
        bad = (self.widths <= 0.0) | (self.widths >= 0.5 * self.lengths)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConstraintViolationError(
                f"width {float(self.widths[i])!r} violates 0 < b < l/2 = "
                f"{float(0.5 * self.lengths[i])!r} on interval {i}")
        self.band = float(band)
        self.tail_width_sum = float(tail_width_sum)
        self.summability = summability

    @classmethod
    def build(cls, iet: CountableIET, policy=None,
              band: float = EXCLUSION_BAND) -> "RoofSpec":
        policy = policy if policy is not None else DefaultPolicy()
        n = iet.n_trunc
        widths = []
        # interval by interval, so that a deep truncation fails at its
        # first bad width instead of after computing all of them
        for i in range(n):
            l = iet.length(i)
            b = policy.width(l, i)
            if b <= 0.0 or b >= 0.5 * l:
                formula = _underflowing_width(policy, l, i)
                if formula:
                    raise ConstraintViolationError(
                        f"policy width {formula} underflows to 0.0 on "
                        f"interval {i}; the largest usable n_trunc is {i}")
                raise ConstraintViolationError(
                    f"policy width {b!r} violates 0 < b < l/2 on interval {i}")
            widths.append(b)
        widths = np.array(widths)
        partial = float(np.sum(-widths * elementwise(math.log, widths)))
        tail_l = max(0.0, 1.0 - iet.right(n - 1))
        tail_bound, verdict = policy.tail_blog_bound(iet, n)
        report = SummabilityReport(partial, tail_bound, verdict)
        tws = policy.tail_width_sum(iet, n, tail_l)
        return cls(iet, widths, band, tws, report)

    def pack(self):
        """Positional arguments shared by the roof-aware kernels."""
        return (self.lengths, self.widths, self.band)

    def in_band(self, p: FiberPoint) -> bool:
        return kernels.in_band(p.offset, self.lengths[p.index], self.band)

    def value(self, p: FiberPoint) -> RoofValue:
        """Roof value, analytic derivative and piece tag at a fiber point."""
        if self.in_band(p):
            raise SingularityProximityError(
                f"offset {p.offset!r} within exclusion band of interval {p.index}")
        return self.value_raw(p)

    def value_raw(self, p: FiberPoint) -> RoofValue:
        """Band-free evaluation; for divergence diagnostics, not orbits."""
        r, dr, tag = kernels.roof_eval(
            p.offset, self.widths[p.index], self.lengths[p.index])
        return RoofValue(float(r), float(dr), int(tag))

    def __repr__(self) -> str:
        return f"RoofSpec({self.iet.name}, band={self.band!r})"


def choose_b_and_check(iet: CountableIET,
                       policy=None) -> tuple[RoofSpec, SummabilityReport]:
    """Assign blend widths by policy and certify -sum b log b.

    Raises ``ConstraintViolationError`` when the policy breaks 0 < b < l/2.
    """
    spec = RoofSpec.build(iet, policy)
    return spec, spec.summability


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------
#
# Both rules take all blend pieces of a spec at once: each round of nodes
# goes through one call of the lane roof evaluator.  A piece's result has
# the bits of the rule applied to that piece alone, one node at a time:
# the nodes are the same floats, and every sum is taken in the order the
# one-piece loop takes it, left to right from 0.0 (``_in_order``).

#: Most nodes expanded in one round of ``adaptive_simpson``.
SIMPSON_ROUND = 4096
#: Deepest refinement of ``adaptive_simpson``.
SIMPSON_MAX_DEPTH = 48


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Each row of ``terms`` summed left to right from 0.0, as a loop adds."""
    zero = np.zeros((terms.shape[0], 1))
    return np.add.accumulate(np.hstack((zero, terms)), axis=1)[:, -1]


def _simpson(x0, x2, f0, f1, f2):
    return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0


def adaptive_simpson(f: Callable, a: np.ndarray, b: np.ndarray,
                     tol: float = 1e-12) -> np.ndarray:
    """Adaptive Simpson on each piece [a[k], b[k]]; ``f(x, k)`` evaluates
    the integrand of the pieces ``k`` at the points ``x``.

    Per piece, this is the rule that refines a node [x0, x2] with estimate
    ``est`` and tolerance ``eps`` until ``err = left + right - est`` has
    |err| <= 15 eps, halving eps at each depth, and then adds the leaf's
    ``left + right + err / 15``.  Run depth first with a stack, right half
    first, that loop adds each piece's leaves in descending x0; here the
    nodes of all pieces are expanded breadth first, in rounds of at most
    ``SIMPSON_ROUND``, and each piece's leaves are added in that same
    order.  A leaf at ``SIMPSON_MAX_DEPTH`` that misses its tolerance
    stalls the quadrature, and the error names the one the stack would
    reach first: in the first piece that stalls, the one with the largest
    x0.
    """
    pieces = np.arange(a.shape[0])
    m = 0.5 * (a + b)
    fa, fm, fb = np.split(f(np.concatenate((a, m, b)), np.tile(pieces, 3)), 3)
    # each round's nodes are in the stack's order: by piece, and within a
    # piece right before left, so the first round pushed is popped first
    stack = [(0, (pieces, a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb),
                  np.full(a.shape[0], tol)))]
    leaves = []
    while stack:
        depth, (k, x0, x2, f0, f1, f2, est, eps) = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        fl, fr = np.split(f(np.concatenate((lm, rm)), np.tile(k, 2)), 2)
        left = _simpson(x0, xm, f0, fl, f1)
        right = _simpson(xm, x2, f1, fr, f2)
        err = left + right - est
        if depth >= SIMPSON_MAX_DEPTH:
            stalled = np.abs(err) > 15.0 * eps
            if stalled.any():
                j = int(np.argmax(stalled))
                raise LabError(
                    f"adaptive quadrature stalled on [{float(x0[j])}, "
                    f"{float(x2[j])}] (err {float(err[j]):g})")
            leaf = np.ones(k.shape[0], dtype=bool)
        else:
            leaf = np.abs(err) <= 15.0 * eps
        leaves.append((k[leaf], x0[leaf], (left + right + err / 15.0)[leaf]))
        split = ~leaf
        if split.any():
            halves = [np.column_stack(pair)[split].ravel() for pair in (
                (k, k), (xm, x0), (x2, xm), (f1, f0), (fr, fl), (f2, f1),
                (right, left), (0.5 * eps, 0.5 * eps))]
            count = halves[0].shape[0]
            for lo in reversed(range(0, count, SIMPSON_ROUND)):
                stack.append((depth + 1, [h[lo:lo + SIMPSON_ROUND]
                                          for h in halves]))
    k, x0, c = (np.concatenate(col) for col in zip(*leaves))
    order = np.lexsort((-x0, k))
    k, c = k[order], c[order]
    per_piece = np.bincount(k, minlength=a.shape[0])
    table = np.zeros((a.shape[0], int(per_piece.max())))
    table[k, np.arange(k.shape[0]) - (np.cumsum(per_piece) - per_piece)[k]] = c
    return _in_order(table)


@lru_cache(maxsize=8)
def _gl_nodes(n: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(f: Callable, a: np.ndarray, b: np.ndarray,
                   n: int = 64) -> np.ndarray:
    """Fixed-order Gauss-Legendre rule on each piece [a[k], b[k]]; ``f`` as
    in ``adaptive_simpson``.  The n weighted values are added in node
    order."""
    x, w = _gl_nodes(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * x
    values = f(nodes.ravel(), np.repeat(np.arange(a.shape[0]), n))
    return half * _in_order(w * values.reshape(a.shape[0], n))


def _blend_integrals(spec: RoofSpec, n: int, derivative: bool, scheme: str,
                     tol: float) -> np.ndarray:
    """Integrals over the two blend pieces of each of the first ``n``
    intervals, shape (n, 2): of the roof, or of log(1 + |r'|)."""
    if scheme not in ("simpson", "gauss"):
        raise ConstraintViolationError(f"unknown quadrature scheme {scheme!r}")
    from . import lanes
    b = spec.widths[:n]
    l = spec.lengths[:n]
    half = 0.5 * b
    lo = np.column_stack((half, l - b)).ravel()
    hi = np.column_stack((b, l - half)).ravel()
    bs, ls = np.repeat(b, 2), np.repeat(l, 2)

    def f(u, k):
        r, dr = lanes.roof_eval(u, bs[k], ls[k], value=not derivative)
        return elementwise(math.log1p, np.abs(dr)) if derivative else r

    if scheme == "simpson":
        return adaptive_simpson(f, lo, hi, tol).reshape(n, 2)
    return gauss_legendre(f, lo, hi).reshape(n, 2)


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


@dataclass
class RoofIntegral:
    """Truncated integral, mass beyond truncation, quadrature error budget."""

    value: float
    tail_bound: float
    quad_error: float

    @property
    def error_bound(self) -> float:
        return self.tail_bound + self.quad_error


def roof_integral(spec: RoofSpec, n_terms: int | None = None,
                  quad_tol: float = 1e-12, scheme: str = "simpson") -> RoofIntegral:
    """Integral of the roof over the base, piece by piece.

    Spike pieces in closed form (each pair contributes b(2 + log 2)), flat
    middles exactly, blend pieces by quadrature.  The tail beyond the
    truncation is bounded by sum (l_i + 4 b_i), using the policy's width
    tail.
    """
    iet = spec.iet
    n = iet.n_trunc if n_terms is None else min(n_terms, iet.n_trunc)
    tail_l = max(0.0, 1.0 - iet.right(n - 1))
    b = spec.widths[:n]
    l = spec.lengths[:n]
    closed = b * (2.0 + math.log(2.0)) + (l - 2.0 * b)
    blends = _blend_integrals(spec, n, False, scheme, quad_tol)
    total = _in_order(np.column_stack((closed, blends)).reshape(1, -1))[0]
    quad_err = _in_order(np.full((1, n), 2.0 * quad_tol))[0]
    tail = tail_l + 4.0 * spec.tail_width_sum
    return RoofIntegral(float(total), float(tail), float(quad_err))


def log_derivative_integral(spec: RoofSpec, n_terms: int | None = None,
                            quad_tol: float = 1e-12,
                            scheme: str = "simpson") -> tuple[float, float]:
    """Integral of log(1 + |r'|) over the base, with its analytic majorant.

    Spike pieces have the exact primitive u log(1 + 1/u) + log(1 + u);
    blends are integrated numerically.  Returns (value, bound) where bound
    is 3 + log(2C) - sum b_i log b_i (partial sum plus the policy's tail
    certificate); the computed value must stay below it.
    """
    iet = spec.iet
    n = iet.n_trunc if n_terms is None else min(n_terms, iet.n_trunc)
    cap = bump_sup_derivative()
    bound = 3.0 + math.log(2.0 * cap) + spec.summability.partial_sum \
        + spec.summability.tail_bound
    b = spec.widths[:n]
    half = 0.5 * b
    spike = half * elementwise(math.log1p, 2.0 / b) \
        + elementwise(math.log1p, half)
    blends = _blend_integrals(spec, n, True, scheme, quad_tol)
    total = _in_order(np.column_stack((2.0 * spike, blends)).reshape(1, -1))[0]
    return float(total), float(bound)
