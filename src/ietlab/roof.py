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
from typing import Callable

import numpy as np

from . import kernels
from .errors import ConstraintViolationError, LabError, SingularityProximityError
from .iet import CountableIET, FiberPoint, partition_entropy

#: Relative half-width of the refusal zone around each breakpoint.
EXCLUSION_BAND = 1e-12


class RoofValue(tuple):
    """(value, derivative, tag) with tag in 1..5 (pieces I1..I5)."""

    __slots__ = ()

    def __new__(cls, value: float, derivative: float, tag: int):
        return tuple.__new__(cls, (value, derivative, tag))

    @property
    def value(self) -> float:
        return self[0]

    @property
    def derivative(self) -> float:
        return self[1]

    @property
    def tag(self) -> int:
        return self[2]


def smooth_step_alpha(t: float) -> tuple[float, float]:
    """The C-infinity step: 1 on (-inf, 0], 0 on [1, inf), decreasing between.

    Returns (value, derivative), both analytic.
    """
    a, da = kernels.smooth_step(float(t))
    return float(a), float(da)


@lru_cache(maxsize=1)
def bump_sup_derivative() -> float:
    """sup |alpha'| over (0, 1), via dense grid search plus local refinement.

    The symmetric exp(-1/t) step attains it at t = 1/2 with value 2; the
    search does not assume that.
    """
    grid = np.linspace(0.0, 1.0, 1_000_001)[1:-1]
    vals = np.abs([kernels.smooth_step(t)[1] for t in grid[::1000]])
    coarse = grid[::1000][int(np.argmax(vals))]
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
        tail_entropy = max(0.0, ent.value - sum(
            -iet.length(i) * math.log(iet.length(i)) for i in range(start)))
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
    than the raw constructor.  ``flat=True`` replaces the roof by the
    constant 1 (diagnostic mode for homogeneity checks); widths are kept so
    the rest of the pipeline is unchanged.
    """

    __slots__ = ("iet", "widths", "lengths", "flat", "band",
                 "sup_alpha_prime", "tail_width_sum", "summability")

    def __init__(self, iet: CountableIET, lengths: np.ndarray,
                 widths: np.ndarray, flat: bool, band: float,
                 tail_width_sum: float, summability: SummabilityReport):
        self.iet = iet
        self.widths = np.ascontiguousarray(widths, dtype=np.float64)
        self.lengths = np.ascontiguousarray(lengths, dtype=np.float64)
        if not self.widths.shape == self.lengths.shape == (iet.n_trunc,):
            raise ConstraintViolationError("one width per truncated interval")
        bad = (self.widths <= 0.0) | (self.widths >= 0.5 * self.lengths)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConstraintViolationError(
                f"width {float(self.widths[i])!r} violates 0 < b < l/2 = "
                f"{float(0.5 * self.lengths[i])!r} on interval {i}")
        self.flat = bool(flat)
        self.band = float(band)
        self.sup_alpha_prime = bump_sup_derivative()
        self.tail_width_sum = float(tail_width_sum)
        self.summability = summability

    @classmethod
    def build(cls, iet: CountableIET, policy=None, flat: bool = False,
              band: float = EXCLUSION_BAND) -> "RoofSpec":
        policy = policy if policy is not None else DefaultPolicy()
        n = iet.n_trunc
        lengths, widths = [], []
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
            lengths.append(l)
            widths.append(b)
        lengths, widths = np.array(lengths), np.array(widths)
        partial = float(np.sum(-widths * np.log(widths)))
        tail_l = max(0.0, 1.0 - iet.right(n - 1))
        tail_bound, verdict = policy.tail_blog_bound(iet, n)
        report = SummabilityReport(partial, tail_bound, verdict)
        tws = policy.tail_width_sum(iet, n, tail_l)
        return cls(iet, lengths, widths, flat, band, tws, report)

    def pack(self):
        """Positional arguments shared by the roof-aware kernels."""
        return (self.lengths, self.widths, 1 if self.flat else 0, self.band)

    def in_band(self, p: FiberPoint) -> bool:
        l = self.lengths[p.index]
        return p.offset < self.band * l or p.offset > l - self.band * l

    def value(self, p: FiberPoint) -> RoofValue:
        """Roof value, analytic derivative and piece tag at a fiber point."""
        if self.in_band(p):
            raise SingularityProximityError(
                f"offset {p.offset!r} within exclusion band of interval {p.index}")
        return self.value_raw(p)

    def value_raw(self, p: FiberPoint) -> RoofValue:
        """Band-free evaluation; for divergence diagnostics, not orbits."""
        r, dr, tag = kernels.roof_eval(
            p.offset, self.widths[p.index], self.lengths[p.index],
            1 if self.flat else 0)
        return RoofValue(float(r), float(dr), int(tag))

    def __repr__(self) -> str:
        mode = "flat" if self.flat else "log-spiked"
        return f"RoofSpec({self.iet.name}, {mode}, band={self.band!r})"


def choose_b_and_check(iet: CountableIET, policy=None,
                       flat: bool = False) -> tuple[RoofSpec, SummabilityReport]:
    """Assign blend widths by policy and certify -sum b log b.

    Raises ``ConstraintViolationError`` when the policy breaks 0 < b < l/2.
    """
    spec = RoofSpec.build(iet, policy, flat=flat)
    return spec, spec.summability


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-12, max_depth: int = 48) -> float:
    """Adaptive Simpson with an explicit interval stack."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(a, b, fa, fm, fb)
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    total = 0.0
    while stack:
        x0, x2, f0, f1, f2, est, eps, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        fl = f(lm)
        fr = f(rm)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - est
        if abs(err) <= 15.0 * eps or depth >= max_depth:
            if depth >= max_depth and abs(err) > 15.0 * eps:
                raise LabError(
                    f"adaptive quadrature stalled on [{x0}, {x2}] (err {err:g})")
            total += left + right + err / 15.0
        else:
            stack.append((x0, xm, f0, fl, f1, left, 0.5 * eps, depth + 1))
            stack.append((xm, x2, f1, fr, f2, right, 0.5 * eps, depth + 1))
    return total


@lru_cache(maxsize=8)
def _gl_nodes(n: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(n)
    return tuple(x), tuple(w)


def gauss_legendre(f: Callable[[float], float], a: float, b: float,
                   n: int = 64) -> float:
    """Fixed-order Gauss-Legendre rule on [a, b]."""
    x, w = _gl_nodes(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))


def _blend_quadrature(f: Callable[[float], float], a: float, b: float,
                      scheme: str, tol: float) -> float:
    if scheme == "simpson":
        return adaptive_simpson(f, a, b, tol)
    if scheme == "gauss":
        return gauss_legendre(f, a, b)
    raise ConstraintViolationError(f"unknown quadrature scheme {scheme!r}")


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
    tail; for flat roofs the tail is exactly the missing length.
    """
    iet = spec.iet
    n = iet.n_trunc if n_terms is None else min(n_terms, iet.n_trunc)
    tail_l = max(0.0, 1.0 - iet.right(n - 1))
    if spec.flat:
        value = float(np.sum(spec.lengths[:n]))
        return RoofIntegral(value, tail_l, 0.0)

    total = 0.0
    quad_err = 0.0
    for i in range(n):
        l = float(spec.lengths[i])
        b = float(spec.widths[i])

        def rv(u: float, _b=b, _l=l) -> float:
            return kernels.roof_eval(u, _b, _l, 0)[0]

        total += b * (2.0 + math.log(2.0)) + (l - 2.0 * b)
        total += _blend_quadrature(rv, 0.5 * b, b, scheme, quad_tol)
        total += _blend_quadrature(rv, l - b, l - 0.5 * b, scheme, quad_tol)
        quad_err += 2.0 * quad_tol
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
    if spec.flat:
        return 0.0, bound

    total = 0.0
    for i in range(n):
        l = float(spec.lengths[i])
        b = float(spec.widths[i])

        def g(u: float, _b=b, _l=l) -> float:
            return math.log1p(abs(kernels.roof_eval(u, _b, _l, 0)[1]))

        half = 0.5 * b
        spike = half * math.log1p(2.0 / b) + math.log1p(half)
        total += 2.0 * spike
        total += _blend_quadrature(g, half, b, scheme, quad_tol)
        total += _blend_quadrature(g, l - b, l - half, scheme, quad_tol)
    return float(total), float(bound)
