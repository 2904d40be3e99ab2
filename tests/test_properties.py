"""Property-based tests (hypothesis) for the structural invariants:
invertibility of the base map, roof shape, canonical-domain idempotence,
cocycle algebra, time-change homogeneity, config round-trips, and the
report's quantiles.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ietlab.cli import _quantiles, parse_config, serialize_config
from ietlab.errors import LabError
from ietlab.flow import cocycle, cocycle_checkpoints
from ietlab.geometry import canonicalize
from ietlab.iet import CountableIET, FiberPoint
from ietlab.measure import abramov
from ietlab.roof import choose_b_and_check

ROTATION = CountableIET.block_rotation()
SWAP = CountableIET.block_swap()
ODOMETER = CountableIET.von_neumann_kakutani()
SPEC = choose_b_and_check(ROTATION)[0]

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])

base_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                        allow_nan=False)


@settings(max_examples=200, **COMMON)
@given(x=base_floats, which=st.sampled_from(["rotation", "swap", "odometer"]))
def test_step_back_inverts_step(x, which):
    iet = {"rotation": ROTATION, "swap": SWAP, "odometer": ODOMETER}[which]
    try:
        p = iet.locate(x)
        q = iet.step(p)
        back = iet.step_back(q)
    except LabError:
        assume(False)
    assert back.index == p.index
    # adding/subtracting the translation can absorb offsets below one ulp
    # of the interval length, so the round trip is exact only to that scale
    assert back.offset == pytest.approx(p.offset,
                                        abs=1e-14 * iet.length(p.index))


@settings(max_examples=200, **COMMON)
@given(i=st.integers(min_value=0, max_value=63),
       frac=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_roof_above_one_with_consistent_slope(i, frac):
    l = SPEC.iet.length(i)
    rv = SPEC.value_raw(FiberPoint(i, frac * l))
    assert rv.value >= 1.0
    assert 1 <= rv.tag <= 5
    if frac * l <= 0.5 * l:
        assert rv.derivative <= 0.0
    else:
        assert rv.derivative >= 0.0


@settings(max_examples=150, **COMMON)
@given(x=base_floats, y=st.floats(min_value=-8.0, max_value=8.0))
def test_canonicalize_is_idempotent_and_lands_in_domain(x, y):
    try:
        z = canonicalize(SPEC, SPEC.iet.locate(x), y)
    except LabError:
        assume(False)
    assert canonicalize(SPEC, z.base, z.height) == z
    r_here = SPEC.value_raw(z.base).value
    r_below = SPEC.value_raw(SPEC.iet.step_back(z.base)).value
    assert -r_below <= z.height < r_here


@settings(max_examples=200, **COMMON)
@given(t=st.floats(min_value=0.0, max_value=1.0),
       s=st.floats(min_value=0.0, max_value=1.0))
def test_smooth_step_range_monotonicity_symmetry(t, s):
    from ietlab.kernels import smooth_step
    a_t, slope_t = smooth_step(t)
    assert 0.0 <= a_t <= 1.0
    assert slope_t <= 0.0
    lo, hi = min(t, s), max(t, s)
    assert smooth_step(lo)[0] >= smooth_step(hi)[0]
    assert a_t + smooth_step(1.0 - t)[0] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, **COMMON)
@given(x=base_floats,
       y=st.floats(min_value=-2.0, max_value=2.0),
       n=st.integers(min_value=0, max_value=40),
       m=st.integers(min_value=0, max_value=40))
def test_cocycle_composition_law(x, y, n, m):
    try:
        z = canonicalize(SPEC, SPEC.iet.locate(x), y)
        total = cocycle(SPEC, z, n + m)
        if n == 0:
            mid, first = z, cocycle(SPEC, z, 0)
        else:
            mats, ends = cocycle_checkpoints(SPEC, z, [n])
            mid, first = ends[0], mats[0]
        second = cocycle(SPEC, mid, m)
    except LabError:
        assume(False)
    combined = second.compose(first)
    assert combined.crossings == total.crossings
    assert (combined.m11, combined.m12, combined.m22) == (1.0, 0.0, 1.0)
    assert combined.m21 == pytest.approx(total.m21, rel=1e-12, abs=1e-12)


@settings(max_examples=200, **COMMON)
@given(h=st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e6)),
       r=st.floats(min_value=1e-6, max_value=1e6))
def test_abramov_scaling_properties(h, r):
    # doubling is exact in binary floats as long as nothing goes subnormal
    res = abramov(h, r)
    assert res.scale == 2.0 * r
    assert abramov(2.0 * h, r).h_flow == 2.0 * res.h_flow
    assert res.h_flow >= 0.0


simple_policy = st.one_of(
    st.fixed_dictionaries({"kind": st.just("default"),
                           "c": st.floats(0.01, 0.4),
                           "rho": st.floats(0.1, 0.9)}),
    st.fixed_dictionaries({"kind": st.just("proportional"),
                           "kappa": st.floats(0.01, 0.49)}),
    st.fixed_dictionaries({"kind": st.just("explicit"),
                           "values": st.lists(st.floats(1e-6, 0.1),
                                              min_size=1, max_size=8)}),
)

simple_iet = st.one_of(
    st.fixed_dictionaries({"family": st.just("BlockRotation"),
                           "n_trunc": st.integers(2, 128)},
                          optional={"theta": st.floats(0.05, 0.95)}),
    st.fixed_dictionaries({"family": st.sampled_from(
                               ["BlockSwap", "VonNeumannKakutani"]),
                           "n_trunc": st.integers(2, 128)}),
    st.fixed_dictionaries({"family": st.just("ExplicitTable"),
                           "n_trunc": st.integers(2, 128),
                           "pairs": st.lists(st.fixed_dictionaries(
                               {"x": st.floats(0.0, 0.99),
                                "a": st.floats(-1.0, 1.0)}),
                               min_size=1, max_size=6),
                           "tail": st.just("identity")}),
)


def experiment_strategy():
    base = {"kind": st.sampled_from(["check", "lyapunov", "aaronson",
                                     "measure"]),
            "n": st.integers(1, 10000),
            "samples": st.integers(1, 16),
            "seed": st.integers(0, 2**31)}
    entropy = {"kind": st.just("entropy"),
               "n": st.integers(1, 10000),
               "seed": st.integers(0, 2**31),
               "block_len": st.integers(1, 20),
               "p_values": st.lists(st.floats(0.01, 0.99), max_size=4),
               "h_base": st.lists(st.one_of(st.just("inf"),
                                            st.floats(0.0, 10.0)),
                                  max_size=3)}
    optional = {"output_path": st.from_regex(
        r"[a-z]{1,8}(/[a-z]{1,8}){0,2}\.csv", fullmatch=True)}
    return st.one_of(st.fixed_dictionaries(base, optional=optional),
                     st.fixed_dictionaries(entropy, optional=optional))


@settings(max_examples=150, **COMMON)
@given(raw=st.fixed_dictionaries({
    "iet": simple_iet,
    "b_policy": simple_policy,
    "delta": st.floats(0.01, 0.49),
    "experiments": st.lists(experiment_strategy(), max_size=3),
    "plot": st.booleans()}))
def test_config_serialization_round_trip(raw):
    cfg = parse_config(raw)
    dumped = serialize_config(cfg)
    assert parse_config(dumped) == cfg
    assert serialize_config(parse_config(dumped)) == dumped


# few distinct values, so that lists hold ties, zeros of both signs and
# infinities, besides any float and NaN
quantile_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 3e-300, math.inf, -math.inf]),
    st.floats())


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=400, **COMMON)
@given(values=st.one_of(st.lists(quantile_values, min_size=1, max_size=2),
                        st.lists(quantile_values, min_size=1, max_size=60)))
def test_quantiles_match_numpy_percentile_bit_for_bit(values):
    arr = np.array(values, dtype=np.float64)
    got = _quantiles(arr)
    assert list(got) == ["p5", "p50", "p95"]
    for q in (5, 50, 95):
        want = np.float64(np.percentile(arr, q))
        assert np.float64(got[f"p{q}"]).view(np.int64) == want.view(np.int64)
