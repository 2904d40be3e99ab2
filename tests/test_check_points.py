"""The points and per-point values of ``lab check``'s sandwich, beta and
cocycle-algebra checks.

``reference_sandwich``, ``reference_beta`` and ``reference_cocycle`` are the
three checks written one point at a time: each round's random doubles are
drawn as the lane checks draw them, and every point then goes through the
scalar geometry formulas (``scalar_geometry``) and flow functions,
recording what it gives.  Their SHA-256 digests on specs of all four
families, with shallow truncations so that tries fail (and, for the cocycle
check, tries are skipped), and on one odometer whose beta check raises, are
pinned, and the lane checks must reproduce them: the same points in the
same order, the same values bit for bit, the same error.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from ietlab import cli
from ietlab import lane_geometry as lanes
from ietlab.errors import LabError
from ietlab.flow import cocycle, flow as flow_point, jacobian_step
from ietlab.geometry import MetricParams, TangentVec, canonicalize
from ietlab.iet import CountableIET
from ietlab.roof import RoofSpec

from scalar_geometry import (
    beta_factor,
    constant_C,
    metric_form,
    metric_norm,
    op_norm_between,
    op_norm_euclidean,
)

PARAMS = MetricParams(delta=0.25)
COUNT = 2000
SEEDS = (0, 1)
TABLE = [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)]
# A point beyond a shallow truncation fails to locate, and an orbit that
# leaves it fails to canonicalize, so these specs draw many rounds; the
# five-interval odometer's beta check also skips points whose time-one step
# fails, and at both seeds its beta_factor raises, which ends the check.
SPECS = {
    "rotation": lambda: CountableIET.block_rotation(n_trunc=7),
    "swap": lambda: CountableIET.block_swap(n_trunc=9),
    "odometer": lambda: CountableIET.von_neumann_kakutani(n_trunc=5),
    "table": lambda: CountableIET.explicit_table(TABLE, n_trunc=6),
}


def _random_canonical(spec, rng):
    """One random canonical point, drawn again until it exists."""
    while True:
        try:
            base = spec.iet.locate(rng.random())
            return canonicalize(spec, base, rng.uniform(-2.0, 2.0))
        except LabError:
            continue


def _random_round(spec, rng, k):
    """The points of a round of ``k`` tries: x and then y drawn as arrays,
    then each try's point in turn, where it locates and canonicalizes."""
    points = []
    for x, y in zip(rng.random(k).tolist(), rng.random(k).tolist()):
        try:
            points.append(canonicalize(spec, spec.iet.locate(x),
                                       -2.0 + 4.0 * y))
        except LabError:
            continue
    return points


def reference_sandwich(spec, params, seed, count):
    """The sandwich check point by point: rows (i, u, y, dx, dy, ne, nd, C)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    points = []
    while len(points) < count:
        points += _random_round(spec, rng, count - len(points))
    dxs, dys = rng.standard_normal((2, count)).tolist()
    violations = 0
    rows = []
    for z, dx, dy in zip(points, dxs, dys):
        v = TangentVec(dx, dy)
        ne = metric_norm(spec, params, z, v, kind="euclidean")
        nd = metric_norm(spec, params, z, v, kind="delta")
        c = constant_C(spec, z)
        if not (ne / c <= nd * (1 + 1e-9) and nd <= c * ne * (1 + 1e-9)):
            violations += 1
        rows.append([z.index, z.offset, z.height, v.dx, v.dy, ne, nd, c])
    return rows, f"violations={violations}/{count}"


def reference_beta(spec, params, seed, count):
    """The beta check point by point: rows (tried, i, u, y, lhs, rhs)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    violations = 0
    tried = 0
    rows = []
    while tried < count:
        for z in _random_round(spec, rng, count - tried):
            try:
                jac = jacobian_step(spec, z)
                z1 = flow_point(spec, z, 1.0)
            except LabError:
                continue
            tried += 1
            g0 = metric_form(spec, params, z)
            g1 = metric_form(spec, params, z1)
            lhs = op_norm_between(g0, jac.matrix, g1)
            rhs = (beta_factor(spec, params, z)
                   * op_norm_euclidean(jac.matrix))
            if lhs > rhs * (1 + 1e-9):
                violations += 1
            rows.append([tried, z.index, z.offset, z.height, lhs, rhs])
    return rows, f"violations={violations}/{count}"


def _entries(c):
    return [c.m21, c.crossings]


def reference_cocycle(spec, seed, count):
    """The cocycle-algebra check try by try: rows (i, u, y, n, m) followed
    by the entries of the whole cocycle and of the product of its two
    parts, or by "skipped" for a try whose cocycles or flow failed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 303)))
    bad = 0
    tried = 0
    rows = []
    while tried < count:
        points = _random_round(spec, rng, count - tried)
        ns = rng.integers(2, 200, len(points)).tolist()
        ms = rng.integers(1, 100, len(points)).tolist()
        for z, n, m in zip(points, ns, ms):
            row = [z.index, z.offset, z.height, n, m]
            try:
                whole = cocycle(spec, z, n + m)
                first = cocycle(spec, z, n)
                z_n = flow_point(spec, z, float(n))
                second = cocycle(spec, z_n, m)
            except LabError:
                rows.append(row + ["skipped"])
                continue
            tried += 1
            prod = second.compose(first)
            rows.append(row + _entries(whole) + _entries(prod))
            tol = 1e-9 * max(1.0, abs(whole.m21))
            if (abs(prod.m21 - whole.m21) > tol
                    or prod.crossings != whole.crossings):
                bad += 1
    return rows, f"violations={bad}/{count}"


def lane_cocycle(spec, seed, count):
    """``reference_cocycle``'s rows and detail from the lane check."""
    tries = cli._cocycle_values(spec, seed, count)
    starts = zip(*(a.tolist() for a in (*tries.z, tries.n, tries.m)))
    rows = []
    for k, row in enumerate(starts):
        if tries.skipped[k]:
            rows.append([*row, "skipped"])
            continue
        whole = tries.whole.at(k)
        prod = tries.second.at(k).compose(tries.first.at(k))
        rows.append([*row, *_entries(whole), *_entries(prod)])
    return rows, cli._check_cocycle_algebra(spec, seed, count).detail


def lane_sandwich(spec, params, seed, count):
    """``reference_sandwich``'s rows and detail from the lane check."""
    z, dx, dy, ne, nd, c = cli._sandwich_values(spec, params, seed, count)
    columns = (z.idx, z.off, z.hei, dx, dy, ne, nd, c)
    rows = [list(row) for row in zip(*(a.tolist() for a in columns))]
    return rows, cli._check_sandwich(spec, params, seed, count).detail


def lane_beta(spec, params, seed, count):
    """``reference_beta``'s rows and detail from the lane check."""
    z, lhs, rhs = cli._beta_values(spec, params, seed, count)
    columns = (np.arange(1, count + 1), z.idx, z.off, z.hei, lhs, rhs)
    rows = [list(row) for row in zip(*(a.tolist() for a in columns))]
    return rows, cli._check_beta_bound(spec, params, seed, count).detail


def outcome_digest(fn, *args):
    """SHA-256 of what ``fn`` returns, or of the error it raises."""
    try:
        got = fn(*args)
    except LabError as exc:
        got = [type(exc).__name__, str(exc)]
    return hashlib.sha256(json.dumps(got).encode()).hexdigest()


#: (family, seed) -> (sandwich digest, beta digest), from the scalar
#: references.
PINNED = {
    ("rotation", 0): (
        "97bb241eac9594aeb65a612a0ac5abc7aac48c004eaa1c46103a04dfbfd2e9bd",
        "e5f1338807825cf994ca75975266344158dfab611bde1d5fd713427aafbf97fb"),
    ("rotation", 1): (
        "2e29cc24db4983323c8506d7b6d5ff18c1c1b0c301dd448550691c4e5a3f579f",
        "8b908bd7ce272299c0575cdd62d0d771fb64edc441178c3a50ab4c8c17849c3a"),
    ("swap", 0): (
        "0e99efffe0d59adb47088d2ce6762757799b39705805199c94a7e610b5c8287a",
        "bd38b2e6295d9481d5b21fba06ba981200fef2044a2ddd1b80f78a4ff854146d"),
    ("swap", 1): (
        "e32b318b45267d49763082e9d8d0daaf16a7289e510d5e510d5b6a342bfb0a6c",
        "0895990e06a7d0ec74a5c6531a68bd48263ce30e402cc4a8a0209cb6ae768331"),
    ("odometer", 0): (
        "9e774c5eae5bc47e99e42c546d205bf43c51205ff4bd2633ceda1df1ec900ea3",
        "06d58eb6d892cf8822e01f7f88ae0750c5907e58b4ef18037f42aa96da49fc93"),
    ("odometer", 1): (
        "e6e9768745fc7bca1971d1ec171e7c2bddd3d27b8bebce3a1f292e5d7b064e60",
        "06d58eb6d892cf8822e01f7f88ae0750c5907e58b4ef18037f42aa96da49fc93"),
    ("table", 0): (
        "263ef5555bfdbe57f5e02f9d199c7409f85fa514ce7c3b93ea312f02b05ab949",
        "f81f7af955475eceef41b6dd5420dc63546a164f86d59ebc8139d52330ca7a6f"),
    ("table", 1): (
        "6e88f2880adcb349652009887760d6985de588d19b4c24d1750eb536e106ad78",
        "81367acb84ceb4dc9478779820d849d547d1a2965356383f1d27e0c567ebb24e"),
}

CASES = [(name, seed) for name in SPECS for seed in SEEDS]


@pytest.fixture(scope="module")
def specs():
    return {name: RoofSpec.build(make()) for name, make in SPECS.items()}


@pytest.mark.parametrize("name,seed", CASES)
def test_scalar_reference_matches_pinned_digests(specs, name, seed):
    spec = specs[name]
    got = (outcome_digest(reference_sandwich, spec, PARAMS, seed, COUNT),
           outcome_digest(reference_beta, spec, PARAMS, seed, COUNT))
    assert got == PINNED[name, seed]


@pytest.mark.parametrize("name,seed", CASES)
def test_lane_checks_match_pinned_digests(specs, name, seed):
    spec = specs[name]
    got = (outcome_digest(lane_sandwich, spec, PARAMS, seed, COUNT),
           outcome_digest(lane_beta, spec, PARAMS, seed, COUNT))
    assert got == PINNED[name, seed]


# The cocycle check's specs: on the rotation and swap some tries give no
# point (points beyond the truncation, orbits that leave it while they are
# canonicalized), and most odometer tries are skipped (orbits that leave
# the truncation within n + m steps).  "odometer64" is the diagnostics
# workload's spec.
COCYCLE_SPECS = {
    "rotation": lambda: CountableIET.block_rotation(n_trunc=3),
    "swap": lambda: CountableIET.block_swap(n_trunc=5),
    "odometer": lambda: CountableIET.von_neumann_kakutani(n_trunc=6),
    "table": lambda: CountableIET.explicit_table(TABLE, n_trunc=5),
    "odometer64": lambda: CountableIET.von_neumann_kakutani(n_trunc=64),
}
COCYCLE_COUNT = 100

#: (family, seed) -> digest of the cocycle check's tries, from the scalar
#: reference.
COCYCLE_PINNED = {
    ("rotation", 0):
        "0d3c5e7b7f9022c82ed60d45fb553fee581c9bc2814d548748452de7a29e3fa3",
    ("rotation", 1):
        "d49031ab3a5d68ced49ce8cc5d03c26e602eebdd56cb40eef8ad08977ae540cf",
    ("swap", 0):
        "71a041d07191877e31d2d8e51e8f20c5bfd9ba76ceaaf78aaec71533e064ad68",
    ("swap", 1):
        "9a7647890fdc3d4b037b54dfba1259feef03d6e310af70daa1a57dc503b8e2bc",
    ("odometer", 0):
        "03d95a0b7af9a65017282b57c91fd3a109e59230d585fcca78d3a843464a6588",
    ("odometer", 1):
        "cf343d43923cbd7afe2657aa42a79090a9907647ab4ed8af9d4ee3685a05b811",
    ("table", 0):
        "39a5a24fe0ce22b835628922ceaa95cd456aa0d3ef674fcab51782744525bbc0",
    ("table", 1):
        "ffae6873bb50656f4b8349126c1b6e979a6bc5930c5ce4dd2e9a901f858befad",
    ("odometer64", 0):
        "b96a023b149faa066dfe521503791c03eb4c78ff5bffb16c90228691f7884996",
    ("odometer64", 1):
        "0f5c275c31ca054301f8e7a83237c837221bf9f499dce6dc18d6eb3b0e5e197b",
}

COCYCLE_CASES = [(name, seed) for name in COCYCLE_SPECS for seed in SEEDS]


@pytest.fixture(scope="module")
def cocycle_specs():
    return {name: RoofSpec.build(make()) for name, make in COCYCLE_SPECS.items()}


@pytest.mark.parametrize("name,seed", COCYCLE_CASES)
def test_scalar_cocycle_reference_matches_pinned_digests(cocycle_specs, name,
                                                         seed):
    got = outcome_digest(reference_cocycle, cocycle_specs[name], seed,
                         COCYCLE_COUNT)
    assert got == COCYCLE_PINNED[name, seed]


@pytest.mark.parametrize("name,seed", COCYCLE_CASES)
def test_lane_cocycle_check_matches_pinned_digests(cocycle_specs, name, seed):
    got = outcome_digest(lane_cocycle, cocycle_specs[name], seed,
                         COCYCLE_COUNT)
    assert got == COCYCLE_PINNED[name, seed]


@pytest.mark.parametrize("name", ["rotation", "odometer"])
def test_lane_cocycles_match_scalar_cocycle(cocycle_specs, name):
    """Each lane's cocycle after each of its own step counts, and where the
    scalar cocycle raises, from one lane orbit run."""
    spec = cocycle_specs[name]
    rng = np.random.default_rng(5)
    starts = [_random_canonical(spec, rng) for _ in range(60)]
    z = lanes.Points(*(np.array(col) for col in zip(
        *((p.index, p.offset, p.height) for p in starts))))
    steps = [rng.integers(1, 300, 60), rng.integers(1, 40, 60)]
    raised = 0
    for (mats, fails), counts in zip(lanes.cocycles(spec, z, *steps), steps):
        for k, start in enumerate(starts):
            try:
                want = cocycle(spec, start, int(counts[k]))
            except LabError:
                assert fails[k]
                raised += 1
                continue
            assert not fails[k]
            assert mats.at(k) == want
    assert raised > 0 if name == "odometer" else raised == 0


@pytest.mark.parametrize("make", [CountableIET.block_rotation,
                                  CountableIET.von_neumann_kakutani],
                         ids=["rotation", "odometer"])
def test_sandwich_and_beta_gates_can_fail(make):
    """Near the edges, the checks' own points separate the norms.

    The blended norm stretches some vectors and shrinks others there, so
    the sandwich gate with C = 1 would fail; and the time-one differential
    expands the blended norm more than the euclidean one, so the beta gate
    with beta = 1 would fail.
    """
    spec = RoofSpec.build(make())
    z, dx, dy, ne, nd, c = cli._sandwich_values(spec, PARAMS, 0, 10000)
    ratio = nd / ne
    assert np.count_nonzero(ratio > 1.0 + 1e-9) >= 100
    assert np.count_nonzero(ratio < 1.0 - 1e-9) >= 10
    assert cli._check_sandwich(spec, PARAMS, 0).status == "PASS"

    rng = np.random.default_rng(np.random.SeedSequence((0, 202)))
    z, jac, z1, _ = lanes.beta_draws(spec, rng, 10000)
    lhs = lanes.op_norm_between(lanes.metric_form(spec, PARAMS, z), jac,
                                lanes.metric_form(spec, PARAMS, z1))
    euclidean = lanes.op_norm_euclidean(jac)
    assert np.count_nonzero(lhs > euclidean * (1 + 1e-9)) >= 100
    assert cli._check_beta_bound(spec, PARAMS, 0).status == "PASS"


def test_checks_evaluate_each_fiber_edge_once(monkeypatch, golden_spec):
    """The sandwich check evaluates the roof at both fiber edges of each
    point once, and the Euclidean length of each vector once; the beta
    check evaluates the roof at each drawn point, for its Jacobian, then at
    T^-1 x of each point kept, at both edges of each image whose base point
    moved, and at Tx where beta reads it."""
    count = 2000
    rng = np.random.default_rng(np.random.SeedSequence((1, 202)))
    z, _, z1, _ = lanes.beta_draws(golden_spec, rng, count)
    moved = int(np.count_nonzero((z1.idx != z.idx) | (z1.off != z.off)))
    assert 0 < moved < count
    seen = {"roof": 0, "drawn": 0, "tx": 0, "hypot": 0}

    def counting(name, fn, size):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen[name] += size(args, out)
            return out
        monkeypatch.setattr(lanes, fn.__name__, counted)

    counting("roof", lanes.roof_eval, lambda args, out: args[0].shape[0])
    counting("drawn", lanes._canonical_draws,
             lambda args, out: out.idx.shape[0])
    counting("tx", lanes.iet_step, lambda args, out: args[1].shape[0])
    counting("hypot", lanes.elementwise,
             lambda args, out: out.shape[0] if args[0] is math.hypot else 0)
    cli._sandwich_values(golden_spec, PARAMS, 1, count)
    assert seen == {"roof": 2 * count, "drawn": count, "tx": 0,
                    "hypot": count}
    seen.update(roof=0, drawn=0)
    cli._beta_values(golden_spec, PARAMS, 1, count)
    assert seen["roof"] == seen["drawn"] + count + 2 * moved + seen["tx"]
    assert seen["drawn"] >= count and seen["tx"] > 0
