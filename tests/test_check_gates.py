"""Each gate of ``lab check``'s summability, measure-identity and
cocycle-algebra checks can fail.

For each gate, its reading on specs of this package and a mutation of the
program that trips it.  The spec-level checks are memoized per spec, so
every mutation runs on a spec built for it.
"""

import math
import types

import pytest

from ietlab import cli, lane_geometry, roof
from ietlab.iet import CountableIET
from ietlab.measure import total_mass
from ietlab.roof import ProportionalPolicy, RoofSpec, log_derivative_integral

FAMILIES = {
    "rotation": CountableIET.block_rotation,
    "odometer": CountableIET.von_neumann_kakutani,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_summability_gate_reading(family):
    """The integral of log(1 + |r'|) sits at 0.27 (rotation) and 0.35
    (odometer) of its certificate."""
    value, bound = log_derivative_integral(RoofSpec.build(FAMILIES[family]()))
    assert 0.25 < value / bound < 0.4


def test_summability_gate_trips_on_the_slope_without_its_log(monkeypatch):
    """Integrating |r'| in place of log(1 + |r'|) (log1p dropped from the
    blend integrand and the spike primitive) gives about 217 against a
    bound of 5.1."""
    spec = RoofSpec.build(CountableIET.von_neumann_kakutani())
    no_log1p = types.SimpleNamespace(**{
        name: getattr(math, name) for name in dir(math)
        if not name.startswith("_")})
    no_log1p.log1p = lambda x: x
    monkeypatch.setattr(roof, "math", no_log1p)
    outcome = cli._check_summability(spec)
    assert outcome.status == "FAIL"
    assert "verdict=CONVERGENT" in outcome.detail


def test_summability_gate_fails_on_a_divergent_certificate():
    """Lengths about 1/(k log^2 k): -sum l log l diverges, and so does the
    proportional policy's -sum b log b."""
    weights = [1.0 / ((k + 2) * math.log(k + 2) ** 2) for k in range(130)]
    total = 0.0
    for w in weights:
        total += w
    xs = [0.0]
    for w in weights[:-1]:
        xs.append(xs[-1] + 0.9 * w / total)
    iet = CountableIET.explicit_table([(x, 0.0) for x in xs], n_trunc=132)
    outcome = cli._check_summability(RoofSpec.build(iet, ProportionalPolicy()))
    assert outcome.status == "FAIL"
    assert "verdict=DIVERGENT" in outcome.detail


@pytest.mark.parametrize("family", FAMILIES)
def test_measure_identity_gate_reading(family):
    """The Simpson and Gauss integrals differ by 5.3e-12 to 6.0e-12 of the
    mass, against a threshold of 1e-8."""
    gap = total_mass(RoofSpec.build(FAMILIES[family]())).identity_gap
    assert 1e-12 < gap < 1e-10


def test_measure_identity_gate_trips_on_a_coarse_gauss_rule(monkeypatch):
    """With 8 Gauss nodes in place of 64 the gap is 5e-8 to 7e-8."""
    spec = RoofSpec.build(CountableIET.von_neumann_kakutani())
    rule = roof.gauss_legendre
    monkeypatch.setattr(roof, "gauss_legendre",
                        lambda f, a, b: rule(f, a, b, n=8))
    assert cli._check_measure_identity(spec).status == "FAIL"


@pytest.mark.parametrize("family", FAMILIES)
def test_cocycle_gate_trips_when_the_second_part_starts_late(monkeypatch,
                                                             family):
    """Flowing z for n + 1 in place of n before the second cocycle breaks
    the product on about half of the tries.

    On the check's own tries the m21 entries agree within 1e-4 of the
    tolerance, and the crossings exactly.  Those are the check's only
    clauses: a cocycle is the shear (1, 0; m21, 1), so its other entries
    are not stored and cannot disagree.
    """
    spec = RoofSpec.build(FAMILIES[family]())
    assert cli._check_cocycle_algebra(spec, 0).status == "PASS"
    flow = lane_geometry.flow
    monkeypatch.setattr(lane_geometry, "flow",
                        lambda spec, z, t: flow(spec, z, t + 1))
    outcome = cli._check_cocycle_algebra(spec, 0)
    assert outcome.status == "FAIL"
    assert int(outcome.detail.split("=")[1].split("/")[0]) >= 30
