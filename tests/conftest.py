"""Shared fixtures: one spec per family, built once per session."""

import sys

import numpy as np
import pytest

from ietlab.geometry import MetricParams
from ietlab.iet import CountableIET
from ietlab.roof import choose_b_and_check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance battery's per-criterion lines past stdout capture."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "EMITTED", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def golden_iet():
    return CountableIET.block_rotation()


@pytest.fixture(scope="session")
def golden_spec(golden_iet):
    return choose_b_and_check(golden_iet)[0]


@pytest.fixture(scope="session")
def swap_iet():
    return CountableIET.block_swap()


@pytest.fixture(scope="session")
def vnk_iet():
    return CountableIET.von_neumann_kakutani()


@pytest.fixture(scope="session")
def params():
    return MetricParams(delta=0.25)


@pytest.fixture(scope="session")
def warm_kernels(golden_spec):
    """Touch every jitted kernel once so timed tests exclude compilation."""
    from ietlab import kernels
    p = golden_spec.iet.pack()
    s = golden_spec.pack()
    kernels.smooth_step(0.3)
    kernels.roof_eval(0.01, 0.03125, 0.1)
    kernels.iet_step(p, 0, 0.01)
    kernels.iet_step_inv(p, 0, 0.01)
    kernels.iet_length(p, 0)
    kernels.dyadic_block(0.7)
    kernels.canonicalize_k(p, s, 0, 0.01, 5.0, 1000)
    out_i = np.zeros(1, dtype=np.int64)
    out_u = np.zeros(1, dtype=np.float64)
    out_y = np.zeros(1, dtype=np.float64)
    out_fail = np.zeros(1, dtype=np.int64)
    cps = np.array([10], dtype=np.int64)
    out_m21 = np.zeros(1)
    out_k = np.zeros(1, dtype=np.int64)
    kernels.lyap_orbit(p, s, 0, 0.01, 0.0, cps, out_m21, out_k,
                       out_i, out_u, out_y, out_fail)
    out_sum = np.zeros(1, dtype=np.float64)
    kernels.birkhoff_h_orbit(p, s, 0, 0.01, cps, out_sum)
    lane_i = np.zeros(1, dtype=np.int64)
    lane_u = np.full(1, 0.01)
    lane_status = np.zeros(1, dtype=np.int64)
    rows = [a.reshape(1, 1) for a in (out_m21, out_k, out_i, out_u, out_y)]
    kernels.lyap_orbits(p, s, lane_i, lane_u, out_y, cps, *rows, out_fail,
                        lane_status)
    kernels.birkhoff_h_orbits(p, s, lane_i, lane_u, cps,
                              out_sum.reshape(1, 1), lane_status)
    idx = np.zeros(4, dtype=np.int64)
    off = np.full(4, 0.01)
    hei = np.zeros(4)
    status = np.zeros(4, dtype=np.int64)
    r = np.zeros(4)
    kernels.roof_eval_batch(s, idx, off, r, np.zeros(4))
    kernels.flow_time_one_batch(p, s, idx, off, hei, r, status)
    kernels.base_step_batch(p, idx, off, status)
    sym = np.zeros(8, dtype=np.int64)
    kernels.code_orbit(p, 0, 0.01, 16, sym)
    return True
