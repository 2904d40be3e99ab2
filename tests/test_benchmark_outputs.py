"""The benchmark's three workloads, run through `lab`, against their pinned
CSVs.

``perfbench`` gates every benchmark run on these digests; running the same
configs here keeps the experiments', the measure check's, the check suite's
and the entropy estimators' outputs under the tier-1 tests.
"""

import json
import sys
from pathlib import Path

import pytest

from ietlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import gate, workloads  # noqa: E402


def run_pinned(tmp_path, workload: str, kind: str) -> None:
    config = workloads.make_config(workload, gate.DEFAULT_SEED)
    cfg = tmp_path / f"{workload}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / kind
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    csvs = workloads.expected_csvs(config, kind)
    assert gate.csv_digest(out, csvs) == gate.PINNED[workload][kind]


@pytest.mark.parametrize("kind", workloads.COMMANDS["orbit"])
def test_orbit_workload_csvs_match_pinned_digests(tmp_path, kind):
    run_pinned(tmp_path, "orbit", kind)


def test_measure_workload_csv_matches_pinned_digest(tmp_path):
    run_pinned(tmp_path, "measure", "measure")


@pytest.mark.parametrize("kind", workloads.COMMANDS["diagnostics"])
def test_diagnostics_workload_csvs_match_pinned_digests(tmp_path, kind):
    run_pinned(tmp_path, "diagnostics", kind)
