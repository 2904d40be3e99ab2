"""The benchmark's orbit workload, run through `lab`, against its pinned CSVs.

``perfbench`` gates every benchmark run on these digests; running the same
config here keeps the orbit experiments' outputs under the tier-1 tests.
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


@pytest.mark.parametrize("kind", workloads.COMMANDS["orbit"])
def test_orbit_workload_csvs_match_pinned_digests(tmp_path, kind):
    config = workloads.make_config("orbit", gate.DEFAULT_SEED)
    cfg = tmp_path / "orbit.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / kind
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    csvs = workloads.expected_csvs(config, kind)
    assert gate.csv_digest(out, csvs) == gate.PINNED["orbit"][kind]
