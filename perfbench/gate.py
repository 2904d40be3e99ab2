"""Output-correctness gate for one `lab` invocation.

An invocation fails on a nonzero exit, a missing CSV or report, a report
gate that does not hold, or CSVs whose SHA-256 differs from the expected
digest: the pinned one at the default seed, else the first pass of the run
(reruns at one seed must give byte-identical CSVs).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 0

# SHA-256 of each command's CSVs for each workload at DEFAULT_SEED.
PINNED = {
    "orbit": {
        "lyapunov": "4813511e5548b98fe2bff7609f48071222094ee97bb343d1edcfa1c1d82edb67",
        "aaronson": "3635a4b1848a24aea4d89a2eaf670d45d37088206bfe86be3934de3ef7b2a3f6",
    },
    "measure": {
        "measure": "b2b5ba6aa31f0ecf7cff65481e252144f3de1ba67aa0361cbd0b59c1b21a7eeb",
    },
    "diagnostics": {
        "check": "ca897b7f3bbfb9b65cf5928201a69d23c2949a9bfe367b1c79a90212353b80e4",
        "entropy": "f4e828efed06d0711e3e52e0f25991cf0cce41a31fda2cd8709d9fb0f4f2f3bf",
    },
}


def csv_digest(out_dir: Path, names: list[str]) -> str:
    """SHA-256 over the named CSVs, each prefixed by its name and size."""
    h = hashlib.sha256()
    for name in names:
        data = (out_dir / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def report_problems(report: dict) -> list[str]:
    """Gates of report.json that do not hold."""
    problems = []
    for res in report.get("results", []):
        kind = res.get("kind")
        if kind == "check":
            failed = [k for k, v in res["verdicts"].items() if v == "FAIL"]
            if failed:
                problems.append(f"check verdicts FAIL: {failed}")
        elif kind in ("lyapunov", "aaronson"):
            if not res["discard_rate_ok"]:
                problems.append(f"{kind}: discard_rate_ok is false")
        elif kind == "measure":
            if not (res["invariance"]["passed"] and res["passed"]):
                problems.append("measure: invariance check failed")
    if not report.get("results"):
        problems.append("report has no results")
    return problems


def check_invocation(exit_code: int, out_dir: Path, csvs: list[str],
                     expected: str | None) -> tuple[str | None, list[str]]:
    """(digest of the CSVs or None, problems) for one finished invocation."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    missing = [n for n in [*csvs, "report.json"] if not (out_dir / n).is_file()]
    if missing:
        problems.append(f"missing outputs {missing}")
        return None, problems
    try:
        report = json.loads((out_dir / "report.json").read_text())
        problems.extend(report_problems(report))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report.json: {exc!r}")
    digest = csv_digest(out_dir, csvs)
    if expected and digest != expected:
        problems.append(f"digest {digest[:16]} differs from {expected[:16]}")
    return digest, problems
