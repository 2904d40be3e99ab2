"""The benchmark's workloads: `lab` configs generated from a seed.

Each workload is a closed loop: one client runs its `lab` commands in order,
each command starting after the previous one exits.  Every experiment seed
is derived from the workload seed, so one seed always gives one config.
"""

from __future__ import annotations

import hashlib

# Sizes, rescaled from configs/default.json so that one pass over a
# workload's commands takes a few seconds of pure-Python kernels.
ORBIT_N = 3000           # steps per trajectory, lyapunov and aaronson
ORBIT_SAMPLES = 200      # the batch width of configs/default.json
MEASURE_N = 400_000      # exact samples of the invariant measure
CHECK_SEEDS = 3          # check experiments in the diagnostics workload
ENTROPY_N = 400_000      # symbols per entropy stream
ENTROPY_P_VALUES = (0.1, 0.3, 0.5)
ENTROPY_BLOCK_LEN = 12


# The `lab` commands of each workload, in the order one pass runs them.
COMMANDS = {
    "orbit": ("lyapunov", "aaronson"),
    "measure": ("measure",),
    "diagnostics": ("check", "entropy"),
}


def derive_seed(workload: str, seed: int, slot: int) -> int:
    """Experiment seed number ``slot`` of a workload, stable across platforms."""
    digest = hashlib.sha256(f"{workload}/{seed}/{slot}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_config(workload: str, seed: int) -> dict:
    """The `lab` config of ``workload`` at workload seed ``seed``."""
    if workload not in COMMANDS:
        raise ValueError(f"unknown workload {workload!r}")

    def s(slot: int) -> int:
        return derive_seed(workload, seed, slot)

    if workload == "orbit":
        family = "BlockRotation"
        experiments = [
            {"kind": "lyapunov", "n": ORBIT_N, "samples": ORBIT_SAMPLES,
             "seed": s(0)},
            {"kind": "aaronson", "n": ORBIT_N, "samples": ORBIT_SAMPLES,
             "seed": s(1)},
        ]
    elif workload == "measure":
        family = "BlockRotation"
        experiments = [{"kind": "measure", "n": MEASURE_N, "samples": 1,
                        "seed": s(0)}]
    else:
        family = "VonNeumannKakutani"
        experiments = [{"kind": "check", "n": 1, "samples": 1, "seed": s(k)}
                       for k in range(CHECK_SEEDS)]
        experiments.append({
            "kind": "entropy", "n": ENTROPY_N, "samples": 1,
            "seed": s(CHECK_SEEDS), "p_values": list(ENTROPY_P_VALUES),
            "block_len": ENTROPY_BLOCK_LEN,
            "h_base": [0.0, 0.6931471805599453, "inf"]})
    return {
        "iet": {"family": family, "n_trunc": 64},
        "b_policy": {"kind": "default", "c": 0.125, "rho": 0.5},
        "delta": 0.25,
        "experiments": experiments,
        "plot": False,
    }


def expected_csvs(config: dict, kind: str) -> list[str]:
    """CSV names `lab <kind>` writes for this config (no output_path used)."""
    count = sum(1 for e in config["experiments"] if e["kind"] == kind)
    if count == 1:
        return [f"{kind}.csv"]
    return [f"{kind}_{pos}.csv" for pos in range(count)]


def command_work(config: dict, kind: str) -> float:
    """Units of work `lab <kind>` does: orbit steps, samples or symbols."""
    exps = [e for e in config["experiments"] if e["kind"] == kind]
    if kind == "measure":
        return float(sum(e["n"] for e in exps))
    if kind == "entropy":
        return float(sum((len(e["p_values"]) + 1) * e["n"] for e in exps))
    return float(sum(e["samples"] * e["n"] for e in exps))  # orbit steps


def workload_rates(workload: str, config: dict,
                   walls: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end rates from one pass's command times."""
    if workload == "orbit":
        work = command_work(config, "lyapunov") + command_work(config, "aaronson")
        return {"orbit_steps_per_s":
                (work / (walls["lyapunov"] + walls["aaronson"]), "steps/s")}
    if workload == "measure":
        return {"mu_samples_per_s":
                (command_work(config, "measure") / walls["measure"],
                 "samples/s")}
    return {"check_s": (walls["check"], "s"),
            "entropy_symbols_per_s":
                (command_work(config, "entropy") / walls["entropy"],
                 "symbols/s")}
