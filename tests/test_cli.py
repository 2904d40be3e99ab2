"""End-to-end tests for the ``lab`` command line interface.

Everything runs through ``main(argv)`` in process with tiny workloads;
outputs land in pytest tmp directories, never in the working tree.
"""

import filecmp
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ietlab.cli import load_config, main, parse_config, serialize_config
from ietlab.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

BASE = {"iet": {"family": "BlockRotation", "n_trunc": 32},
        "b_policy": {"kind": "default"},
        "delta": 0.25}


def write_cfg(tmp_path, data, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def cfg_with(*experiments) -> dict:
    data = dict(BASE)
    data["experiments"] = list(experiments)
    return data


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_defaults_materialize():
    cfg = parse_config({})
    assert cfg.iet.family == "BlockRotation"
    assert cfg.iet.theta is None
    assert cfg.iet.n_trunc == 64
    assert cfg.b_policy.kind == "default"
    assert cfg.b_policy.c == 0.125
    assert cfg.b_policy.rho == 0.5
    assert cfg.delta == 0.25
    assert cfg.experiments == ()
    assert cfg.plot is False
    dumped = serialize_config(cfg)
    assert set(dumped) == {"iet", "b_policy", "delta", "experiments", "plot"}
    assert parse_config(dumped) == cfg


FULL_FEATURED = {
    "iet": {"family": "ExplicitTable", "n_trunc": 16,
            "pairs": [{"x": 0.0, "a": 0.3}, {"x": 0.2, "a": 0.3},
                      {"x": 0.5, "a": -0.5}, {"x": 0.8, "a": 0.0}],
            "tail": "identity"},
    "b_policy": {"kind": "proportional", "kappa": 0.2},
    "delta": 0.1,
    "experiments": [
        {"kind": "entropy", "n": 5000, "samples": 1, "seed": 3,
         "block_len": 8, "p_values": [0.5], "h_base": [0.0, "inf"],
         "output_path": "deep/ent.csv"},
        {"kind": "check", "n": 10, "samples": 1, "seed": 0},
    ],
    "plot": True,
}


def test_round_trip_full_featured():
    cfg = parse_config(FULL_FEATURED)
    assert cfg.experiments[0].h_base == (0.0, math.inf)
    assert cfg.experiments[0].output_path == "deep/ent.csv"
    round2 = parse_config(serialize_config(cfg))
    assert round2 == cfg
    assert serialize_config(round2) == serialize_config(cfg)
    # JSON round trip too: the serialized form must be plain JSON data
    assert parse_config(json.loads(json.dumps(serialize_config(cfg)))) == cfg


def pinned_configs() -> dict:
    """Raw configs whose resolved form every report.json embeds."""
    raws = {name: json.loads((ROOT / "configs" / f"{name}.json").read_text())
            for name in ("quick", "default")}
    for workload in workloads.COMMANDS:
        for seed in (0, 7):
            raws[f"{workload}/{seed}"] = workloads.make_config(workload, seed)
    raws["full_featured"] = FULL_FEATURED
    raws["empty"] = {}
    raws["theta"] = {"iet": {"family": "BlockRotation", "theta": 0.3,
                             "n_trunc": 40}}
    raws["explicit"] = {"b_policy": {"kind": "explicit",
                                     "values": [0.01, 0.02, 0.005]}}
    return raws


#: SHA-256 of each resolved config as report.json writes it.
SERIALIZED = {
    "quick":
        "2a459c3e12b1733d71d4614cd2dfb11a3137d5185ca4bc6a70791a797ab48ae2",
    "default":
        "7601070c4644711196dd786084b49e4d8225260d8d31d0dcf1ff914de9d87001",
    "orbit/0":
        "cc9086119897bace111e731397c3fdbf5776c8c1878f4e5eb624a61ebe206031",
    "orbit/7":
        "51a708aaaa5cb2a20c6e1486659808423c802d8e85bc8cc9cdaf4826564c47be",
    "measure/0":
        "5ee9556dac1fcfc916d9979f3ec331bf08df8da4d4d53a2810a29283727f8cd9",
    "measure/7":
        "30368f90817a535f31750432efc0bbea180ddc7feac5eadd818d79edb2100dc5",
    "diagnostics/0":
        "9da330282cc96b5b1a0fdc13c9251e0d9aaad770f804fe7c3a536b5d30d1918a",
    "diagnostics/7":
        "a51afcd5778d7e5548b3e557513ae6ff2548b5e01397ebc97976e85e5345e3e9",
    "full_featured":
        "46f5c61bb6540520beb15964485df2fa1ea4ddfb76a2ded9c163aef74468962d",
    "empty":
        "b42a556daa3bf9669164f1395a99a273a9ee744907fb7331f2eb6a1a904b001d",
    "theta":
        "840e20ae581973f4d0e6837e0d9b3dd469497cc820c3ebedb14eb6f6f71e7011",
    "explicit":
        "1ce789338522eb9f9e2c09d6b997b5b2988f07b8c5cf53497edff3b577977c7b",
}


def test_serialized_configs_match_pinned_digests():
    got = {}
    for name, raw in pinned_configs().items():
        text = json.dumps(serialize_config(parse_config(raw)), sort_keys=True,
                          indent=2)
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SERIALIZED


def test_unknown_or_invalid_config_rejected():
    bad_configs = [
        {"bogus": 1},
        {"iet": {"family": "BlockRotation", "what": 1}},
        {"iet": {"family": "BlockSwap", "theta": 0.3}},
        {"iet": {"family": "BlockRotation", "pairs": [{"x": 0, "a": 0}]}},
        {"iet": {"family": "ExplicitTable", "pairs": [{"x": 0.0, "a": 0.0}]}},
        {"iet": {"family": "ExplicitTable", "tail": "identity"}},
        {"iet": {"family": "ExplicitTable", "tail": "identity",
                 "pairs": [{"x": 0.0, "a": 0.0, "z": 1}]}},
        {"iet": {"family": "ExplicitTable", "tail": "identity",
                 "pairs": [{"x": 0.0}]}},
        {"iet": {"family": "Nope"}},
        {"iet": {"n_trunc": 1}},
        {"iet": {"theta": "wat"}},
        {"b_policy": {"kind": "default", "kappa": 0.2}},
        {"b_policy": {"kind": "proportional", "c": 0.1}},
        {"b_policy": {"kind": "explicit"}},
        {"b_policy": {"kind": "wat"}},
        {"b_policy": {"surprise": 1}},
        {"delta": 0.5},
        {"delta": 0.0},
        {"delta": "wat"},
        {"plot": "yes"},
        {"experiments": {"kind": "check"}},
        {"experiments": [{"kind": "warp"}]},
        {"experiments": [{}]},
        {"experiments": [{"kind": "check", "block_len": 4}]},
        {"experiments": [{"kind": "lyapunov", "p_values": [0.5]}]},
        {"experiments": [{"kind": "measure", "h_base": [1.0]}]},
        {"experiments": [{"kind": "lyapunov", "n": 0}]},
        {"experiments": [{"kind": "lyapunov", "samples": 0}]},
        {"experiments": [{"kind": "entropy", "h_base": [-1.0]}]},
        {"experiments": [{"kind": "entropy", "h_base": ["nan"]}]},
        {"experiments": [{"kind": "entropy", "h_base": ["oops"]}]},
        {"experiments": [{"kind": "measure", "output_path": "/abs.csv"}]},
        {"experiments": [{"kind": "measure", "output_path": "../up.csv"}]},
        {"experiments": [{"kind": "check", "whoops": 1}]},
        [1, 2, 3],
        # a section or an entry that is not an object
        {"iet": []},
        {"b_policy": "default"},
        {"experiments": [1]},
        {"iet": {"family": "ExplicitTable", "tail": "identity",
                 "pairs": [[0.0, 0.0]]}},
        # integers must be JSON integers, numbers must not be booleans
        {"iet": {"n_trunc": 64.0}},
        {"experiments": [{"kind": "lyapunov", "n": 1000.7}]},
        {"experiments": [{"kind": "lyapunov", "samples": True}]},
        {"experiments": [{"kind": "lyapunov", "seed": "3"}]},
        {"experiments": [{"kind": "entropy", "block_len": 12.0}]},
        {"b_policy": {"kind": "default", "c": True}},
        {"b_policy": {"kind": "explicit", "values": [True]}},
        {"b_policy": {"kind": "default", "c": 10**400}},  # no float
        {"iet": {"theta": None}},
        # ranges
        {"experiments": [{"kind": "lyapunov", "seed": -1}]},
        {"experiments": [{"kind": "measure", "output_path": ""}]},
        {"experiments": [{"kind": "measure", "output_path": "."}]},
        {"experiments": [{"kind": "measure", "output_path": "a\0b.csv"}]},
        {"experiments": [{"kind": "entropy", "p_values": [1.5]}]},
        {"experiments": [{"kind": "entropy", "p_values": [0.0]}]},
        {"experiments": [{"kind": "entropy", "block_len": 0}]},
        {"b_policy": {"kind": "default", "rho": 1.0}},
        {"iet": {"theta": 1.5}},
    ]
    for raw in bad_configs:
        with pytest.raises(ConfigError):
            parse_config(raw)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(listy)


# ---------------------------------------------------------------------------
# main(): outputs and exit codes
# ---------------------------------------------------------------------------


def test_check_command_outputs(tmp_path, warm_kernels):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0

    lines = (out / "check.csv").read_text().splitlines()
    assert lines[0] == "check,status,detail"
    assert len(lines) == 8
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["iet_validation", "roof_smoothness_fd",
                     "summability_certificate", "metric_sandwich",
                     "beta_bound", "cocycle_algebra", "measure_identity"]
    assert all(line.split(",")[1] == "PASS" for line in lines[1:])

    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"command", "config", "results",
                           "wall_clock_seconds"}
    assert report["command"] == "check"
    assert report["config"] == serialize_config(load_config(cfg))
    assert report["results"][0]["failed"] == []
    assert report["results"][0]["warned"] == []
    assert set(report["results"][0]["verdicts"]) == set(names)


@pytest.mark.parametrize("kind", ["check", "lyapunov", "aaronson",
                                  "measure", "entropy"])
def test_command_process_imports_only_what_runs(tmp_path, kind):
    # a fresh process pays for every module it imports: numpy imports
    # numpy.ma on a first np.unique or np.percentile (11-35 ms), plots are
    # off, threads split lanes only under numba, and the lane geometry is
    # loaded by the commands that evaluate it
    cfg = str(ROOT / "configs" / "quick.json")
    script = ("import sys\n"
              "from ietlab.cli import main\n"
              f"code = main([{kind!r}, '--config', {cfg!r}, '--out', "
              f"{str(tmp_path / 'out')!r}])\n"
              "print(code, *(name in sys.modules for name in ("
              "'numpy.ma', 'ietlab.svgplot', 'concurrent.futures', "
              "'ietlab.lane_geometry')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=300, check=True)
    geometry = kind in ("check", "lyapunov")
    assert proc.stdout.split() == ["0", "False", "False", "False",
                                   str(geometry)]


def _src_env():
    return dict(os.environ, LAB_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def test_package_import_loads_no_lanes():
    # ``import ietlab`` is what the benchmark's set-up probe times; the
    # lanes and the lane geometry load on first use
    script = ("import sys, ietlab\n"
              "print(*(name in sys.modules for name in ("
              "'ietlab.lanes', 'ietlab.lane_geometry')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=300, check=True)
    assert proc.stdout.split() == ["False", "False"]


def test_benchmark_tracer_installs():
    # the benchmark's tracer wraps every name in its TARGETS table; a name
    # missing from the package would break every traced run
    script = ("import sys\n"
              f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
              "import tracer\n"
              "tracer.install(tracer.Recorder())\n"
              "for mod, funcs in tracer.TARGETS.items():\n"
              "    module = sys.modules['ietlab.' + mod]\n"
              "    for func in funcs:\n"
              "        owner, _, attr = func.rpartition('.')\n"
              "        fn = getattr(getattr(module, owner) if owner else module,"
              " attr)\n"
              "        print(mod + '.' + func, hasattr(fn, '__wrapped__'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=300, check=True)
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert "geometry.constant_C" in [name for name, _ in lines]
    assert all(wrapped == "True" for _, wrapped in lines)


def _max_rss_mb(script: str, timeout: float = 300.0) -> float:
    """Max RSS of a child Python running ``script``, which must exit 0."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", script],
                         _src_env())
    deadline = time.monotonic() + timeout
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            pytest.fail(f"child ran past {timeout} s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024.0


def test_measure_memory_is_flat_in_n(tmp_path):
    # the invariance check holds one sampler chunk at a time, so doubling
    # the sample leaves the command's peak memory where it was
    rss = {}
    for n in (500_000, 1_000_000):
        cfg = write_cfg(tmp_path, cfg_with(
            {"kind": "measure", "n": n, "samples": 1, "seed": 3}),
            name=f"cfg{n}.json")
        rss[n] = _max_rss_mb(
            "import sys\n"
            "from ietlab.cli import main\n"
            f"sys.exit(main(['measure', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / f'out{n}')!r}]))\n")
    assert rss[1_000_000] - rss[500_000] <= 2.0, rss


def test_vnk_validation_warns_but_passes(tmp_path, warm_kernels):
    data = {"iet": {"family": "VonNeumannKakutani", "n_trunc": 32},
            "b_policy": {"kind": "default"}, "delta": 0.25}
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "check.csv").read_text()
    assert "iet_validation,WARN" in text


def test_exit_code_one_for_config_and_usage_errors(tmp_path):
    out = str(tmp_path / "out")

    bad_key = write_cfg(tmp_path, {"bogus": 1}, "bad_key.json")
    assert main(["check", "--config", bad_key, "--out", out]) == 1

    assert main(["check", "--config", str(tmp_path / "none.json"),
                 "--out", out]) == 1

    bad_delta = write_cfg(tmp_path, {**BASE, "delta": 0.5}, "bad_delta.json")
    assert main(["check", "--config", bad_delta, "--out", out]) == 1

    # constraint violations while building the roof are usage errors too
    wide = dict(BASE, b_policy={"kind": "explicit", "values": [0.5]})
    wide_cfg = write_cfg(tmp_path, wide, "wide.json")
    assert main(["check", "--config", wide_cfg, "--out", out]) == 1

    # asking for a kind the config does not provide
    only_check = write_cfg(tmp_path, cfg_with({"kind": "check"}), "oc.json")
    assert main(["lyapunov", "--config", only_check, "--out", out]) == 1

    # an output that cannot be written: --out names a file
    not_a_dir = tmp_path / "not_a_dir"
    not_a_dir.write_text("")
    small = write_cfg(tmp_path, cfg_with({"kind": "measure", "n": 2000}),
                      "small.json")
    assert main(["measure", "--config", small, "--out", str(not_a_dir)]) == 1

    # argparse failures: unknown kind, missing --config
    assert main(["frobnicate", "--config", only_check]) == 1
    assert main(["check"]) == 1
    # --help exits cleanly
    assert main(["--help"]) == 0


@pytest.mark.parametrize("data, cause", [
    ({"iet": []}, "iet"),
    (cfg_with({"kind": "check", "seed": -1}), "experiments[0].seed"),
    (cfg_with({"kind": "check", "output_path": ""}),
     "experiments[0].output_path"),
    (cfg_with({"kind": "entropy", "p_values": [1.5]}),
     "experiments[0].p_values[0]"),
    (cfg_with({"kind": "entropy", "block_len": 0}),
     "experiments[0].block_len"),
    (cfg_with({"kind": "measure", "n": 2000, "output_path": "x"},
              {"kind": "measure", "n": 2000, "output_path": "x/y.csv"}),
     "cannot write output"),
    (cfg_with({"kind": "measure", "n": 2000,
               "output_path": "report.json/m.csv"}),
     "cannot write output"),
    (cfg_with({"kind": "measure", "n": 2000, "output_path": "same.csv"},
              {"kind": "measure", "n": 2000, "output_path": "same.csv"}),
     "experiments[1].output_path"),
    (cfg_with({"kind": "measure", "n": 2000, "output_path": "report.json"}),
     "experiments[0].output_path"),
])
def test_invalid_config_exits_one_with_config_error(tmp_path, capsys, data,
                                                    cause):
    """The message names the key at fault, or the output it cannot write."""
    kind = data.get("experiments", [{"kind": "check"}])[0]["kind"]
    cfg = write_cfg(tmp_path, data)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert cause in err


@pytest.mark.parametrize("experiments, plot, cause", [
    ([{"output_path": "same.csv"}, {"output_path": "same.csv"}], False,
     "experiments[2].output_path 'same.csv' and "
     "experiments[1].output_path 'same.csv' both write same.csv"),
    ([{"output_path": "report.json"}], False,
     "experiments[1].output_path 'report.json' and the run's report both "
     "write report.json"),
    ([{"output_path": "lyapunov_1.csv"}, {}], False,
     "the default output 'lyapunov_1.csv' and "
     "experiments[1].output_path 'lyapunov_1.csv' both write"),
    ([{"output_path": "a.csv"}, {"output_path": "a.svg"}], True,
     "experiments[2].output_path 'a.svg' and "
     "experiments[1].output_path 'a.csv' both write a.svg"),
    ([{"output_path": "b.svg"}], True,
     "experiments[1].output_path 'b.svg' and "
     "experiments[1].output_path 'b.svg' both write b.svg"),
])
def test_colliding_outputs_fail_before_anything_runs(tmp_path, capsys,
                                                     experiments, plot,
                                                     cause):
    """Two outputs of one run that are one file are a config error, found
    before any experiment runs or any file is written."""
    data = cfg_with({"kind": "measure", "n": 2000},
                    *({"kind": "lyapunov", "n": 10, "samples": 1, **e}
                      for e in experiments))
    data["plot"] = plot
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and cause in err
    assert not out.exists()


def test_deep_truncation_fails_fast_with_underflow_message(tmp_path, capsys):
    """The roof stops at its first underflowing width, not at n_trunc."""
    cfg = write_cfg(tmp_path, {**BASE, "iet": {"n_trunc": 10**8}})
    start = time.perf_counter()
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert err.startswith("config error: b_policy: policy width c*rho^i")
    assert "underflows to 0.0 on interval 1072" in err
    assert elapsed < 1.0


def test_exit_code_two_for_insufficient_data(tmp_path):
    data = cfg_with({"kind": "entropy", "n": 1000, "block_len": 10})
    cfg = write_cfg(tmp_path, data)
    assert main(["entropy", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2


def test_reruns_are_byte_identical(tmp_path, warm_kernels):
    data = cfg_with({"kind": "lyapunov", "n": 300, "samples": 2, "seed": 1})
    cfg = write_cfg(tmp_path, data)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["lyapunov", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["lyapunov", "--config", cfg, "--out", str(out2)]) == 0
    assert filecmp.cmp(out1 / "lyapunov.csv", out2 / "lyapunov.csv",
                       shallow=False)
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("wall_clock_seconds")
    r2.pop("wall_clock_seconds")
    assert r1 == r2


def test_lyapunov_csv_shape(tmp_path, warm_kernels):
    data = cfg_with({"kind": "lyapunov", "n": 200, "samples": 2, "seed": 1})
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "lyapunov.csv").read_text().splitlines()
    assert lines[0] == "sample,n,ftle_e,ftle_delta,k_n"
    assert len(lines) > 2
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        assert int(cells[1]) <= 200
        float(cells[2]), float(cells[3])
        assert int(cells[4]) >= 0


def test_aaronson_csv_shape(tmp_path, warm_kernels):
    data = cfg_with({"kind": "aaronson", "n": 500, "samples": 2, "seed": 2})
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["aaronson", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "aaronson.csv").read_text().splitlines()
    assert lines[0] == "sample,n,average"
    assert all(float(line.split(",")[2]) > 0.0 for line in lines[1:])


def test_measure_csv_shape(tmp_path, warm_kernels):
    data = cfg_with({"kind": "measure", "n": 20000, "seed": 3})
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "measure.csv").read_text().splitlines()
    assert lines[0] == "box,x_lo,x_hi,y_lo,y_hi,freq_pre,freq_post,deviation"
    assert len(lines) == 9
    report = json.loads((out / "report.json").read_text())
    res = report["results"][0]
    assert res["passed"] is True
    assert res["invariance"]["passed"] is True
    assert res["mass"]["identity_gap"] <= 1e-8


def test_entropy_csv_rows(tmp_path, warm_kernels):
    data = cfg_with({"kind": "entropy", "n": 5000, "seed": 4,
                     "block_len": 8, "p_values": [0.5],
                     "h_base": [0.6931471805599453, "inf"]})
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["entropy", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "entropy.csv").read_text().splitlines()
    assert lines[0] == "label,method,length,detail,value"
    methods = [line.split(",")[1] for line in lines[1:]]
    assert methods.count("plugin") == 2   # bernoulli(0.5) and the coded orbit
    assert methods.count("lz78") == 2
    assert methods.count("abramov") == 2
    assert any(line.endswith(",inf") for line in lines[1:])
    # the bernoulli(0.5) plug-in estimate should sit near log 2
    plugin_rows = [line for line in lines[1:]
                   if "bernoulli" in line and ",plugin," in line]
    value = float(plugin_rows[0].split(",")[-1])
    assert abs(value - math.log(2.0)) < 0.05


def test_output_path_override(tmp_path, warm_kernels):
    data = cfg_with({"kind": "measure", "n": 5000, "seed": 3,
                     "output_path": "custom/boxes.csv"})
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "custom" / "boxes.csv").is_file()
    assert not (out / "measure.csv").exists()


def test_repeated_experiments_get_position_suffix(tmp_path, warm_kernels):
    data = cfg_with({"kind": "aaronson", "n": 300, "samples": 1, "seed": 1},
                    {"kind": "aaronson", "n": 300, "samples": 1, "seed": 2})
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["aaronson", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "aaronson_0.csv").is_file()
    assert (out / "aaronson_1.csv").is_file()
    report = json.loads((out / "report.json").read_text())
    assert len(report["results"]) == 2


def test_plot_flag_emits_svg(tmp_path, warm_kernels):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--plot"]) == 0
    svg = (out / "check.svg").read_text()
    assert ET.fromstring(svg).tag.endswith("svg")

    # plot can come from the config as well as the flag
    data = cfg_with({"kind": "lyapunov", "n": 200, "samples": 2, "seed": 1})
    data["plot"] = True
    cfg2 = write_cfg(tmp_path, data, "plot.json")
    out2 = tmp_path / "out2"
    assert main(["lyapunov", "--config", cfg2, "--out", str(out2)]) == 0
    assert ET.fromstring((out2 / "lyapunov.svg").read_text()).tag.endswith("svg")
