"""CLI: subcommands, exit codes, and byte-identical scenario reruns."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twoweightlab
from twoweightlab import cli
from twoweightlab.cli import main, run_scenario


def test_construct_writes_json(tmp_path, capsys):
    rc = main(["construct", "--k", "2", "--depth", "1", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "construction.json"
    payload = json.loads(path.read_text())
    assert payload["params"]["k"] == 2
    assert payload["support"][0]["w_value"] == "9/4"


def test_averages_with_interval(tmp_path):
    rc = main(["averages", "--k", "2", "--depth", "1", "--interval", "0,1/2",
               "--out", str(tmp_path)])
    assert rc == 0
    body = (tmp_path / "averages.csv").read_text()
    assert "9/4" in body


def test_scenario_runs_and_exit_code_matches_summary(tmp_path):
    rc = main(["scenario", "--name", "entropy", "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert rc == (0 if summary["passed"] else 1)
    assert summary["criteria"][0]["id"] == "C12"


def test_scenario_reruns_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = {"scenario": "packing"}
    run_scenario(cfg, out1)
    run_scenario(cfg, out2)
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scenario_process_pool_matches_one_process(tmp_path):
    """Two worker processes write the same files, byte for byte, as one."""
    cfg = {"scenario": "averages-exact"}
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    run_scenario(cfg, pooled, threads=2)
    run_scenario(cfg, serial, threads=1)
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in pooled.iterdir())
    assert {"C1.csv", "C2.csv", "summary.json"} <= set(names)
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def test_scenario_empty_criteria_list_is_success(tmp_path):
    summary = run_scenario({"scenario": "all", "criteria_list": []}, tmp_path)
    assert summary["passed"] and summary["criteria"] == []


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["scenario", "--name", "bogus"]) == 2


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["scenario", "--config", str(bad)]) == 2


def test_missing_scenario_name_is_usage_error():
    assert main(["scenario"]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def _usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_bad_k_is_usage_error(capsys):
    err = _usage_error(["construct", "--k", "1"], capsys)
    assert err == "error: k must be an integer >= 2, got 1\n"


@pytest.mark.parametrize("mode", ["pointwise", "norm", "maximal"])
def test_no_cells_is_usage_error(mode, capsys):
    err = _usage_error(["hilbert", "--mode", mode, "--k", "3", "--cells", "0"], capsys)
    assert err == "error: cells per generation must be >= 1, got 0\n"


def test_unclosed_lorentz_tail_is_usage_error(monkeypatch, capsys):
    def unclosed(*args, **kwargs):
        raise ArithmeticError("Lorentz tail did not close within 400000 terms")

    monkeypatch.setattr(cli, "lorentz_norm", unclosed)
    err = _usage_error(["lorentz", "--norm", "lorentzPsi", "--k", "10"], capsys)
    assert err == "error: Lorentz tail did not close within 400000 terms\n"


def test_empty_interval_is_usage_error(capsys):
    err = _usage_error(["averages", "--k", "2", "--interval", "1/2,1/3"], capsys)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_bumps_placement_is_usage_error(capsys):
    err = _usage_error(["bumps", "--placement", "sideways"], capsys)
    assert "invalid choice: 'sideways'" in err


def test_sparse_test_command(tmp_path):
    rc = main(["sparse-test", "--k", "3", "--eps", "1/3", "--families", "3",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sparse-test.csv").exists()


def test_sparse_test_command_without_seed(tmp_path):
    rc = main(["sparse-test", "--k", "2", "--families", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sparse-test.csv").exists()


def test_options_are_declared_only_where_they_are_read():
    parser = cli.build_parser()
    assert main(["construct", "--k", "2", "--threads", "2"]) == 2
    assert main(["lorentz", "--k", "2", "--seed", "1"]) == 2
    args = parser.parse_args(["scenario", "--name", "entropy", "--threads", "2",
                              "--seed", "4"])
    assert (args.threads, args.seed) == (2, 4)
    for command in ("sparse-test", "hilbert"):
        assert parser.parse_args([command, "--k", "2", "--seed", "3"]).seed == 3


def test_python_dash_m_runs_the_cli():
    src = str(Path(twoweightlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "twoweightlab", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "scenario" in proc.stdout


def test_lorentz_command(tmp_path):
    rc = main(["lorentz", "--k", "2", "--depth", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "lorentz.csv").exists()


def test_bumps_command(tmp_path):
    rc = main(["bumps", "--k-min", "6", "--k-max", "8", "--out", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    rows = json.loads((tmp_path / "bumps.json").read_text())["rows"]
    assert [r["k"] for r in rows] == [6, 7, 8]


def test_criteria_overrides_flow_through(tmp_path):
    cfg = {"scenario": "blowup", "criteria": {"C13": {"ks": [6, 7, 8]}}}
    summary = run_scenario(cfg, tmp_path)
    body = (tmp_path / "C13.csv").read_text()
    assert body.count("\n") == 4  # header + three rows


def test_seed_goes_only_to_criteria_with_a_seed_parameter(monkeypatch):
    def local_seed_only(scale=1):
        seed = 3 * scale  # a local, not a parameter
        return seed

    def takes_seed(seed=0):
        return seed

    monkeypatch.setitem(cli.CRITERIA, "C1", local_seed_only)
    monkeypatch.setitem(cli.CRITERIA, "C2", takes_seed)
    args = argparse.Namespace(config=None, name="averages-exact", seed=7)
    config = cli._load_config(args)
    assert config["criteria"] == {"C1": {}, "C2": {"seed": 7}}
