import dataclasses
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from gridcosim import cli, runner
from gridcosim.cli import main
from gridcosim.config import QOS_MODES, ScenarioConfig
from gridcosim.runner import run_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIO_FILE = REPO / "scenarios" / "lte_failover_case_study.cfg"


def run_cli(*args):
    return main([str(a) for a in args])


def test_qos_flag_takes_exactly_the_config_modes(capsys):
    parser = cli.build_parser()
    for command in (["run"], ["tau-sweep", "--taus", "0.1,0.01"]):
        for mode in QOS_MODES:
            assert parser.parse_args([*command, "--qos", mode]).qos == mode
        with pytest.raises(SystemExit):
            parser.parse_args([*command, "--qos", "priority"])


def test_run_command_writes_outputs(tmp_path, capsys):
    out = tmp_path / "results"
    code = run_cli("run", "--config", SCENARIO_FILE, "--duration", "30", "--out", out,
                   "--dump-topology", "--exchange-log", "--link-log")
    assert code == 0
    for name in ("reliability.csv", "delay.csv", "ddf.csv", "manifest.json",
                 "topology.csv", "exchange_log.csv", "link_log.csv", "scenario.cfg"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["duration_s"] == 30.0


def test_flag_overrides_reach_the_run(tmp_path):
    out = tmp_path / "o"
    code = run_cli("run", "--duration", "20", "--tau", "0.1", "--qos", "wfq",
                   "--seed", "9", "--fail-at", "10", "--out", out)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tau_s"] == 0.1
    assert manifest["config"]["qos"] == "wfq"
    assert manifest["config"]["lte_fail_at_s"] == 10.0
    assert manifest["seed"] == 9


def test_zero_duration_exits_clean(tmp_path):
    out = tmp_path / "z"
    assert run_cli("run", "--duration", "0", "--out", out) == 0
    assert (out / "reliability.csv").read_text().startswith("t_s,class,")


def test_invalid_config_exits_nonzero_with_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("tau_s = 0\n")
    out = tmp_path / "x"
    code = run_cli("run", "--config", bad, "--out", out)
    assert code == 1
    assert "tau_s" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "error"


def test_socket_transport_from_cli(tmp_path):
    out_a = tmp_path / "inproc"
    out_b = tmp_path / "socket"
    assert run_cli("run", "--duration", "10", "--out", out_a) == 0
    assert run_cli("run", "--duration", "10", "--out", out_b, "--transport", "socket") == 0
    for name in ("reliability.csv", "delay.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_manifest_records_the_trace_digest(tmp_path):
    digests = []
    for transport in ("inproc", "socket"):
        out = tmp_path / transport
        assert run_cli("run", "--qos", "wfq-ra", "--fail-at", "10", "--duration", "20",
                       "--transport", transport, "--out", out) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["trace_digest"])
    cfg = dataclasses.replace(ScenarioConfig(), qos="wfq-ra", lte_fail_at_s=10.0, duration_s=20.0)
    assert digests == [run_scenario(cfg).federation.trace_digest] * 2


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "m"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridcosim", "run", "--transport", "socket", "--duration", "20",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"


def test_tau_sweep_writes_rows(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("tau-sweep", "--taus", "0.1,0.01", "--duration", "20", "--out", out)
    assert code == 0
    lines = (out / "ddf.csv").read_text().splitlines()
    assert lines[0] == "tau_s,ddf_percent,wallclock_s"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiments"] == {"tau=0.1": "ok", "tau=0.01": "ok"}


def test_tau_sweep_ignores_and_does_not_record_the_configs_own_tau(tmp_path):
    # 0.3 s slots do not divide the 25 s metrics interval, but no run of
    # the sweep uses them: each takes one of --taus.
    config = tmp_path / "t.cfg"
    config.write_text("tau_s = 0.3\n")
    out = tmp_path / "sweep"
    assert run_cli("tau-sweep", "--config", config, "--taus", "0.1,0.01", "--duration", "10",
                   "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["tau_s"] == [0.1, 0.01]


def test_tau_sweep_validates_each_swept_tau(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("tau-sweep", "--taus", "0.1,0.3", "--duration", "10", "--out", out) == 1
    assert "metrics_interval_s: must be a multiple of tau_s" in capsys.readouterr().err
    assert not (out / "ddf.csv").exists()


def test_only_run_takes_tau(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["run", "--tau", "0.5"]).tau_s == 0.5
    # A sweep's runs take their slot durations from --taus alone.
    with pytest.raises(SystemExit):
        parser.parse_args(["tau-sweep", "--taus", "0.1,0.01", "--tau", "0.5"])
    assert "unrecognized arguments: --tau 0.5" in capsys.readouterr().err


def test_tau_sweep_single_value_is_usage_error(tmp_path, capsys):
    assert run_cli("tau-sweep", "--taus", "0.01", "--out", tmp_path / "s") == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("tau-sweep", "--taus", ""),
    ("tau-sweep", "--taus", "0.01,"),
    ("tau-sweep", "--taus", "0.01,abc"),
])
def test_bad_arguments_are_usage_errors_with_manifest(tmp_path, capsys, args):
    out = tmp_path / "bad"
    assert run_cli(*args, "--duration", "1", "--out", out) == 2
    assert "usage error" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "error"


@pytest.mark.parametrize("config_line, key", [
    ("lambda_m_hz = nan", "lambda_m_hz"),
    ("region_side_km = nan", "region_side_km"),
    ("wfq_weight_control = nan", "wfq_weight_control"),
    ("lambda_c_hz = inf", "lambda_c_hz"),
], ids=["nan-poll-rate", "nan-region", "nan-weight", "inf-command-rate"])
def test_non_finite_values_are_validation_errors_with_manifest(tmp_path, capsys, config_line, key):
    config = tmp_path / "bad.cfg"
    config.write_text(config_line + "\n")
    out = tmp_path / "bad"
    assert run_cli("run", "--config", config, "--duration", "1", "--out", out) == 1
    assert f"error: {key}:" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"].startswith(f"{key}:")


@pytest.mark.parametrize("flags, config_line, key", [
    (("--duration", "inf"), None, "duration_s"),
    (("--fail-at", "nan"), None, "lte_fail_at_s"),
    ((), "access_latency_lte_s = 0.000015", "access_latency_lte_s"),
    ((), "delay_limit_control_s = 10.000005", "delay_limit_control_s"),
    ((), "lte_restore_at_s = inf", "lte_restore_at_s"),
    ((), "qos = wfq-ra\nlte_fail_at_s = 10\ncount_hva_lv = 0\ncount_substation = 0\n"
         "monitor_ders = false", "qos"),
    (("--tau", "1e-12"), None, "tau_s"),
    ((), "metrics_interval_s = 1e-12", "metrics_interval_s"),
    (("--fail-at", "1e-12"), None, "lte_fail_at_s"),
    ((), "delay_limit_control_s = 1e-12", "delay_limit_control_s"),
    (("--fail-at", "200"), "lte_restore_at_s = 100", "lte_restore_at_s"),
], ids=["inf-duration", "nan-fail-at", "off-grid-latency", "off-grid-limit", "inf-restore",
        "wfq-ra-nothing-monitored", "sub-tick-tau", "sub-tick-interval", "sub-tick-fail-at",
        "sub-tick-limit", "restore-before-failure"])
def test_unconvertible_times_are_validation_errors_with_manifest(tmp_path, capsys, flags,
                                                                 config_line, key):
    args = list(flags)
    if config_line is not None:
        config = tmp_path / "bad.cfg"
        config.write_text(config_line + "\n")
        args += ["--config", config]
    out = tmp_path / "bad"
    assert run_cli("run", *args, "--out", out) == 1
    assert f"error: {key}:" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"].startswith(f"{key}:")


def test_non_utf8_config_is_parse_error_with_manifest(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"qos = \xff\n")
    out = tmp_path / "bad"
    assert run_cli("run", "--config", config, "--out", out) == 1
    assert "is not UTF-8: invalid start byte at byte 6" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "error"


@pytest.mark.parametrize("command", [("run",), ("tau-sweep", "--taus", "0.1,0.01")],
                         ids=["run", "tau-sweep"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli(*command, "--duration", "1", "--out", out) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_config_warning_is_printed_once(tmp_path):
    config = tmp_path / "light.cfg"
    config.write_text("lambda_m_hz = 1/3000\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridcosim", "run", "--config", str(config), "--duration", "1",
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("fits the DMR capacity") == 1


@pytest.mark.parametrize("command, taken", [
    (("run",), "reliability.csv"),
    (("tau-sweep", "--taus", "0.1,0.01"), "ddf.csv"),
], ids=["run", "tau-sweep"])
def test_unwritable_output_is_an_error_with_manifest(tmp_path, capsys, command, taken):
    out = tmp_path / "o"
    (out / taken).mkdir(parents=True)
    assert run_cli(*command, "--duration", "5", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / taken) in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["experiments"] == {command[0]: "failed"}


def test_early_failure_manifest_reports_the_default_configs_seed(tmp_path):
    out = tmp_path / "bad"
    assert run_cli("run", "--seed", "9", "--tau", "0", "--out", out) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == ScenarioConfig().seed


def test_duration_beyond_64_bit_ticks_is_an_error_with_manifest(tmp_path, capsys):
    out = tmp_path / "huge"
    assert run_cli("run", "--duration", "1e300", "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: duration_s:")
    assert json.loads((out / "manifest.json").read_text())["status"] == "error"


def test_unwritable_manifest_is_an_error_without_traceback(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    assert run_cli("run", "--duration", "5", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / "manifest.json") in err


def test_huge_region_runs(tmp_path):
    config = tmp_path / "wide.cfg"
    config.write_text("region_side_km = 1e160\n")
    out = tmp_path / "wide"
    assert run_cli("run", "--config", config, "--duration", "5", "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"


def test_memory_error_is_an_error_with_manifest(tmp_path, capsys, monkeypatch):
    # A config too large for the host, though within the node limit, ends
    # here.  The error is raised, not allocated, so that the test needs no
    # memory limit.
    # What the failed run held must be freed before the failure is reported,
    # which after a real MemoryError needs memory of its own.
    held = []

    def exhausted(*args, **kwargs):
        block = set()
        held.append(weakref.ref(block))
        raise MemoryError

    freed = []

    def write_manifest(*args, **kwargs):
        freed.append(held[0]() is None)
        return runner.write_manifest(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    monkeypatch.setattr(cli, "write_manifest", write_manifest)
    out = tmp_path / "o"
    assert run_cli("run", "--duration", "5", "--out", out) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert freed == [True]
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["error"]) == ("error", "MemoryError")
