import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import psyslab
from psyslab import PeriodicGrid, cli
from psyslab.cli import _write_csv, _write_json, main, parse_config
from psyslab.errors import ConfigError


def run_cli(*args):
    return main(["--quiet", *args])


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_config(tmp_path):
    path = write_config(tmp_path, """
# minimal run
law = quadratic
n = 256
preset = constant
u0 = -1
""")
    cfg = parse_config(path)
    assert cfg.law == "quadratic"
    assert cfg.n == 256
    assert cfg.u0 == -1.0
    assert cfg.cfl_safety == 0.4  # default applied


def test_parse_rejects_bad_n(tmp_path):
    path = write_config(tmp_path, "n = 100\n")
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(path)


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "foo = 1\n")
    with pytest.raises(ConfigError, match="foo"):
        parse_config(path)


def test_parse_rejects_bad_value(tmp_path):
    path = write_config(tmp_path, "n = many\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_set_overrides(tmp_path):
    path = write_config(tmp_path, "n = 256\n")
    cfg = parse_config(path, overrides=["n=512", "t_max=2.5"])
    assert cfg.n == 512
    assert cfg.t_max == 2.5


def test_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, "foo = 1\n")
    assert main(["--quiet", "--config", path, "simulate"]) == 2
    assert main(["--quiet", "--config", str(tmp_path / "nope.cfg"), "simulate"]) == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"n = 64\nt_max = 0.1 \xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(path))
    assert run_cli("--config", str(path), "simulate") == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    ["t_max=0"],
    ["preset=simple_wave", "u_center=0.5"],
    ["preset=random_trig", "u_offset=0"],
    ["law=quartic", "quartic_a=nan"],
    ["t_max=inf"],
    ["grad_blowup_factor=0"],
    ["preset=elliptic_random", "seed=-1"],
    ["law=quadratic", "quartic_a=0.3"],
    ["preset=bogus"],
    ["preset=simple_wave", "n=16", "t0=1e15", "t_max=1000000000002000"],
    ["preset=simple_wave", "n=16", "t0=1e17", "t_max=100000000000000064"],
])
def test_invalid_values_exit_2(tmp_path, capsys, overrides):
    args = []
    for item in ["n=64", f"outdir={tmp_path / 'out'}"] + overrides:
        args += ["--set", item]
    assert run_cli(*args, "simulate") == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize("command, overrides", [
    ("validate-law", ["validate_samples=1"]),
    ("validate-law", ["validate_u_min=2", "validate_u_max=2"]),
    ("verify", ["wave_n=100"]),
    ("verify", ["verify_n=48"]),
    ("predict", ["family=both"]),
    ("trace", ["curve_seeds=0"]),
    ("predict", ["curve_seeds=-1"]),
    ("verify", ["verify_seeds=0"]),
    ("verify", ["verify_t_max=0"]),
    ("trace", ["growth_factor=-2"]),
    ("trace", ["horizon=-1"]),
    ("validate-law", ["preset=simple_wave", "u_center=0.5"]),
    ("verify", ["wave_n=8192"]),
    ("energy", ["gauge=cubic"]),
], ids=["validate_samples", "validate_range", "wave_n", "verify_n",
        "predict_both", "trace_no_seeds", "predict_no_seeds", "verify_no_seeds",
        "verify_t_max_zero",
        "growth_factor_negative", "horizon_negative", "validate_law_bad_preset",
        "wave_n_too_large", "energy_bad_gauge"])
def test_command_config_errors_exit_2(tmp_path, capsys, command, overrides):
    out = tmp_path / "out"
    args = []
    for item in overrides + ["n=64", "t_max=0.5", f"outdir={out}"]:
        args += ["--set", item]
    assert run_cli(*args, command) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["simulate", "trace", "predict"])
def test_run_config_error_leaves_no_outdir(tmp_path, capsys, command):
    # only run rejects this span (t + dt rounds back to t near t0 = 1e15),
    # so the outdir must not be made before the run
    out = tmp_path / "out"
    args = []
    for item in ["preset=simple_wave", "n=16", "t0=1e15",
                 "t_max=1000000000002000", f"outdir={out}"]:
        args += ["--set", item]
    assert run_cli(*args, command) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_csv_writes_17_significant_digits(tmp_path):
    values = [0.1, 1 / 3, 1e-300, -0.0, 2**53 + 1, float("nan")]
    path = tmp_path / "x.csv"
    _write_csv(parse_config(), path, ("a", "b", "c"),
               np.array(values, dtype=float).reshape(2, 3))
    lines = path.read_text().split("\n")
    assert lines[0].startswith("# psyslab ") and lines[1] == "a,b,c"
    assert lines[4] == ""  # the file ends in a newline
    fields = [f for line in lines[2:4] for f in line.split(",")]
    assert fields == [f"{float(x):.17g}" for x in values]


def test_json_rejects_non_finite(tmp_path):
    cfg = parse_config()
    with pytest.raises(ValueError):
        _write_json(cfg, tmp_path / "x.json", {"t_detect": float("nan")})


@pytest.mark.parametrize("module", ["psyslab", "psyslab.cli"])
def test_module_entry_point(tmp_path, module):
    src = str(Path(psyslab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", module, "--quiet", "--set", "n=16",
         "--set", "t_max=0.05", "--set", f"outdir={out}", "simulate"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "run.json").read_text())["status"] == "completed"


def test_unwritable_outdir_is_config_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = run_cli("--set", "n=64", "--set", "t_max=0.1",
                   "--set", f"outdir={blocker}", "simulate")
    assert code == 2


def test_simulate_constant(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "n=64", "--set", "t_max=0.5",
                   "--set", f"outdir={out}", "simulate")
    assert code == 0
    report = json.loads((out / "run.json").read_text())
    assert report["status"] == "completed"
    assert report["t_detect"] is None
    assert "tool_version" in report and "config_hash" in report
    snap = (out / "snapshots.csv").read_text().splitlines()
    assert snap[0].startswith("# psyslab ")
    assert snap[1] == "t,x,u,v"
    series = (out / "series.csv").read_text().splitlines()
    assert series[1] == "t,max_u,min_u,max_abs_ux,max_abs_vx,tail_ratio"


def test_simulate_blowup_is_a_result_not_an_error(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=simple_wave", "--set", "n=256",
                   "--set", "t_max=2.2", "--set", f"outdir={out}", "simulate")
    assert code == 0
    report = json.loads((out / "run.json").read_text())
    assert report["status"] in ("blow_up_detected", "resolution_lost")
    assert report["t_detect"] is not None


def test_simulate_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli("--set", "preset=random_trig", "--set", "seed=3",
                "--set", "n=64", "--set", "t_max=0.2",
                "--set", f"outdir={out}", "simulate")
        outs.append((out / "snapshots.csv").read_bytes())
    assert outs[0] == outs[1]


WAVE = ["preset=simple_wave", "n=256", "t_max=2.2"]


@pytest.fixture(scope="module")
def wave_traj():
    return cli._run(parse_config(None, WAVE))


def _reference_snapshots_csv(cfg, traj, path):
    """snapshots.csv written from one (snapshots * n, 4) array, as before
    the file was streamed; kept as the reference the stream must match."""
    times, states = zip(*traj.snapshots)
    _write_csv(cfg, path, ("t", "x", "u", "v"), np.column_stack([
        np.repeat(times, cfg.n),
        np.tile(PeriodicGrid(cfg.n).nodes, len(times)),
        np.concatenate([s.u for s in states]),
        np.concatenate([s.v for s in states]),
    ]))


@pytest.mark.parametrize("overrides", [
    ["preset=random_trig", "n=64", "seed=3"], WAVE], ids=["random_trig", "wave"])
def test_streamed_snapshots_match_one_array(tmp_path, monkeypatch, wave_traj,
                                            overrides):
    cfg = parse_config(None, overrides + [f"outdir={tmp_path / 'out'}"])
    traj = wave_traj if overrides is WAVE else cli._run(cfg)
    monkeypatch.setattr(cli, "_run", lambda c: traj)
    assert cli.cmd_simulate(cfg) == 0
    _reference_snapshots_csv(cfg, traj, tmp_path / "reference.csv")
    out = tmp_path / "out"
    assert ((out / "snapshots.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert sorted(p.name for p in out.iterdir()) == ["run.json", "series.csv",
                                                     "snapshots.csv"]


@pytest.mark.parametrize("existing", [None, b"old snapshots\n"],
                         ids=["fresh", "existing"])
def test_failed_snapshot_stream_leaves_no_partial_file(tmp_path, monkeypatch,
                                                      wave_traj, existing):
    out = tmp_path / "out"
    out.mkdir()
    if existing is not None:
        (out / "snapshots.csv").write_bytes(existing)
    blocks = cli._snapshot_blocks

    def failing_blocks(nodes, snapshots):
        yield next(blocks(nodes, snapshots))
        raise RuntimeError("chunk source failed")

    monkeypatch.setattr(cli, "_snapshot_blocks", failing_blocks)
    monkeypatch.setattr(cli, "_run", lambda c: wave_traj)
    with pytest.raises(RuntimeError, match="chunk source failed"):
        cli.cmd_simulate(parse_config(None, WAVE + [f"outdir={out}"]))
    if existing is None:
        assert not any(out.iterdir())
    else:
        assert [p.name for p in out.iterdir()] == ["snapshots.csv"]
        assert (out / "snapshots.csv").read_bytes() == existing


def test_simulate_memory_is_bounded_by_one_snapshot(tmp_path, monkeypatch,
                                                    wave_traj):
    # formatting the file as one string took 3.6x its size
    monkeypatch.setattr(cli, "_run", lambda c: wave_traj)
    cfg = parse_config(None, WAVE + [f"outdir={tmp_path}"])
    tracemalloc.start()
    try:
        assert cli.cmd_simulate(cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "snapshots.csv").stat().st_size / 4


def test_trace_emits_curves_and_classification(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=simple_wave", "--set", "n=256",
                   "--set", "t_max=1.0", "--set", "curve_seeds=2",
                   "--set", "family=both", "--set", f"outdir={out}", "trace")
    assert code == 0
    cls = json.loads((out / "classification.json").read_text())
    assert len(cls["curves"]) == 4
    assert (out / "curve_first_forward_0.csv").exists()
    header = (out / "curve_first_forward_0.csv").read_text().splitlines()[1]
    assert header == "t,x,u,r1,r2,beta,K_accum"
    assert cls["thresholds"]["growth_factor"] == 10.0


@pytest.mark.parametrize("command, report", [("trace", "classification.json"),
                                             ("predict", "predict.json")])
@pytest.mark.parametrize("preset", [["preset=elliptic_random"],
                                    ["preset=constant", "u0=-0.0005"]])
def test_untraceable_run_reports_status(tmp_path, capsys, command, report, preset):
    # refused at admission, the run has one snapshot and nothing to trace
    out = tmp_path / "out"
    args = []
    for item in preset + ["n=64", "t_max=0.5", f"outdir={out}"]:
        args += ["--set", item]
    assert run_cli(*args, command) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run ended admission_refused")
    rep = json.loads((out / report).read_text())
    assert rep.get("run_status", rep.get("solver_status")) == "admission_refused"
    assert rep.get("curves", []) == [] and rep.get("n_predicting", 0) == 0
    assert not list(out.glob("*.csv"))


def test_predict_table(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=simple_wave", "--set", "n=256",
                   "--set", "t_max=2.2", "--set", "curve_seeds=8",
                   "--set", f"outdir={out}", "predict")
    assert code == 0
    pred = json.loads((out / "predict.json").read_text())
    assert pred["n_predicting"] >= 1
    # prediction should agree with the analytic crossing time ~1.0487
    assert abs(pred["t_predicted_min"] - 1.0487) < 0.06
    rows = (out / "predictions.csv").read_text().splitlines()
    assert rows[1] == "x0,beta0,t_predicted"
    assert len(rows) == 10


def test_predict_elliptic_start_gives_nan_row(tmp_path):
    # every node has u <= -0.05, but the trig interpolant reaches u >= 0
    # at x0 = 5/7: that start is reported, not traced
    out = tmp_path / "out"
    args = []
    for item in ["preset=random_trig", "n=16", "seed=2", "modes=7",
                 "amplitude=0.95", "u_offset=-1", "t_max=0.0001",
                 "curve_seeds=7", f"outdir={out}"]:
        args += ["--set", item]
    assert run_cli(*args, "predict") == 0
    rows = (out / "predictions.csv").read_text().splitlines()[2:]
    assert rows.pop(5) == "%.17g,nan,nan" % (5 / 7)
    assert all(row.split(",")[1] != "nan" for row in rows)
    pred = json.loads((out / "predict.json").read_text())
    assert pred["n_predicting"] == 0 and pred["t_predicted_min"] is None


def test_energy_elliptic_field(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=constant", "--set", "u0=1.0",
                   "--set", "n=64", "--set", f"outdir={out}", "energy")
    assert code == 0
    rep = json.loads((out / "energy.json").read_text())
    assert rep["E"] == pytest.approx(0.6931471805599453)  # log 2
    assert rep["identity_gap"] < 1e-12


def test_energy_rejects_hyperbolic_field(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=constant", "--set", "u0=-1.0",
                   "--set", "n=64", "--set", f"outdir={out}", "energy")
    assert code == 1
    assert "u >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_energy_elliptic_random_preset(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=elliptic_random", "--set", "seed=5",
                   "--set", "n=128", "--set", f"outdir={out}", "energy")
    assert code == 0
    rep = json.loads((out / "energy.json").read_text())
    assert rep["ddot_formula"] <= 1e-10
    assert rep["identity_gap"] < 1e-8


def test_validate_law_subcommand(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", f"outdir={out}", "validate-law")
    assert code == 0
    rep = json.loads((out / "validate_law.json").read_text())
    assert rep["ok"] is True
    assert rep["violations"] == []


def test_verify_small_suite(tmp_path):
    outs = [tmp_path / "out", tmp_path / "elsewhere"]
    for out in outs:
        code = run_cli("--set", "verify_seeds=2", "--set", "verify_t_max=10",
                       "--set", "verify_n=128", "--set", "wave_n=256",
                       "--set", f"outdir={out}", "verify")
        assert code == 0
    out = outs[0]
    agg = json.loads((out / "verify.json").read_text())
    assert agg["all_pass"] is True
    assert agg["n_fail"] == 0
    assert (out / "scenario_constant_rigidity.json").exists()
    assert (out / "scenario_simple_wave_blowup.json").exists()
    # the outdir is not part of the config hash, so it must not enter a file
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert (out / name).read_bytes() == (outs[1] / name).read_bytes(), name
