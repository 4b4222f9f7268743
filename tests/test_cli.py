import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psyslab
from psyslab import PeriodicGrid, _snapshot_writer, cli, solver, verify
from psyslab.cli import _csv_head, _Outputs, main, parse_config
from psyslab.errors import ConfigError
from psyslab.solver import SolverConfig


def run_cli(*args):
    return main(["--quiet", *args])


#: a span whose first CFL step is below the time resolution of its end:
#: near t = 1e15, t + dt would round back to t
ROUNDS_AWAY = ["preset=simple_wave", "n=16", "t_max=1e15"]
ROUNDS_AWAY_ERROR = ("the first CFL step 0.0438529 does not exceed the "
                     "time resolution 1000 ")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_config(tmp_path):
    path = write_config(tmp_path, """
# minimal run
quartic_a = 0
n = 256
preset = constant
u0 = -1
""")
    cfg = parse_config(path)
    assert cfg.law_obj() == psyslab.PressureLaw.quadratic()
    assert cfg.n == 256
    assert cfg.u0 == -1.0
    assert cfg.t_max == 10.0  # default applied


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


#: keys RunConfig once had, each now an unknown key
DELETED_KEYS = {"growth_factor", "gauge", "cfl_safety", "grad_blowup_factor",
                "tail_ratio_max", "hyperbolicity_eps", "snapshot_stride"}


@pytest.mark.parametrize("overrides", [
    ["t_max=0"],
    ["preset=simple_wave", "u0=0.5"],
    ["preset=random_trig", "u0=0"],
    ["quartic_a=nan"],
    ["t_max=inf"],
    ["preset=elliptic_random", "seed=-1"],
    ["law=quadratic"],
    ["preset=bogus"],
    ROUNDS_AWAY,
    ["preset=simple_wave", "n=16", "t_max=1e17"],
    ["preset=random_trig", "amplitude=-5"],
    # each ran as a constant state, labelled as the preset
    ["preset=random_trig", "modes=0"],
    ["preset=random_trig", "modes=-2"],
    ["preset=simple_wave", "mode=0"],
    ["preset=simple_wave", "n=16", "mode=8"],
    ["preset=simple_wave", "n=16", "mode=200"],
    # folded into u0
    ["preset=simple_wave", "u_center=-1"],
    ["preset=random_trig", "u_offset=-1"],
    # each ran as a constant state, labelled as the preset
    ["preset=random_trig", "amplitude=0"],
    ["preset=simple_wave", "amplitude=0"],
    ["preset=simple_wave", "u0=-700", "amplitude=1e-300"],
    # folded into v0
    ["preset=simple_wave", "r2_value=1"],
    # the initial spectrum or monitor readings overflow
    ["preset=random_trig", "amplitude=1e300"],
    ["preset=simple_wave", "u0=-1e200", "amplitude=1"],
    ["preset=constant", "v0=1e308"],
    # accepted, and would have run for hours: more than MAX_STEPS steps
    # (about 8e7)
    ["preset=constant", "t_max=1e6"],
    # deleted: trace labels by characteristics.GROWTH_FACTOR, and energy
    # reports every gauge
    ["growth_factor=10"],
    ["gauge=log1p"],
    # deleted: the solver's step control and stop thresholds are its
    # constants, and each old key is refused even at its old default
    ["cfl_safety=0.8"],
    ["grad_blowup_factor=1e4"],
    ["tail_ratio_max=1e-4"],
    ["hyperbolicity_eps=1e-3"],
    ["snapshot_stride=5"],
])
def test_invalid_values_exit_2(tmp_path, capsys, overrides):
    args = []
    for item in ["n=64", f"outdir={tmp_path / 'out'}"] + overrides:
        args += ["--set", item]
    assert run_cli(*args, "simulate") == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    if "t_max=1e15" in overrides or "t_max=1e17" in overrides:
        # refused for its span, not for a key or value
        assert "does not exceed the time resolution" in err
    if overrides[0].partition("=")[0] in DELETED_KEYS:
        assert "unknown key" in err
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize("command, overrides", [
    ("verify", ["wave_n=100"]),
    ("verify", ["n=48"]),
    ("predict", ["family=both"]),
    ("trace", ["curve_seeds=0"]),
    ("predict", ["curve_seeds=-1"]),
    ("verify", ["verify_seeds=0"]),
    # a million sweep runs
    ("verify", ["verify_seeds=1000000"]),
    ("verify", ["t_max=0"]),
    ("verify", ["t_max=1e-13"]),
    ("verify", ["preset=simple_wave", "u0=0.5"]),
    ("verify", ["wave_n=8192"]),
    ("predict", ["preset=random_trig", "amplitude=1e300"]),
    ("trace", ["preset=constant", "v0=1e308"]),
    # about 1.02e6 steps, under MAX_STEPS, but 204,800 kept snapshots of
    # 64 KiB: about 13 GB
    ("trace", ["n=4096", "t_max=200"]),
    # the state overflows the monitor, as it does under simulate
    ("energy", ["preset=constant", "u0=1e200"]),
    # 400,000 curves, 4 a start, of 641 samples: about 28 GB
    ("trace", ["n=256", "t_max=20", "curve_seeds=100000"]),
], ids=["wave_n", "verify_bad_n",
        "predict_both", "trace_no_seeds", "predict_no_seeds", "verify_no_seeds",
        "verify_million_seeds", "verify_zero_t_max",
        "verify_t_max_below_resolution",
        "verify_bad_preset", "wave_n_too_large",
        "predict_overflowing_state", "trace_overflowing_state",
        "trace_keeps_13_GB", "energy_overflowing_state",
        "trace_keeps_100000_curves"])
def test_command_config_errors_exit_2(tmp_path, capsys, command, overrides):
    out = tmp_path / "out"
    items = ["n=64", "t_max=0.5"] + overrides + [f"outdir={out}"]
    # a case admitted by mistake fails here, before its command runs
    with pytest.raises(ConfigError):
        parse_config(None, items, command=command)
    args = []
    for item in items:
        args += ["--set", item]
    assert run_cli(*args, command) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    if overrides == ["family=both"]:
        # predict traces both families: the key is gone
        assert "unknown key" in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, curves", [
    (["preset=simple_wave", "n=64"], 500),  # stride 1, 44 samples
    (["preset=simple_wave", "n=256"], 200),  # stride 5, 39 samples
])
def test_curve_budget_bounds_the_tracers_peak(monkeypatch, overrides, curves):
    # the budget once counted CURVE_SAMPLE_BYTES a sample and nothing a
    # curve, and read 19-25% under the tracer's peak at these shapes
    if "n=64" in overrides:  # the n=64 run stores every step
        monkeypatch.setattr(solver, "SNAPSHOT_STRIDE", 1)
    traj = cli._run(parse_config(None, overrides))
    starts = [(x0, psyslab.Family.first) for x0 in np.arange(curves) / curves]
    tracemalloc.start()
    try:
        traced = cli.trace_batch(traj, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = sum(len(curve.t) for curve in traced.values())
    estimate = samples * cli.CURVE_SAMPLE_BYTES + curves * cli.CURVE_BYTES
    assert peak <= estimate < 1.25 * peak, (peak, estimate)


def test_commands_read_the_solver_constants_at_call_time(tmp_path, monkeypatch):
    # one patch on the solver module reaches the trace budget and what
    # trace reports: no command holds a copy of a constant
    # stride 5 keeps 25,600 snapshots of 64 KiB, stride 1 five times that
    budget = ["n=4096", "t_max=25"]
    parse_config(None, budget, "trace")
    monkeypatch.setattr(solver, "SNAPSHOT_STRIDE", 1)
    with pytest.raises(ConfigError, match="MAX_KEPT_BYTES"):
        parse_config(None, budget, "trace")
    monkeypatch.undo()
    monkeypatch.setattr(solver, "HYPERBOLICITY_EPS", 0.5)
    out = tmp_path / "out"
    assert run_cli(*sets(["preset=simple_wave", "n=64", "t_max=0.5",
                          f"outdir={out}"]), "trace") == 0
    report = json.loads((out / "classification.json").read_text())
    assert report["thresholds"]["hyperbolicity_eps"] == 0.5


@pytest.mark.parametrize("item, message", [
    ("family=first", "--set family: unknown key 'family'"),
    ("direction=both", "--set direction: unknown key 'direction'"),
], ids=["family", "direction"])
def test_unknown_family_or_direction_exits_2(tmp_path, capsys, item, message):
    # trace follows both families in both directions: neither is a key
    assert run_cli("--set", item, "--set", f"outdir={tmp_path}", "trace") == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "n = 64\n# a comment\nt_max 0.5\n")
    assert run_cli("--config", path, "simulate") == 2
    assert f"config error: {path}:3: expected key = value" in (
        capsys.readouterr().err)


def test_set_without_equals_exits_2(capsys):
    assert run_cli("--set", "n", "simulate") == 2
    assert "config error: --set 'n': expected key=value" in (
        capsys.readouterr().err)


def test_main_echoes_every_config_key_unless_quiet(tmp_path, capsys):
    # the echo once wrote to the sys.stderr of import time, so a stderr
    # redirected later, as capsys does, never saw it
    overrides = ["n=16", "t_max=0.05", f"outdir={tmp_path}"]
    args = [a for item in overrides for a in ("--set", item)]
    assert main([*args, "simulate"]) == 0
    cfg = parse_config(None, overrides)
    echo = [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("config: ")]
    assert echo == [f"config: {f.name} = {getattr(cfg, f.name)}"
                    for f in dataclasses.fields(cfg)]
    assert len(echo) == 14
    assert run_cli(*args, "simulate") == 0
    assert "config: " not in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    ["preset=random_trig", "u0=0"],
    ["preset=simple_wave", "u0=-700", "amplitude=1e-300"],
])
def test_preset_errors_name_the_config_key(tmp_path, capsys, overrides):
    # the presets name the parameter u0 feeds: u_offset, u_center
    out = tmp_path / "out"
    assert run_cli(*sets(overrides + [f"outdir={out}"]), "simulate") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "u0" in err
    assert "u_offset" not in err and "u_center" not in err


@pytest.mark.parametrize("overrides, match", [
    (ROUNDS_AWAY, ROUNDS_AWAY_ERROR),
    (["preset=constant", "v0=1e308"], "overflows the monitor"),
    (["preset=random_trig", "amplitude=1e300"], "overflows the monitor"),
], ids=["step_rounds_away", "constant_overflows", "random_trig_overflows"])
@pytest.mark.parametrize("command", ["simulate", "trace", "predict"])
def test_parse_config_makes_the_run_up_front_checks(command, overrides, match):
    # each passed parse_config and was refused only inside run
    with pytest.raises(ConfigError, match=match):
        parse_config(None, overrides, command)


@pytest.mark.parametrize("command", ["simulate", "trace", "predict"])
def test_run_config_error_leaves_no_outdir(tmp_path, capsys, writers, command):
    # the run's steps would round away (t + dt rounds back to t near
    # t_max = 1e15): the config is refused before the command starts, so
    # no outdir is made and no snapshot writer started
    out = tmp_path / "out"
    assert run_cli(*sets(ROUNDS_AWAY + [f"outdir={out}"]), command) == 2
    assert ROUNDS_AWAY_ERROR in capsys.readouterr().err
    assert not out.exists() and writers == []


def test_csv_writes_17_significant_digits(tmp_path):
    values = [0.1, 1 / 3, 1e-300, -0.0, 2**53 + 1, float("nan")]
    path = tmp_path / "x.csv"
    with _Outputs(parse_config(None, [f"outdir={tmp_path}"])) as out:
        out.csv(path.name, ("a", "b", "c"),
                np.array(values, dtype=float).reshape(2, 3))
    lines = path.read_text().split("\n")
    assert lines[0].startswith("# psyslab ") and lines[1] == "a,b,c"
    assert lines[4] == ""  # the file ends in a newline
    fields = [f for line in lines[2:4] for f in line.split(",")]
    assert fields == [f"{float(x):.17g}" for x in values]


def test_json_rejects_non_finite(tmp_path):
    cfg = parse_config(None, [f"outdir={tmp_path}"])
    with pytest.raises(ValueError), _Outputs(cfg) as out:
        out.json("x.json", {"t_detect": float("nan")})


def test_module_entry_point(tmp_path):
    src = str(Path(psyslab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "psyslab", "--quiet", "--set", "n=16",
         "--set", "t_max=0.05", "--set", f"outdir={out}", "simulate"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "run.json").read_text())["status"] == "completed"


def test_import_loads_no_scipy():
    # every command is a fresh process, so it pays the import cost each
    # time; inverting q needs no scipy either
    src = str(Path(psyslab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, psyslab, psyslab.cli, psyslab.verify\n"
            "for law in (psyslab.PressureLaw.quadratic(),"
            " psyslab.PressureLaw(0.3)):\n"
            "    psyslab.state_from_riemann(law, (-1.0, 2.0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def _replay(traj, fail_after=None):
    """A stand-in for ``cli.run`` that passes ``traj``'s snapshots to
    ``on_snapshot`` and returns ``traj``, or raises after ``fail_after``
    of them."""
    def fake_run(law, state0, t0, config, on_snapshot=None):
        for k, (t, state) in enumerate(traj.snapshots):
            if k == fail_after:
                raise RuntimeError("solver failed")
            on_snapshot(t, state)
        return traj
    return fake_run


@pytest.fixture
def writers(monkeypatch):
    """Every process ``cli`` starts during the test, to check each one
    has been waited for."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def _reference_snapshots_csv(cfg, traj, path):
    """snapshots.csv written from one (snapshots * n, 4) array, as before
    the file was streamed; kept as the reference the stream must match."""
    times, states = zip(*traj.snapshots)
    with _Outputs(dataclasses.replace(cfg, outdir=str(path.parent))) as out:
        out.csv(path.name, ("t", "x", "u", "v"), np.column_stack([
            np.repeat(times, cfg.n),
            np.tile(PeriodicGrid(cfg.n).nodes, len(times)),
            np.concatenate([s.u for s in states]),
            np.concatenate([s.v for s in states]),
        ]))


@pytest.mark.parametrize("overrides", [
    ["preset=random_trig", "n=64", "seed=3"], WAVE], ids=["random_trig", "wave"])
def test_streamed_snapshots_match_one_array(tmp_path, monkeypatch, wave_traj,
                                            writers, overrides):
    cfg = parse_config(None, overrides + [f"outdir={tmp_path / 'out'}"])
    traj = wave_traj if overrides is WAVE else cli._run(cfg)
    monkeypatch.setattr(cli, "run", _replay(traj))
    assert cli.cmd_simulate(cfg) == 0
    _reference_snapshots_csv(cfg, traj, tmp_path / "reference.csv")
    out = tmp_path / "out"
    assert ((out / "snapshots.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert sorted(p.name for p in out.iterdir()) == ["run.json", "series.csv",
                                                     "snapshots.csv"]
    assert len(writers) == 1 and writers[0].returncode == 0


def _simulate_fails(out, existing, writers, raises, planted=(), started=1):
    """Run simulate into ``out``, holding ``existing`` snapshots.csv bytes
    and the ``planted`` entries, expect ``raises``, and check that it
    left nothing of its own and waited for the ``started`` writers."""
    if existing is not None:
        (out / "snapshots.csv").write_bytes(existing)
    with raises:
        cli.cmd_simulate(parse_config(None, WAVE + [f"outdir={out}"]))
    left = {"snapshots.csv"} if existing is not None else set()
    assert {p.name for p in out.iterdir()} == left | set(planted)
    if existing is not None:
        assert (out / "snapshots.csv").read_bytes() == existing
    assert not (out / "snapshots.csv.part").is_file()
    assert len(writers) == started
    for writer in writers:
        assert writer.poll() is not None
        assert writer.stdin.closed and writer.stderr.closed


@pytest.mark.parametrize("existing", [None, b"old snapshots\n"],
                         ids=["fresh", "existing"])
def test_failed_snapshot_stream_leaves_no_partial_file(tmp_path, monkeypatch,
                                                      wave_traj, writers,
                                                      existing):
    # the run raises once the writer has the first snapshots
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(cli, "run", _replay(wave_traj, fail_after=3))
    _simulate_fails(out, existing, writers,
                    pytest.raises(RuntimeError, match="solver failed"))


@pytest.mark.parametrize("existing", [None, b"old snapshots\n"],
                         ids=["fresh", "existing"])
def test_failed_snapshot_writer_leaves_no_partial_file(tmp_path, monkeypatch,
                                                      wave_traj, writers,
                                                      existing):
    # the part file is a directory, the test's own, which stays: simulate
    # opens the part file itself, and fails before any writer starts
    out = tmp_path / "out"
    (out / "snapshots.csv.part").mkdir(parents=True)
    monkeypatch.setattr(cli, "run", _replay(wave_traj))
    _simulate_fails(out, existing, writers, pytest.raises(IsADirectoryError),
                    planted=["snapshots.csv.part"], started=0)


def test_simulate_memory_is_bounded_by_one_snapshot(tmp_path, monkeypatch,
                                                    wave_traj):
    # formatting the file as one string took 3.6x its size.  The replayed
    # trajectory is built outside the traced region, so this test cannot
    # see snapshots the solver keeps; the next one runs the solver
    monkeypatch.setattr(cli, "run", _replay(wave_traj))
    cfg = parse_config(None, WAVE + [f"outdir={tmp_path}"])
    tracemalloc.start()
    try:
        assert cli.cmd_simulate(cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "snapshots.csv").stat().st_size / 4


def test_simulate_run_keeps_no_snapshots(tmp_path, monkeypatch):
    # the solver itself, traced: it once kept every snapshot it sent to
    # the writer as well, and peaked at 1.4x their raw bytes here (1605
    # snapshots of n=256, the run storing every step), where it now peaks
    # near the series' size
    monkeypatch.setattr(solver, "SNAPSHOT_STRIDE", 1)
    cfg = parse_config(None, WAVE + [f"outdir={tmp_path}"])
    tracemalloc.start()
    try:
        assert cli.cmd_simulate(cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(tmp_path / "snapshots.csv", "rb") as f:
        rows = sum(1 for _ in f) - 2
    assert peak < 16 * rows / 2  # half the snapshots' raw (u, v) bytes


def test_series_is_one_float64_array_written_as_series_csv(tmp_path,
                                                           monkeypatch):
    # the run's rows are made one array at its end: one 48-byte row at
    # t = 0 and one per step, owning its memory; series.csv holds those
    # rows
    runs = []

    def recording_run(*args):
        runs.append(solver.run(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    cfg = parse_config(None, ["preset=simple_wave", "n=64", "t_max=0.8",
                              f"outdir={tmp_path}"])
    assert cli.cmd_simulate(cfg) == 0
    (traj,) = runs
    series, steps = traj.series, traj.steps
    assert series.dtype == np.float64 and series.shape == (steps + 1, 6)
    assert series.nbytes == 48 * (steps + 1) and series.base is None
    assert series.flags.c_contiguous
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[1] == ",".join(psyslab.SERIES_COLUMNS)
    assert np.array_equal(np.loadtxt(lines[2:], delimiter=","), series)
    # its snapshots went to the writer: t0 comes from the series
    assert traj.snapshots == [] and traj.t0 == 0.0
    refused = solver.run(cfg.law_obj(), psyslab.constant_state(
        PeriodicGrid(64), 0.0, 0.0), 0.25, SolverConfig(cfg.t_max))
    assert refused.status is solver.RunStatus.admission_refused
    assert refused.series.shape == (1, 6) and refused.series.base is None


def test_writer_memory_is_bounded_by_one_snapshot(tmp_path, wave_traj):
    # the writer's formatting, in process, under the parent's bound
    cfg = parse_config(None, WAVE + [f"outdir={tmp_path}"])
    path = tmp_path / "snapshots.csv"
    _reference_snapshots_csv(cfg, wave_traj, path)
    tracemalloc.start()
    try:
        templates = _snapshot_writer.row_templates(cfg.n)
        digest = hashlib.sha256(_csv_head(cfg, ("t", "x", "u", "v")).encode())
        for t, state in wave_traj.snapshots:
            record = [t, *np.column_stack((state.u, state.v)).ravel().tolist()]
            digest.update(
                _snapshot_writer.snapshot_block(templates, record).encode())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < path.stat().st_size / 4


def test_writer_loads_no_numpy(tmp_path):
    # it starts beside the solver, so its start-up delays the first
    # snapshot; -X importtime lists every module it imports
    record = struct.pack("=5d", 0.5, -1.0, 0.25, -1.5, 2.0)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", _snapshot_writer.__file__, "2"],
        input=record, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.decode().splitlines()]
    assert imported and not [m for m in imported
                             if m.split(".")[0] in ("numpy", "psyslab")]
    assert proc.stdout == b"0.5,0,-1,0.25\n0.5,0.5,-1.5,2\n"


def test_writer_rejects_a_truncated_record():
    proc = subprocess.run(
        [sys.executable, _snapshot_writer.__file__, "2"],
        input=struct.pack("=8d", *range(8)), capture_output=True, timeout=120)
    assert proc.returncode != 0
    assert b"a record ended after 24 of 40 bytes" in proc.stderr
    # the complete record before it was written
    assert proc.stdout == b"0,0,1,2\n0,0.5,3,4\n"


def test_writer_without_exactly_one_argument_prints_usage(tmp_path):
    # its one argument is n; the old command line (path, n, head) makes
    # no file either
    for args in ([], [str(tmp_path / "s.csv"), "2", "t,x,u,v\n"]):
        proc = subprocess.run(
            [sys.executable, _snapshot_writer.__file__, *args],
            input=struct.pack("=5d", *range(5)), capture_output=True,
            timeout=120)
        assert proc.returncode != 0
        assert b"usage:" in proc.stderr and proc.stdout == b""
    assert not (tmp_path / "s.csv").exists()


def _simulate_snapshots(out):
    """Run a small simulate into ``out`` and return its snapshots.csv."""
    assert run_cli("--set", "preset=simple_wave", "--set", "n=64",
                   "--set", "t_max=0.2", "--set", f"outdir={out}",
                   "simulate") == 0
    assert sorted(p.name for p in out.iterdir()) == ["run.json", "series.csv",
                                                     "snapshots.csv"]
    return (out / "snapshots.csv").read_bytes()


@pytest.mark.parametrize("module, source", [
    # site imports sitecustomize from PYTHONPATH at start-up
    ("sitecustomize", "import sys\nsys.exit(3)\n"),
    # stdout carries the rows: a sitecustomize that prints would add one
    ("sitecustomize", "print('a line from sitecustomize')\n"),
    # array is an extension module in lib-dynload, after PYTHONPATH
    ("array", "raise ImportError('a stand-in for array')\n"),
], ids=["sitecustomize", "sitecustomize_prints", "array"])
def test_writer_ignores_the_callers_python_environment(tmp_path, monkeypatch,
                                                       module, source):
    # the writer once ran with the caller's PYTHONPATH and site, and so
    # exited with status 1 before it read a snapshot
    reference = _simulate_snapshots(tmp_path / "reference")
    hooks = tmp_path / "hooks"
    hooks.mkdir()
    (hooks / f"{module}.py").write_text(source)
    monkeypatch.setenv("PYTHONPATH", str(hooks))
    snapshots = _simulate_snapshots(tmp_path / "out")
    assert (hashlib.sha256(snapshots).hexdigest()
            == hashlib.sha256(reference).hexdigest())


def test_writer_nodes_are_the_grid_nodes():
    # the writer derives x_j = j/n itself: the same bits as the grid's
    for n in (2**k for k in range(4, 13)):
        assert _snapshot_writer.row_templates(n) == [
            ",%s,%%.17g,%%.17g\n" % ("%.17g" % x)
            for x in PeriodicGrid(n).nodes.tolist()]


def test_trace_emits_curves_and_classification(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=simple_wave", "--set", "n=256",
                   "--set", "t_max=1.0", "--set", "curve_seeds=2",
                   "--set", f"outdir={out}", "trace")
    assert code == 0
    cls = json.loads((out / "classification.json").read_text())
    assert len(cls["curves"]) == 8
    assert (out / "curve_first_forward_0.csv").exists()
    header = (out / "curve_first_forward_0.csv").read_text().splitlines()[1]
    assert header == "t,x,u,r1,r2,beta,K_accum"
    assert cls["thresholds"]["growth_factor"] == 10.0


def test_trace_reports_the_spot_check_of_its_curves(tmp_path, monkeypatch,
                                                   near_interface_spotcheck):
    # criterion 9 on trace's own run: the near-interface wave of the spot
    # check fixture, traced once, lists its B labels beside a spot check
    # of the same curves that finds no (B, B) pair
    import psyslab.characteristics as characteristics
    traced = []
    original = cli.trace_batch

    def counting(traj, starts, direction):
        traced.append(len(starts))
        return original(traj, starts, direction)

    monkeypatch.setattr(cli, "trace_batch", counting)
    # a spot check that traced its own curves would call this, and fail
    monkeypatch.setattr(characteristics, "trace_batch", None)
    t_star = psyslab.crossing_time_oracle(psyslab.PressureLaw.quadratic(),
                                          -0.55, 0.5, 1)
    out = tmp_path / "out"
    assert run_cli(*sets(["preset=simple_wave", "u0=-0.55", "amplitude=0.5",
                          "n=512", f"t_max={2.0 * t_star!r}", "curve_seeds=32",
                          f"outdir={out}"]), "trace") == 0
    assert traced == [64, 64]  # one batch a direction, no curve twice
    cls = json.loads((out / "classification.json").read_text())
    violations, labels = near_interface_spotcheck
    assert cls["spotcheck_violations"] == violations == []
    assert sorted(c["label"] for c in cls["curves"]) == sorted(labels)
    assert {"B_plus", "B_minus"} & {c["label"] for c in cls["curves"]}


def test_trace_labels_by_the_spot_checks_growth_factor(tmp_path, monkeypatch):
    # the value that plants a dual-growth violation in verify's sweep
    # (test_scenario_sweep_fails_a_dual_growth_violation) moves trace's
    # labels and its reported threshold too: one B rule for both
    import psyslab.characteristics as characteristics

    def labels_and_threshold(name):
        out = tmp_path / name
        assert run_cli(*sets(WAVE + [f"outdir={out}"]), "trace") == 0
        cls = json.loads((out / "classification.json").read_text())
        return ([c["label"] for c in cls["curves"]],
                cls["thresholds"]["growth_factor"])

    labels, threshold = labels_and_threshold("clean")
    monkeypatch.setattr(characteristics, "GROWTH_FACTOR", 1.0)
    planted, planted_threshold = labels_and_threshold("planted")
    assert (threshold, planted_threshold) == (10.0, 1.0)
    assert len(planted) == len(labels) == 32
    assert "B_plus" not in labels and "B_plus" in planted


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
    # the report of a traceable run has the same keys, but for the error
    traced = tmp_path / "traced"
    assert run_cli("--set", "n=16", "--set", "t_max=0.05", "--set", "curve_seeds=1",
                   "--set", f"outdir={traced}", command) == 0
    # predict's reason for a null minimum is the error's to give here
    traced_keys = set(json.loads((traced / report).read_text()))
    assert set(rep) == traced_keys - {"reason"} | {"error"}
    assert rep.get("spotcheck_violations") is None


@pytest.mark.parametrize("command, report", [("trace", "classification.json"),
                                             ("predict", "predict.json")])
def test_untraceable_run_opens_one_outputs(tmp_path, monkeypatch, command, report):
    # the report of a run with nothing to trace is published through the
    # one _Outputs the command opens: never two on one outdir at once
    open_now, most = [], []

    class Counting(cli._Outputs):
        def __enter__(self):
            open_now.append(self)
            most.append(len(open_now))
            return super().__enter__()

        def __exit__(self, *exc_info):
            open_now.remove(self)
            return super().__exit__(*exc_info)

    monkeypatch.setattr(cli, "_Outputs", Counting)
    out = tmp_path / "out"
    args = []
    for item in ["preset=constant", "u0=-0.0005", "n=64", "t_max=0.5",
                 f"outdir={out}"]:
        args += ["--set", item]
    assert run_cli(*args, command) == 1
    assert (out / report).exists()
    assert max(most) == 1 and not open_now


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
    assert rows[1] == "family,x0,beta0,t_predicted"
    assert [row.split(",")[0] for row in rows[2:]] == ["1"] * 8 + ["2"] * 8


def test_predict_follows_both_families(tmp_path):
    # predict once followed family 1 alone, and wrote a null minimum for
    # this run, though it ends resolution_lost at 0.907 and a family-2
    # curve predicts 0.968
    out = tmp_path / "out"
    assert run_cli(*sets(["preset=random_trig", "seed=3", "t_max=5",
                          f"outdir={out}"]), "predict") == 0
    pred = json.loads((out / "predict.json").read_text())
    assert pred["solver_status"] == "resolution_lost"
    assert pred["t_predicted_min"] is not None
    rows = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=2)
    predicting = rows[~np.isnan(rows[:, 3])]
    assert pred["n_predicting"] == len(predicting) >= 1
    assert pred["t_predicted_min"] == predicting[:, 3].min()
    assert predicting[predicting[:, 3].argmin(), 0] == 2


def test_predict_says_why_no_curve_predicts(tmp_path):
    # the run ends resolution_lost at t = 0.631, yet predict.json held a
    # null t_predicted_min and n_predicting 0 with no word of why
    out = tmp_path / "out"
    assert run_cli(*sets(["preset=random_trig", "seed=0", "t_max=5",
                          f"outdir={out}"]), "predict") == 0
    pred = json.loads((out / "predict.json").read_text())
    assert pred["solver_status"] == "resolution_lost"
    assert pred["t_predicted_min"] is None and pred["n_predicting"] == 0
    assert pred["reason"] == (
        "no forward curve's 1 + beta0 K reaches 0 in the run's window or "
        "within CONTINUATION = 0.25 of its span past it")
    assert "error" not in pred


def test_predict_elliptic_start_gives_nan_row(tmp_path):
    # every node has u <= -0.05, but the trig interpolant reaches u >= 0
    # at x0 = 5/7: that start is reported, not traced
    out = tmp_path / "out"
    args = []
    for item in ["preset=random_trig", "n=16", "seed=2", "modes=7",
                 "amplitude=0.95", "u0=-1", "t_max=0.0001",
                 "curve_seeds=7", f"outdir={out}"]:
        args += ["--set", item]
    assert run_cli(*args, "predict") == 0
    rows = (out / "predictions.csv").read_text().splitlines()[2:]
    # family 1's rows, then family 2's: each family's start 5 is elliptic
    assert rows.pop(12) == "2,%.17g,nan,nan" % (5 / 7)
    assert rows.pop(5) == "1,%.17g,nan,nan" % (5 / 7)
    assert all(row.split(",")[2] != "nan" for row in rows)
    pred = json.loads((out / "predict.json").read_text())
    assert pred["n_predicting"] == 0 and pred["t_predicted_min"] is None


def test_trace_labels_an_elliptic_start_undetermined(tmp_path):
    # the data of the predict test above: the midpoint x0 = 0.7 lies in
    # the interpolant's u >= 0 pocket, so its curve is reported, not traced
    out = tmp_path / "out"
    args = []
    for item in ["preset=random_trig", "n=16", "seed=2", "modes=7",
                 "amplitude=0.95", "u0=-1", "t_max=0.0001",
                 "curve_seeds=5", f"outdir={out}"]:
        args += ["--set", item]
    assert run_cli(*args, "trace") == 0
    curves = json.loads((out / "classification.json").read_text())["curves"]
    # each family's curves in each direction, the start 0.7 of each elliptic
    assert [c["x0"] for c in curves] == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9] * 4)
    for i, curve in enumerate(curves):
        if i % 5 == 3:
            assert curve["label"] == "undetermined" and curve["error"]
            assert "artifact" not in curve
        else:
            assert "error" not in curve
    assert not list(out.glob("curve_*_3.csv"))
    assert len(list(out.glob("curve_*.csv"))) == 16


def test_energy_elliptic_field(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=constant", "--set", "u0=1.0",
                   "--set", "n=64", "--set", f"outdir={out}", "energy")
    assert code == 0
    rep = json.loads((out / "energy.json").read_text())
    # E = f(1) on the unit circle: log 2 under log1p, 1/2 under rational
    assert rep["log1p"]["E"] == pytest.approx(0.6931471805599453)
    assert rep["rational"]["E"] == pytest.approx(0.5)
    for gauge in ("log1p", "rational"):
        assert rep[gauge]["identity_gap"] < 1e-12
    assert "gauge" not in rep


def test_energy_rejects_hyperbolic_field(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=constant", "--set", "u0=-1.0",
                   "--set", "n=64", "--set", f"outdir={out}", "energy")
    assert code == 1
    assert "u >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_energy_overflow_is_an_error_line(tmp_path, capsys):
    # the state passes validation, but its diagnostics overflow under this
    # law; they used to come out NaN and end in a traceback from the JSON
    # writer, with an empty outdir
    out = tmp_path / "out"
    code = run_cli("--set", "preset=elliptic_random", "--set", "quartic_a=1e307",
                   "--set", "n=64", "--set", f"outdir={out}", "energy")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_energy_elliptic_random_preset(tmp_path):
    out = tmp_path / "out"
    code = run_cli("--set", "preset=elliptic_random", "--set", "seed=5",
                   "--set", "n=128", "--set", f"outdir={out}", "energy")
    assert code == 0
    rep = json.loads((out / "energy.json").read_text())
    for gauge in ("log1p", "rational"):
        assert rep[gauge]["ddot_formula"] <= 1e-10
        assert rep[gauge]["identity_gap"] < 1e-8


SMALL_VERIFY = ["verify_seeds=2", "t_max=10", "n=128", "wave_n=256"]


def sets(items):
    """``--set`` flags for each ``key=value`` of ``items``."""
    return [arg for item in items for arg in ("--set", item)]


@pytest.fixture(scope="module")
def small_verify(tmp_path_factory):
    """One run of the small verify suite: exit code, outdir and stdout."""
    out = tmp_path_factory.mktemp("verify") / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli(*sets(SMALL_VERIFY + [f"outdir={out}"]), "verify")
    return code, out, stdout.getvalue()


def test_verify_small_suite(tmp_path, small_verify):
    code, out, _ = small_verify
    assert code == 0
    elsewhere = tmp_path / "elsewhere"
    assert run_cli(*sets(SMALL_VERIFY + [f"outdir={elsewhere}"]), "verify") == 0
    agg = json.loads((out / "verify.json").read_text())
    assert agg["all_pass"] is True
    assert agg["n_fail"] == 0
    assert (out / "scenario_constant_rigidity.json").exists()
    assert (out / "scenario_simple_wave_blowup.json").exists()
    # the outdir is not part of the config hash, so it must not enter a file
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(path.name for path in elsewhere.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (elsewhere / name).read_bytes(), name


def _lists_its_gates(rep: dict) -> bool:
    """Whether a report's JSON lists exactly its scenario's ``GATES``."""
    return [(gate["metric"], gate["comparison"], gate["bound"])
            for gate in rep["gates"]] == verify.GATES[rep["scenario_id"]]


def test_verify_counts_every_run_by_status(small_verify):
    # the constant scenario and the simple wave each judge one run, the
    # sweep each seed; a status left out of the counts would fail no gate
    # on it
    _, out, _ = small_verify
    reports = {rep["scenario_id"]: rep for rep in
               json.loads((out / "verify.json").read_text())["reports"]}
    assert set(reports) == set(verify.GATES)
    keys = [f"n_{status.value}" for status in solver.RunStatus]
    sweep = reports["random_hyperbolic_sweep"]["metrics"]
    judged = {"constant_rigidity": 1.0, "simple_wave_blowup": 1.0,
              "random_hyperbolic_sweep": sweep["n_seeds"]}
    for scenario_id, runs in judged.items():
        metrics = reports[scenario_id]["metrics"]
        assert set(keys) <= set(metrics), scenario_id
        assert sum(metrics[key] for key in keys) == runs, scenario_id
    assert all(map(_lists_its_gates, reports.values()))


def test_verify_sweeps_on_n_and_t_max(tmp_path, capsys):
    # the sweep runs on the grid and horizon the config checks were made
    # on, so its report is the library scenario's at those sizes; the
    # constant and energy scenarios, which no key sizes, write the
    # library's one definition of each, the acceptance suite's
    out = tmp_path / "out"
    assert run_cli(*sets(["n=64", "t_max=5", "verify_seeds=2",
                          f"outdir={out}"]), "verify") == 0
    quad = psyslab.PressureLaw.quadratic()
    written = {}
    for lib in (psyslab.scenario_random_hyperbolic_sweep(quad, 2, 5.0, n=64),
                psyslab.scenario_constant(quad),
                psyslab.scenario_energy_identity(quad)):
        rep = json.loads((out / f"scenario_{lib.scenario_id}.json").read_text())
        del rep["tool_version"], rep["config_hash"]
        assert rep == lib.to_dict(), lib.scenario_id
        written[lib.scenario_id] = rep["parameters"]
    assert written == {
        "random_hyperbolic_sweep": {"t_max": 5.0, "spotcheck_points": 4},
        "constant_rigidity": {"u0": -1.0, "v0": 0.0, "t_max": 10.0},
        "energy_identity": {"seed": 42}}


@pytest.mark.parametrize("item", ["verify_n=64", "verify_t_max=5"])
def test_verify_sweep_keys_are_gone(tmp_path, capsys, item):
    # the sweep's grid and horizon are n and t_max
    out = tmp_path / "out"
    assert run_cli(*sets([item, f"outdir={out}"]), "verify") == 2
    key = item.partition("=")[0]
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    [], SMALL_VERIFY, ["verify_seeds=20", "n=512", "t_max=50"],
], ids=["default", "small", "acceptance"])
def test_verify_admits_its_sizes(overrides):
    # MAX_VERIFY_SEEDS bounds the sweep's runs, and admits the acceptance
    # sweep's 20 seeds at n=512; a refused config raises ConfigError
    parse_config(None, overrides, "verify")


def _no_constant(name):
    raise ValueError(f"{name} in a JSON file")


def test_verify_fails_a_refused_scenario_and_reports_the_rest(tmp_path, capsys):
    # under a = 1e308 the constant scenario's run refuses its data: verify
    # ended in that ValueError's traceback, with an empty outdir
    # numpy's overflow and scipy's quad warned ahead of the verdicts, and
    # pytest's error filter fails the test on any warning that escapes
    out = tmp_path / "out"
    code = run_cli(*sets(["preset=elliptic_random", "quartic_a=1e308",
                          "verify_seeds=1", "t_max=1", "n=16", "wave_n=16",
                          f"outdir={out}"]),
                   "verify")
    assert code == 1
    agg = json.loads((out / "verify.json").read_text(),
                     parse_constant=_no_constant)
    assert agg["n_fail"] == len(agg["reports"]) == 7
    for rep in agg["reports"]:
        path = out / f"scenario_{rep['scenario_id']}.json"
        assert json.loads(path.read_text(), parse_constant=_no_constant)
        assert rep["reason"]
    assert "first CFL step" in agg["reports"][0]["reason"]
    captured = capsys.readouterr()
    assert captured.out.count(": fail\n") == 7
    assert "Warning" not in captured.err


def test_verify_fails_an_overflowing_scenario_and_reports_the_rest(tmp_path):
    # under a = 1e300 the Riccati cross-checks raised OverflowError: riccati_k
    # takes (-p'(u))^1.25 of a Python float.  verify ended in its traceback,
    # with an empty outdir; elliptic data takes no step budget, so the
    # config passes validation.  riccati_k now raises DomainError instead
    src = str(Path(psyslab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "psyslab", "--quiet",
         *sets(["preset=elliptic_random", "quartic_a=1e300", "verify_seeds=1",
                "t_max=1", "n=16", "wave_n=16", f"outdir={out}"]), "verify"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == 7
    agg = json.loads((out / "verify.json").read_text(),
                     parse_constant=_no_constant)
    reports = {rep["scenario_id"]: rep for rep in agg["reports"]}
    assert len(reports) == 7
    for scenario_id in reports:
        assert (out / f"scenario_{scenario_id}.json").exists()
    for scenario_id in ("riccati_crosscheck_constant", "riccati_crosscheck_ramp"):
        assert reports[scenario_id]["verdict"] == "fail"
        assert reports[scenario_id]["reason"].startswith("k(u) = ")
    # each report lists its scenario's gates, and the five whose scenario
    # raised hold each without a reading
    raised = {"constant_rigidity", "simple_wave_blowup", "random_hyperbolic_sweep",
              "riccati_crosscheck_constant", "riccati_crosscheck_ramp"}
    for scenario_id, rep in reports.items():
        assert _lists_its_gates(rep), scenario_id
        if scenario_id in raised:
            assert rep["metrics"] == {}
            assert [gate["passed"] for gate in rep["gates"]] == [None] * len(rep["gates"])


# ---------------------------------------------------------------------------
# determinism across commits: the files of a fixed command set against the
# sha256 manifest kept beside this module

MANIFEST = Path(__file__).with_name("outputs.sha256")

#: (directory, overrides, command) of each run the manifest covers, besides
#: the small verify suite
CONTRACT_RUNS = (
    ("simulate", WAVE, "simulate"),
    ("trace", WAVE, "trace"),
    ("predict", WAVE, "predict"),
    ("energy", ["preset=elliptic_random", "seed=5"], "energy"),
    ("trace_quartic", WAVE + ["quartic_a=0.3"], "trace"),
)

_CONFIG_HASH = re.compile(rb'(config_sha256=|"config_hash": ")[0-9a-f]{16}')


def _digest(data: bytes) -> str:
    """sha256 of ``data`` with its config hash zeroed, so that adding or
    removing a config key leaves the digest as it was."""
    return hashlib.sha256(_CONFIG_HASH.sub(rb"\g<1>" + b"0" * 16, data)).hexdigest()


def _manifest() -> dict:
    """The manifest's digest of each file, by its path."""
    return dict(line.split()[::-1] for line in MANIFEST.read_text().splitlines())


def test_outputs_match_manifest(tmp_path, small_verify):
    """Every file of the command set has the bytes the manifest records.

    A change that moves an output on purpose replaces the manifest with
    the one this test writes to its tmp_path on failure, and says which
    files changed and why."""
    _, verify_out, stdout = small_verify
    digests = {"verify/stdout": _digest(stdout.encode())}
    digests.update((f"verify/{path.name}", _digest(path.read_bytes()))
                   for path in verify_out.iterdir())
    for name, overrides, command in CONTRACT_RUNS:
        out = tmp_path / name
        assert run_cli(*sets(overrides + [f"outdir={out}"]), command) == 0
        digests.update((f"{name}/{path.name}", _digest(path.read_bytes()))
                       for path in out.iterdir())
    expected = _manifest()
    if digests != expected:
        (tmp_path / MANIFEST.name).write_text("".join(
            f"{digest}  {name}\n" for name, digest in sorted(digests.items())))
    assert digests == expected


def test_default_trace_follows_both_families_both_directions(tmp_path):
    # trace once followed family 1 forward alone unless told otherwise;
    # by default it now writes what it wrote when told both and both
    out = tmp_path / "out"
    assert run_cli(*sets(WAVE + [f"outdir={out}"]), "trace") == 0
    assert len(list(out.glob("curve_*.csv"))) == 32
    assert (_digest((out / "classification.json").read_bytes())
            == _manifest()["trace/classification.json"])


# ---------------------------------------------------------------------------
# the config space, fuzzed: every command, in-process

_FLOATS = dict(allow_nan=False, allow_infinity=False)

#: a grammar over RunConfig's keys, each drawn or left at its default,
#: with values every command accepts for most presets
_FUZZ_KEYS = {
    "quartic_a": st.sampled_from([0.0, 0.3]),
    "n": st.sampled_from([16, 32, 64]),
    "preset": st.sampled_from(cli.PRESETS),
    "u0": st.floats(-3.0, -0.2, **_FLOATS),
    "v0": st.floats(-2.0, 2.0, **_FLOATS),
    "amplitude": st.floats(0.01, 0.5, **_FLOATS),
    "mode": st.sampled_from([1, 2, -1, 7]),
    "seed": st.integers(0, 3),
    "modes": st.integers(1, 7),
    "curve_seeds": st.integers(1, 4),
}

#: at most one of these follows the drawn keys: each is refused by every
#: preset, or by the presets that read its key, or asks for more than
#: MAX_STEPS steps
_FUZZ_BAD = ["n=48", "preset=bogus", "quartic_a=-0.1", "u0=0.5", "amplitude=0",
             "amplitude=-0.5", "amplitude=1e-300", "mode=0", "mode=40",
             "modes=0", "modes=40", "seed=-1", "curve_seeds=0", "t_max=1e6"]

#: verify's sizes, at their smallest
_FUZZ_VERIFY = ["verify_seeds=1", "t_max=0.5", "n=16", "wave_n=16"]


@st.composite
def _fuzz_configs(draw):
    items = draw(st.fixed_dictionaries({}, optional=_FUZZ_KEYS))
    items["t_max"] = draw(st.floats(0.01, 0.3, **_FLOATS))
    return ([f"{key}={value}" for key, value in items.items()]
            + draw(st.lists(st.sampled_from(_FUZZ_BAD), max_size=1)))


# verify's constant scenario runs 3200 steps at n=256 whatever the config
# (about 1 s, twice that under the quartic law), so verify runs once, at
# its smallest sizes, not at random
@settings(max_examples=50, deadline=15_000, derandomize=True, database=None)
@given(overrides=_fuzz_configs(),
       command=st.sampled_from(["simulate", "trace", "predict", "energy"]))
@example(overrides=_FUZZ_VERIFY, command="verify")
def test_cli_fuzz(overrides, command):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(*sets(overrides + [f"outdir={out}"]), command)
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
        elif code == 0 and command == "simulate":
            cfg = parse_config(None, overrides)
            if cfg.preset != "constant":
                with open(out / "snapshots.csv") as f:
                    rows = list(itertools.islice(f, 2, 2 + cfg.n))
                uv = np.array([row.split(",")[2:] for row in rows], dtype=float)
                assert np.ptp(uv, axis=0).max() > 0.0  # not a constant state


#: each command's small config, and the file it writes last or alone
PART_DIRS = {
    "simulate": (["preset=simple_wave", "n=64", "t_max=0.5"], "snapshots.csv"),
    "trace": (["preset=simple_wave", "n=64", "t_max=0.5"],
              "classification.json"),
    "energy": (["preset=elliptic_random", "n=64"], "energy.json"),
    "verify": (_FUZZ_VERIFY, "verify.json"),
}


@pytest.mark.parametrize("command", PART_DIRS)
def test_write_failure_is_one_error_line(tmp_path, capsys, command):
    # the command's part file is a directory, the test's own: the write
    # fails with an OSError, which main reports as one line, not a traceback
    overrides, name = PART_DIRS[command]
    out = tmp_path / "out"
    part = out / f"{name}.part"
    part.mkdir(parents=True)
    (out / name).write_bytes(b"old bytes\n")
    assert run_cli(*sets(overrides + [f"outdir={out}"]), command) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert repr(str(part)) in err[0]
    assert part.is_dir() and not list(part.iterdir())
    assert (out / name).read_bytes() == b"old bytes\n"


#: each command's small config but t_max, and the file it writes last
LAST_FILES = {
    "simulate": (["preset=simple_wave", "n=64"], "run.json"),
    "trace": (["preset=simple_wave", "n=64"], "classification.json"),
    "predict": (["preset=simple_wave", "n=64"], "predict.json"),
    "energy": (["preset=elliptic_random", "n=64"], "energy.json"),
    "verify": ([o for o in _FUZZ_VERIFY if not o.startswith("t_max=")],
               "verify.json"),
}


@pytest.mark.parametrize("command", LAST_FILES)
def test_failed_write_leaves_one_generation(tmp_path, capsys, command):
    # a rerun with another t_max fails at its last file: every file of
    # the first run keeps its bytes, and no file of the rerun is left
    overrides, last = LAST_FILES[command]
    out = tmp_path / "out"
    assert run_cli(*sets(overrides + ["t_max=0.5", f"outdir={out}"]),
                   command) in (0, 1)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert last in first
    part = out / f"{last}.part"
    part.mkdir()
    capsys.readouterr()
    assert run_cli(*sets(overrides + ["t_max=0.4", f"outdir={out}"]),
                   command) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert part.is_dir() and not list(part.iterdir())
    assert {p.name: p.read_bytes() for p in out.iterdir() if p != part} == first


def test_failed_snapshot_writer_is_one_error_line(tmp_path, capsys,
                                                  monkeypatch, writers):
    # the run sends a snapshot of 16 nodes where the writer reads 64: the
    # writer sees a record cut short and exits 1, which main reports
    def short_record_run(law, state0, t0, config, on_snapshot=None):
        on_snapshot(0.0, psyslab.constant_state(PeriodicGrid(16), -1.0, 0.0))

    monkeypatch.setattr(cli, "run", short_record_run)
    out = tmp_path / "out"
    assert run_cli(*sets(["preset=simple_wave", "n=64", "t_max=0.5",
                          f"outdir={out}"]), "simulate") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: snapshot writer exited with status 1: ")
    assert "a record ended after 264 of 1032 bytes" in err[0]
    assert list(out.iterdir()) == []
    assert len(writers) == 1 and writers[0].returncode == 1
