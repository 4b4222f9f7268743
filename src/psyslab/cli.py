"""Command-line front end: flat key=value configs, scenario dispatch,
CSV/JSON emission for plots and CI.

Subcommands: simulate, trace, predict, energy, verify.
Exit codes: 0 success / all scenarios pass, 1 scenario failure or
error, 2 configuration error; ``main`` alone prints a failure's one
stderr line.  A run that ends in blow-up exits 0: blow-up is a result.

A config is validated once, before any command runs, by building what
it names (grids, law, solver config, gauge, initial state) and making
the solver's up-front checks on that state: each rule lives in the
object that holds it, and its ValueError is a config error.  So no
command raises a config error once it has started, but for an outdir
it cannot make.
The solver config's ``hyperbolicity_eps`` places the interface both for
the run and for the curves ``trace`` and ``predict`` follow through it.

All emission is data-only (plotting is left to external tools), floats
carry 17 significant digits, and identical config + seed reproduces
byte-identical files.  CSV files start with a comment line carrying the
tool version and the config hash; JSON files carry the same pair as
top-level fields, comments not being valid JSON.

A command's files, ``snapshots.csv`` too, are written to ``<name>.part``
in the outdir and renamed into place together once the command has
written them all (``_Outputs``), so a failure leaves every older file
as it was.  ``snapshots.csv`` (one row of about 73 bytes per node and
stored snapshot) is formatted by a second process,
``_snapshot_writer.py``, that ``simulate`` starts, isolated (``-I -S``),
before the run, with n as its one argument and, as its stdout, the
part file ``simulate`` has opened and headed.  ``simulate`` pipes it
each snapshot's raw floats as the run stores it, so the two overlap,
and the run keeps none: the memory either process takes for the
snapshots is bounded by one snapshot, not by the file.  The writer is
reaped before any part file is renamed or removed, whatever the outcome.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, _snapshot_writer
from .characteristics import (CURVE_COLUMNS, GROWTH_FACTOR, STEP_FACTOR,
                              ClassLabel, Direction, classify, predict_blowup,
                              spotcheck_points, trace_batch)
from .energy import (ConcaveGauge, energy, energy_ddot_direct,
                     energy_ddot_formula)
from .errors import ConfigError, EllipticStart, PsyslabError, WindowTooShort
from .field import PeriodicGrid
from .pressure import PressureLaw
from .riemann import Family
from .solver import SERIES_COLUMNS, SolverConfig, run, start
from .verify import (constant_state, default_suite, random_elliptic_state,
                     random_trig_state, simple_wave_state)

PRESETS = ("constant", "simple_wave", "random_trig", "elliptic_random")

#: the most bytes a command may keep from its run, estimated from its
#: steps, t_max over the first CFL step: a float64 series row a
#: step, and for ``trace`` and ``predict`` 16n a kept snapshot and
#: ``CURVE_BYTES`` a traced curve plus ``CURVE_SAMPLE_BYTES`` a sample.
#: The default ``trace`` (n = 256, t_max = 10) keeps 3.1 MB
MAX_KEPT_BYTES = 2**32

#: a traced curve's bytes a sample: ``trace_batch`` peaks at 106 with its
#: 6 float64 buffer columns and the curve's 7 (measured with tracemalloc
#: over 2000 curves of 641 samples), and a curve keeps 58 at 401 samples,
#: 78-100 at 23-44.  A curve takes a sample every ``STEP_FACTOR`` snapshots
CURVE_SAMPLE_BYTES = 106

#: a traced curve's fixed bytes, its 7 arrays and its CharacteristicCurve:
#: ``trace_batch`` peaks 1.1 KB a curve above ``CURVE_SAMPLE_BYTES`` a
#: sample at 500-2000 curves (n = 64), 1.4 KB at 200 (n = 256).  The
#: field's rows in that 1.4 KB are a cost per call, not per curve (2.4 KB
#: a curve at 50 curves): the 16n-a-snapshot term covers them
CURVE_BYTES = 1536

#: the most runs, one a seed, ``verify``'s sweep may make
MAX_VERIFY_SEEDS = 1000


@dataclass
class RunConfig:
    quartic_a: float = 0.0
    n: int = 256
    preset: str = "constant"
    u0: float = -1.0
    v0: float = 0.0
    amplitude: float = 0.3
    mode: int = 1
    seed: int = 0
    modes: int = 3
    t_max: float = 10.0
    cfl_safety: float = SolverConfig.cfl_safety
    grad_blowup_factor: float = SolverConfig.grad_blowup_factor
    tail_ratio_max: float = SolverConfig.tail_ratio_max
    hyperbolicity_eps: float = SolverConfig.hyperbolicity_eps
    snapshot_stride: int = SolverConfig.snapshot_stride
    outdir: str = "out"
    curve_seeds: int = 8
    family: str = "first"
    direction: str = "forward"
    growth_factor: float = GROWTH_FACTOR
    gauge: str = "log1p"
    verify_seeds: int = 5
    wave_n: int = 512

    def law_obj(self) -> PressureLaw:
        return PressureLaw(self.quartic_a)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**{f.name: getattr(self, f.name)
                               for f in dataclasses.fields(SolverConfig)})

    def config_hash(self) -> str:
        """Hash of the run-defining keys (output location excluded)."""
        canon = "\n".join(f"{f.name}={getattr(self, f.name)!r}"
                          for f in sorted(dataclasses.fields(self),
                                          key=lambda f: f.name)
                          if f.name != "outdir")
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_CONVERTERS = {"int": int, "float": float, "str": str}


def _coerce(key: str, raw: str, where: str):
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    conv = _CONVERTERS[_FIELDS[key]]
    try:
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    if conv is float and not math.isfinite(value):
        raise ConfigError(f"{where}: {key!r} must be finite, got {raw!r}")
    return value


#: the members each ``family`` and ``direction`` value names
_FAMILIES = {"first": [Family.first], "second": [Family.second],
             "both": [Family.first, Family.second]}
_DIRECTIONS = {"forward": [Direction.forward], "backward": [Direction.backward],
               "both": [Direction.forward, Direction.backward]}


def _validate(cfg: RunConfig, command=None) -> RunConfig:
    """Build every library object the config names and make the solver's
    up-front checks (``solver.start``, its step budget included) on the
    preset's state, turning their ValueErrors into ConfigErrors; check
    here only what none of them holds: the bytes ``command``, when given,
    keeps (``trace`` and ``predict`` keep their snapshots and curves)."""
    for key, table in (("family", _FAMILIES), ("direction", _DIRECTIONS)):
        if getattr(cfg, key) not in table:
            raise ConfigError(f"{key} must be one of {', '.join(table)}, "
                              f"got {getattr(cfg, key)!r}")
    if cfg.curve_seeds < 1:
        raise ConfigError(f"curve_seeds = {cfg.curve_seeds} must be >= 1")
    if not 1 <= cfg.verify_seeds <= MAX_VERIFY_SEEDS:
        raise ConfigError(f"verify_seeds must be in [1, {MAX_VERIFY_SEEDS}]")
    if not cfg.growth_factor >= 1.0:
        raise ConfigError(f"growth_factor = {cfg.growth_factor:g} must be >= 1")
    if command == "predict" and cfg.family == "both":
        raise ConfigError("predict traces one family: family must be "
                          "first or second")
    where = ""  # names the keys or preset an error comes from
    try:
        for key in ("n", "wave_n"):
            n = getattr(cfg, key)
            where = f"{key} = {n}: "
            if n > 4096:
                raise ValueError("grid size must be <= 4096")
            PeriodicGrid(n)
        where = ""
        law = cfg.law_obj()
        config = cfg.solver_config()
        ConcaveGauge(cfg.gauge)
        where = f"preset {cfg.preset}: "
        state0 = build_initial_state(cfg, PeriodicGrid(cfg.n))
        where = ""
        *_, dt0 = start(law, state0, 0.0, config)
        # data that admission refuses takes no step
        if dt0 is not None:
            steps = cfg.t_max / dt0
            kept = 8 * len(SERIES_COLUMNS) * steps
            if command in ("trace", "predict"):
                curves = cfg.curve_seeds * (
                    len(_FAMILIES[cfg.family]) * len(_DIRECTIONS[cfg.direction])
                    if command == "trace" else 1)
                samples = steps / (STEP_FACTOR * cfg.snapshot_stride) + 1
                kept += ((steps // cfg.snapshot_stride + 2) * 16 * cfg.n
                         + curves * (samples * CURVE_SAMPLE_BYTES
                                     + CURVE_BYTES))
            if kept > MAX_KEPT_BYTES:
                raise ValueError(f"{command} would keep about {kept:.3g} bytes "
                                 f"of its {steps:.0f} steps, more than "
                                 f"MAX_KEPT_BYTES = {MAX_KEPT_BYTES}")
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc
    return cfg


def parse_config(path=None, overrides=(), command=None) -> RunConfig:
    """Assemble the effective config: defaults, then file, then --set
    flags, and validate it for ``command`` (see ``_validate``)."""
    cfg = RunConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip().strip('"')
            setattr(cfg, key, _coerce(key, raw, f"{path}:{lineno}"))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        setattr(cfg, key, _coerce(key, raw, f"--set {key}"))
    return _validate(cfg, command)


def _echo_config(cfg: RunConfig):
    for f in dataclasses.fields(cfg):
        print(f"config: {f.name} = {getattr(cfg, f.name)}", file=sys.stderr)


def build_initial_state(cfg: RunConfig, grid: PeriodicGrid):
    """The preset's initial state; an unknown preset, or parameters the
    preset rejects, raise ValueError."""
    if cfg.preset == "constant":
        return constant_state(grid, cfg.u0, cfg.v0)
    if cfg.preset == "simple_wave":
        return simple_wave_state(cfg.law_obj(), grid, cfg.u0,
                                 cfg.amplitude, cfg.mode, cfg.v0)
    if cfg.preset == "random_trig":
        return random_trig_state(grid, cfg.seed, cfg.modes, cfg.amplitude,
                                 cfg.u0)
    if cfg.preset == "elliptic_random":
        return random_elliptic_state(grid, np.random.default_rng(cfg.seed))
    raise ValueError(f"unknown preset, expected one of {', '.join(PRESETS)}")


def _run(cfg: RunConfig, on_snapshot=None):
    """Solve the config's initial-value problem from t = 0, through the
    module's ``run``, so that a wrapper installed on it sees the call."""
    return run(cfg.law_obj(), build_initial_state(cfg, PeriodicGrid(cfg.n)),
               0.0, cfg.solver_config(), on_snapshot)


# ---------------------------------------------------------------------------
# emission

def _csv_head(cfg: RunConfig, columns) -> str:
    return (f"# psyslab {__version__} config_sha256={cfg.config_hash()}\n"
            f"{','.join(columns)}\n")


class _Outputs:
    """A command's files, each written to ``<name>.part`` in the outdir,
    which making one makes (a ConfigError if it cannot).  A clean exit
    renames every part into place in the order written; an exception, or
    a failed rename, removes every part not yet renamed (a directory of
    that name is left alone) and goes on."""

    def __init__(self, cfg: RunConfig):
        self.cfg, self.dir, self.parts = cfg, Path(cfg.outdir), []
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"outdir {cfg.outdir!r} is not writable: {exc}") from exc

    def __enter__(self):
        return self

    def part(self, name: str) -> Path:
        self.parts.append(self.dir / f"{name}.part")
        return self.parts[-1]

    def _write(self, name: str, *texts: str):
        with open(self.part(name), "w") as f:
            f.writelines(texts)

    def csv(self, name: str, columns, data):
        """Write the 2-D float array ``data``, one row per line, each
        value with 17 significant digits."""
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        body = (row * len(data)) % tuple(data.ravel().tolist())
        self._write(name, _csv_head(self.cfg, columns), body)

    def json(self, name: str, payload: dict):
        payload = {"tool_version": __version__,
                   "config_hash": self.cfg.config_hash(), **payload}
        self._write(name, json.dumps(payload, sort_keys=True, indent=2,
                                     allow_nan=False) + "\n")

    def __exit__(self, exc_type, exc, tb):
        try:
            while exc_type is None and self.parts:
                os.replace(self.parts[0], self.parts[0].with_suffix(""))
                del self.parts[0]
        finally:
            for part in self.parts:
                if not part.is_dir():
                    part.unlink(missing_ok=True)


class _SnapshotStream:
    """``run``'s ``on_snapshot`` for ``simulate``.  Entering it opens
    ``part`` (so a part file it cannot write fails before any process
    starts), writes the CSV head and starts a ``_snapshot_writer.py``
    process with ``part`` as its stdout; each snapshot is piped to it,
    and it appends the rows ``t,x,u,v`` as ``_Outputs.csv`` writes them.
    ``t_end`` is the time of the last snapshot sent.  ``simulate`` opens
    it on ``out.part("snapshots.csv")`` inside its ``_Outputs`` block.

    A clean exit closes the writer's input, waits for it and raises
    OSError with the last line of its stderr unless it exited 0; so does
    an exit on the BrokenPipeError a writer that failed first leaves.  An
    exit on any other exception kills a writer still running and reaps
    it.  No writer outlives the block; ``main`` reports the OSError."""

    def __init__(self, cfg: RunConfig, part: Path):
        self.cfg, self.part, self.t_end = cfg, part, None

    def __enter__(self):
        from subprocess import PIPE, Popen  # only simulate needs it
        with open(self.part, "w") as out:
            out.write(_csv_head(self.cfg, ("t", "x", "u", "v")))
            out.flush()  # the head goes before the writer's rows
            self.proc = Popen([sys.executable, "-I", "-S",
                               _snapshot_writer.__file__, str(self.cfg.n)],
                              stdin=PIPE, stdout=out, stderr=PIPE)
        return self

    def __call__(self, t: float, state):
        record = np.empty(2 * state.grid.n + 1)
        record[0] = t
        record[1::2] = state.u
        record[2::2] = state.v
        self.proc.stdin.write(record)
        self.t_end = t

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        err = self.proc.communicate()[1].decode(errors="replace").strip()
        # a broken pipe is the writer's exit, not the block's failure
        if exc_type in (None, BrokenPipeError) and self.proc.returncode != 0:
            reason = err.splitlines()[-1] if err else "no message"
            raise OSError(f"snapshot writer exited with status "
                          f"{self.proc.returncode}: {reason}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: RunConfig) -> int:
    with _Outputs(cfg) as out:
        with _SnapshotStream(cfg, out.part("snapshots.csv")) as snapshots:
            traj = _run(cfg, snapshots)
        out.csv("series.csv", SERIES_COLUMNS, traj.series)
        out.json("run.json", {
            "status": traj.status.value,
            "t_detect": traj.t_detect,
            "steps": traj.steps,
            "t_end": snapshots.t_end,
            "law": traj.law.describe(),
        })
    return 0


def _traced(traj, starts, directions):
    """Trace the run: ``({direction: trace_batch(traj, starts, direction)},
    None)``, or ``({}, reason)`` for a run that cannot be traced (it
    ended admission_refused, say)."""
    try:
        return {direction: trace_batch(traj, starts, direction)
                for direction in directions}, None
    except WindowTooShort as exc:
        return {}, (f"run ended {traj.status.value} with "
                    f"{len(traj.snapshots)} snapshot(s): {exc}")


def cmd_trace(cfg: RunConfig) -> int:
    """Curve CSVs and ``classification.json``; an untraceable run gets no
    curves, its reason as the JSON's ``error``, then WindowTooShort."""
    traj = _run(cfg)
    families = _FAMILIES[cfg.family]
    seeds = spotcheck_points(cfg.curve_seeds)
    batches, error = _traced(traj, [(x0, fam) for fam in families for x0 in seeds],
                             _DIRECTIONS[cfg.direction])
    with _Outputs(cfg) as out:
        entries = []
        for fam in families:
            for direction, curves in batches.items():
                for i, x0 in enumerate(seeds):
                    curve = curves[(x0, fam)]
                    entry = {"x0": x0, "family": fam.name,
                             "direction": direction.name}
                    if isinstance(curve, EllipticStart):
                        entries.append({**entry, "error": str(curve),
                                        "label": ClassLabel.undetermined.value})
                        continue
                    name = f"curve_{fam.name}_{direction.name}_{i}.csv"
                    out.csv(name, CURVE_COLUMNS, np.column_stack(
                        [getattr(curve, col) for col in CURVE_COLUMNS]))
                    entries.append({
                        **entry,
                        "label": classify(curve, cfg.growth_factor).value,
                        "termination": ("reached_horizon" if curve.t_hit
                                        is None else "reached_boundary"),
                        "t_hit": curve.t_hit, "artifact": name})
        out.json("classification.json", {
            "run_status": traj.status.value,
            "curves": entries,
            # each curve is classified over the whole window the run computed
            "thresholds": {"horizon": traj.t_end - traj.t0,
                           "growth_factor": cfg.growth_factor,
                           "hyperbolicity_eps": cfg.hyperbolicity_eps},
            **({"error": error} if error else {}),
        })
    if error:
        raise WindowTooShort(error)
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    """``predictions.csv`` and ``predict.json``; an untraceable run gets
    only the JSON, its reason as ``error``, then WindowTooShort."""
    fam = Family[cfg.family]
    traj = _run(cfg)
    seeds = np.arange(cfg.curve_seeds) / cfg.curve_seeds
    batches, error = _traced(traj, [(x0, fam) for x0 in seeds],
                             [Direction.forward])
    with _Outputs(cfg) as out:
        # rows x0, beta0, t_predicted; an elliptic start keeps nan in both
        table = np.full((len(seeds), 3), np.nan)
        table[:, 0] = seeds
        for row, curve in zip(table, batches.get(Direction.forward, {}).values()):
            if not isinstance(curve, EllipticStart):
                t = predict_blowup(curve)
                row[1:] = curve.beta[0], np.nan if t is None else t
        if not error:
            out.csv("predictions.csv", ("x0", "beta0", "t_predicted"), table)
        predictions = table[~np.isnan(table[:, 2]), 2].tolist()
        out.json("predict.json", {
            "family": fam.name,
            "t_predicted_min": min(predictions) if predictions else None,
            "n_predicting": len(predictions),
            "solver_status": traj.status.value,
            "solver_t_detect": traj.t_detect,
            **({"error": error} if error else {}),
        })
    if error:
        raise WindowTooShort(error)
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    law = cfg.law_obj()
    state = build_initial_state(cfg, PeriodicGrid(cfg.n))
    gauge = ConcaveGauge(cfg.gauge)
    with np.errstate(over="raise", invalid="raise"):
        e = energy(state, gauge)
        d_formula = energy_ddot_formula(law, state, gauge)
        d_direct = energy_ddot_direct(law, state, gauge)
    with _Outputs(cfg) as out:
        out.json("energy.json", {
            "E": e,
            "ddot_formula": d_formula,
            "ddot_direct": d_direct,
            "identity_gap": abs(d_direct - d_formula),
            "gauge": cfg.gauge,
            "law": law.describe(),
        })
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    with _Outputs(cfg) as out:
        reports = default_suite(cfg.law_obj(), cfg.verify_seeds, cfg.t_max,
                                cfg.n, cfg.wave_n)
        for rep in reports:
            rep.artifacts.append(f"scenario_{rep.scenario_id}.json")
            out.json(rep.artifacts[-1], rep.to_dict())
        counts = {"pass": 0, "fail": 0, "inconclusive": 0}
        for rep in reports:
            counts[rep.verdict] += 1
        out.json("verify.json", {
            "reports": [rep.to_dict() for rep in reports],
            "n_pass": counts["pass"],
            "n_fail": counts["fail"],
            "n_inconclusive": counts["inconclusive"],
            "all_pass": counts["pass"] == len(reports),
        })
    for rep in reports:
        print(f"{rep.scenario_id}: {rep.verdict}")
    return 0 if counts["pass"] == len(reports) else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "trace": cmd_trace,
    "predict": cmd_predict,
    "energy": cmd_energy,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    """Run one command.  Only here does a failure become one stderr line
    and an exit code: 2 for a ConfigError, 1 for another PsyslabError, a
    FloatingPointError or an OSError (a failed write, say)."""
    parser = argparse.ArgumentParser(
        prog="psyslab",
        description="Numerical laboratory for the mixed-type p-system "
                    "u_t = -v_x, v_t = (p(u))_x on the unit circle.")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the config echo")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides, args.command)
        if not args.quiet:
            _echo_config(cfg)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PsyslabError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())
