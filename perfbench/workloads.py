"""The benchmark's workloads: inputs from a seed, one timed run, checks.

Each workload has three steps.  ``prepare(seed)`` builds the inputs
(this is the set-up that ``setup_s`` times in a fresh process).
``run(inputs)`` is the timed call into psyslab.  ``check(outcome)``
runs afterwards, outside the timed region, and returns how many units
were attempted and one problem string per failed unit.

psyslab functions are looked up on their modules at call time, so the
wrappers that ``tracing.Tracer`` installs are seen.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import psyslab.characteristics as characteristics
import psyslab.cli as cli
import psyslab.solver as solver
import psyslab.verify as verify
from psyslab.field import PeriodicGrid
from psyslab.pressure import PressureLaw
from psyslab.solver import RunStatus, SolverConfig

#: where simulate writes its temporary outdirs (removed after each check)
OUT = Path(__file__).resolve().parent / "out"


class Wave:
    """Acceptance 3: simple-wave blow-up triangulated at n=1024.

    No random input: the seed is ignored.  One trajectory carries about
    80 curves, so this run is mostly field evaluation in the tracer.
    """

    name = "wave"
    units_per_run = 1
    min_runs = 1
    GAP_MAX = 0.05

    def __init__(self, n=1024, curves=32, drift_seeds=8, spotcheck_seeds=8,
                 drift_max=1e-4):
        self.n = n
        self.curves = curves
        self.drift_seeds = drift_seeds
        self.spotcheck_seeds = spotcheck_seeds
        self.drift_max = drift_max

    def prepare(self, seed: int):
        law = PressureLaw.quadratic()
        # the scenario builds its own state from these parameters; building
        # it here too makes setup_s include what a user's first call pays
        verify.simple_wave_state(law, PeriodicGrid(self.n), -1.0, 0.3, 1)
        return law

    def run(self, law):
        return verify.scenario_simple_wave_blowup(
            law, -1.0, 0.3, 1, n=self.n, n_curve_seeds=self.curves,
            drift_seeds=self.drift_seeds, spotcheck_seeds=self.spotcheck_seeds)

    def check(self, report):
        m = report.metrics
        bad = []
        if report.verdict != verify.PASS:
            bad.append(f"verdict {report.verdict}: {report.reason}")
        for key in ("gap_detect_oracle", "gap_predicted_oracle",
                    "gap_detect_predicted"):
            if not m.get(key, float("inf")) < self.GAP_MAX:
                bad.append(f"{key} = {m.get(key)} not below {self.GAP_MAX}")
        if not m.get("invariant_drift_max", float("inf")) < self.drift_max:
            bad.append(f"invariant drift {m.get('invariant_drift_max')} "
                       f"not below {self.drift_max}")
        if m.get("spotcheck_violations") != 0.0:
            bad.append(f"{m.get('spotcheck_violations')} spot-check violations")
        return 1, (["; ".join(bad)] if bad else [])


class Sweep:
    """Acceptance 4: 20 random hyperbolic seeds at n=512, each run to its
    catastrophe and spot-checked with 4 seed points.

    Workload seed s uses data seeds 20s .. 20s+19, so seed 0 is exactly
    the acceptance configuration.
    """

    name = "sweep"
    min_runs = 1
    TERMINAL = (RunStatus.blow_up_detected, RunStatus.resolution_lost)
    MODES, AMPLITUDE, U_OFFSET, T_MAX = 3, 0.25, -1.0, 50.0

    def __init__(self, n=512, seeds=20, spotcheck_seeds=4):
        self.n = n
        self.seeds = seeds
        self.spotcheck_seeds = spotcheck_seeds
        self.units_per_run = seeds

    def prepare(self, seed: int):
        grid = PeriodicGrid(self.n)
        states = [(s, verify.random_trig_state(grid, s, self.MODES,
                                               self.AMPLITUDE, self.U_OFFSET))
                  for s in range(self.seeds * seed, self.seeds * (seed + 1))]
        return PressureLaw.quadratic(), SolverConfig(t_max=self.T_MAX), states

    def run(self, inputs):
        law, config, states = inputs
        outcomes = []
        for data_seed, state in states:
            traj = solver.run(law, state, 0.0, config)
            spot = characteristics.dual_growth_spotcheck(traj, self.spotcheck_seeds)
            outcomes.append((data_seed, traj.status, len(spot.violations)))
        return outcomes

    def check(self, outcomes):
        return self.seeds, [f"data seed {s}: status {status.value}, {v} violations"
                            for s, status, v in outcomes
                            if status not in self.TERMINAL or v != 0]


class Simulate:
    """``psyslab simulate`` in-process: simple wave, n=1024, t_max=2.2.

    No random input: the seed is ignored.  Most of the time goes into
    formatting a ~47 MB snapshots.csv; the tracer does no work.  Every
    repeat must write a byte-identical snapshots.csv.
    """

    name = "simulate"
    units_per_run = 1
    # at least 2 for the determinism check; 3 (15-20 s) so that the
    # median spans a good part of one wave run
    min_runs = 3

    def __init__(self, n=1024, t_max=2.2, scratch: Path = OUT):
        self.overrides = ["preset=simple_wave", f"n={n}", f"t_max={t_max}"]
        self.scratch = scratch
        self.expected_sha256 = None  # set by the first repeat
        self.bytes_written = 0  # by the last repeat

    def prepare(self, seed: int):
        cfg = cli.parse_config(None, self.overrides)
        cli.build_initial_state(cfg, PeriodicGrid(cfg.n))
        return self.overrides

    def run(self, overrides):
        self.scratch.mkdir(parents=True, exist_ok=True)
        outdir = tempfile.mkdtemp(prefix="simulate-", dir=self.scratch)
        argv = ["--quiet"]
        for item in overrides + [f"outdir={outdir}"]:
            argv += ["--set", item]
        try:
            return cli.main(argv + ["simulate"]), Path(outdir)
        except BaseException:
            shutil.rmtree(outdir, ignore_errors=True)
            raise

    def check(self, outcome):
        rc, outdir = outcome
        try:
            bad = []
            if rc != 0:
                bad.append(f"exit code {rc}")
            run_json = outdir / "run.json"
            status = (json.loads(run_json.read_text()).get("status")
                      if run_json.is_file() else None)
            if status not in {s.value for s in RunStatus}:
                bad.append(f"run.json status {status!r}")
            snapshots = outdir / "snapshots.csv"
            digest = (hashlib.sha256(snapshots.read_bytes()).hexdigest()
                      if snapshots.is_file() else None)
            if self.expected_sha256 is None:
                self.expected_sha256 = digest
            if digest is None or digest != self.expected_sha256:
                bad.append(f"snapshots.csv sha256 {digest} differs from "
                           f"{self.expected_sha256}")
            self.bytes_written = sum(p.stat().st_size for p in outdir.iterdir())
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return 1, (["; ".join(bad)] if bad else [])


WORKLOADS = {w.name: w for w in (Wave, Sweep, Simulate)}
