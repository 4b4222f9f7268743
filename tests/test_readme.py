import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from psyslab import PressureLaw, scenario_ramp_residual, solver
from psyslab.cli import RunConfig, parse_config
from psyslab.solver import RunStatus

README = Path(__file__).resolve().parents[1] / "README.md"

#: the body of every ```python block of the README, in order
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)

#: the body of the README's example config, the plain block that starts
#: with ``quartic_a``
CONFIG = re.search(r"^```\n(quartic_a = .*?)^```$", README.read_text(),
                   flags=re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block_{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    # a block that names a removed function or keyword fails here, not
    # in a reader's session
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


#: the budget constants the README states as "`module.NAME` = value"
BUDGETS = ("MAX_STEPS", "MAX_KEPT_BYTES", "CURVE_SAMPLE_BYTES",
           "CURVE_BYTES", "MAX_VERIFY_SEEDS")


def test_readme_budget_numbers_match_the_code():
    # a constant moved to another module, or changed, fails here rather
    # than leaving the README naming the old home or value
    stated = re.findall(rf"`(\w+)\.({'|'.join(BUDGETS)})` = (2\^\d+|\d+)\b",
                        README.read_text())
    assert {name for _, name, _ in stated} == set(BUDGETS)
    for module, name, value in stated:
        base, _, exp = value.partition("^")
        expected = int(base) ** int(exp) if exp else int(base)
        actual = getattr(importlib.import_module(f"psyslab.{module}"), name)
        assert actual == expected, f"{module}.{name} = {value}"


#: the solver constants the README states as "`NAME` value"
SOLVER_CONSTANTS = ("CFL_SAFETY", "GRAD_BLOWUP_FACTOR", "TAIL_RATIO_MAX",
                    "NOISE_FLOOR", "HYPERBOLICITY_EPS", "SNAPSHOT_STRIDE")


def _solver_constants_stated(text: str) -> list:
    """(name, value) of each solver constant ``text`` states as
    "`NAME` value"."""
    return [(name, float(value)) for name, value in re.findall(
        rf"`({'|'.join(SOLVER_CONSTANTS)})` (\d+(?:\.\d+)?(?:e[+-]?\d+)?)",
        " ".join(text.split()))]


def _misstated(text: str) -> list:
    """The solver constants ``text`` states with a value not the code's."""
    return [name for name, value in _solver_constants_stated(text)
            if value != getattr(solver, name)]


def test_readme_solver_constants_match_the_code():
    # a constant retuned in psyslab.solver fails here rather than leaving
    # the README stating the old value
    assert _misstated("`CFL_SAFETY` 0.9, `SNAPSHOT_STRIDE`\n5") == ["CFL_SAFETY"]
    stated = _solver_constants_stated(README.read_text())
    assert {name for name, _ in stated} == set(SOLVER_CONSTANTS)
    assert _misstated(README.read_text()) == []


def _keys_named(subject: str) -> list:
    """The backticked names that the README lists after ``subject`` and
    "holds the keys", up to the next full stop or colon."""
    text = " ".join(README.read_text().split())
    listed = re.search(rf"{re.escape(subject)} holds the keys (.*?)[.:]", text)
    assert listed, subject
    return re.findall(r"`(\w+)`", listed.group(1))


def test_readme_report_keys_match_the_code():
    # a report field renamed or added, or a gate entry's, fails here
    # rather than leaving the README naming the old keys
    report = scenario_ramp_residual(PressureLaw.quadratic()).to_dict()
    assert _keys_named("A scenario report, `scenario_<id>.json`,") == list(report)
    assert _keys_named("Each entry of `gates`") == list(report["gates"][0])


#: the backticked ``n_`` names in the README that count no run status
OTHER_COUNTS = {"n_predicting"}


def test_readme_run_statuses_match_the_code():
    # a status added, renamed or dropped, or a status count whose name
    # is not n_ and the status's value, fails here
    text = " ".join(README.read_text().split())
    listed = re.search(r"A run ends in one of \w+ statuses: (.*?) Blow-up is a result", text)
    assert listed
    # each status is named outside the parentheses that explain it
    names = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", listed.group(1)))
    values = [status.value for status in RunStatus]
    assert sorted(names) == sorted(values)
    counts = set(re.findall(r"`(n_\w+)`", text)) - OTHER_COUNTS
    assert counts == {f"n_{value}" for value in values}


def test_readme_example_config_parses(tmp_path):
    # a key deleted from RunConfig but left in the example fails here,
    # as an unknown key, rather than in a reader's first run
    assert CONFIG
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG.group(1))
    cfg = parse_config(path)
    assert (cfg.preset, cfg.n, cfg.t_max) == ("simple_wave", 512, 2.2)


def _unknown_keys_set(text: str) -> list:
    """The keys ``text`` sets that RunConfig lacks: each ``key = value``
    line of a plain code block, and each ``--set key=value``."""
    plain = re.findall(r"^```\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    keys = [key for block in plain
            for key in re.findall(r"^(\w+) *=", block, flags=re.MULTILINE)]
    keys += re.findall(r"--set ([a-z]\w*)=", text)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return [key for key in keys if key not in fields]


def test_readme_sets_only_config_keys():
    # a key deleted from RunConfig but still set in a README command
    # fails here, rather than as exit 2 in a reader's first run
    planted = ("```\nfamily = both\nn = 64\n```\n"
               "`psyslab --set n=16 --set direction=both trace`\n")
    assert _unknown_keys_set(planted) == ["family", "direction"]
    assert _unknown_keys_set(README.read_text()) == []


def test_readme_names_every_config_key():
    # a key added to RunConfig but never documented fails here; each is
    # named in backticks, as `key`, at least once
    text = README.read_text()
    assert [f.name for f in dataclasses.fields(RunConfig)
            if f"`{f.name}`" not in text] == []
