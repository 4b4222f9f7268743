import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_a_failure_not_an_abort(tmp_path):
    # hypothesis reports a failing @given test through a module that warns
    # on import; under filterwarnings = error that warning once ended the
    # session with INTERNALERROR (exit 3), and no later test ran
    module = tmp_path / "test_property.py"
    module.write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(module)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
