import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

#: the body of every ```python block of the README, in order
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block_{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    # a block that names a removed function or keyword fails here, not
    # in a reader's session
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
