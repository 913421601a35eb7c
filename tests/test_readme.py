"""The README's library quickstart runs against the package surface."""

import re
from pathlib import Path

import matroid_interdiction

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_exports_resolve(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block, "README has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
    missing = [n for n in matroid_interdiction.__all__ if not hasattr(matroid_interdiction, n)]
    assert missing == []
    assert len(matroid_interdiction.__all__) == len(set(matroid_interdiction.__all__))
