"""The README's python blocks run, in order, against the package surface."""

import re
from pathlib import Path

import matroid_interdiction

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_exports_resolve(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no python block"
    namespace = {}
    for block in blocks:  # later blocks continue the quickstart
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    missing = [n for n in matroid_interdiction.__all__ if not hasattr(matroid_interdiction, n)]
    assert missing == []
    assert len(matroid_interdiction.__all__) == len(set(matroid_interdiction.__all__))
