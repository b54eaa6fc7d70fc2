"""Every Python file of the project parses under the Python 3.10 grammar,
the oldest version ``pyproject.toml`` accepts.

This checks syntax only, as far as ``ast.parse``'s ``feature_version`` goes
(it is best-effort: ``except*`` is refused, ``a[*b]`` is not). A standard
library name added after 3.10 is not caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_as_python_3_10():
    sources = sorted(p for d in ("src", "tests", "perfbench", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) > 30
    refused = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as error:
            refused.append(f"{path.relative_to(ROOT)}:{error.lineno}: {error.msg}")
    assert not refused, "\n".join(refused)
