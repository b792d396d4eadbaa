"""Every module imports only names it reads: an unused import fails the suite.

Stdlib `ast` only.  A name counts as read when it is loaded anywhere in the
module, or named in a string annotation.  An import statement with
`# noqa: F401` on any of its lines is skipped; so is the acceptance test
file, whose unused `make_template` import is left as it was.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {"tests/test_acceptance.py"}
MODULES = sorted(str(p.relative_to(ROOT)) for folder in ("src/blochsynth", "tests", "demos")
                 for p in (ROOT / folder).glob("*.py")
                 if str(p.relative_to(ROOT)) not in SKIPPED)


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                # A string annotation such as -> "BooleanSpec".
                read.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["1: os", "2: b"]
    assert unused_imports("from a import b  # noqa: F401\n") == []
    assert unused_imports("from a import b\ndef f() -> 'b': ...\n") == []
