"""The public API: what `monoculture.__all__` promises and the README imports."""

import ast
import re
from pathlib import Path

import monoculture

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in monoculture.__all__:
        assert getattr(monoculture, name, None) is not None, name


def test_exports_have_no_duplicates():
    assert len(set(monoculture.__all__)) == len(monoculture.__all__)


def test_readme_python_blocks_import_only_exported_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "monoculture"
        for alias in node.names
    }
    assert imported, "README has no `from monoculture import` in its python blocks"
    assert imported <= set(monoculture.__all__), sorted(imported - set(monoculture.__all__))
