"""Package surface: modules share only public names, and every name the
package exports resolves."""

import ast
from pathlib import Path

import dualpuf

SOURCES = sorted(Path(dualpuf.__file__).parent.glob("*.py"))


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_every_exported_name_resolves():
    assert len(set(dualpuf.__all__)) == len(dualpuf.__all__)
    assert [name for name in dualpuf.__all__ if not hasattr(dualpuf, name)] == []
