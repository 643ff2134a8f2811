"""The package claims Python >= 3.9 (pyproject ``requires-python``); keep
every module importable there even when the suite runs on a newer
interpreter."""

import ast
from pathlib import Path

import pytest

import repro

#: ``dataclass`` keywords added after Python 3.9; each raises TypeError at
#: import time on 3.9.
NEWER_DATACLASS_KEYWORDS = {"slots", "kw_only", "match_args"}

MODULES = sorted(Path(repro.__file__).parent.rglob("*.py"))


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: path.relative_to(MODULES[0].parent).as_posix()
)
def test_module_parses_and_decorates_on_python_3_9(path):
    tree = ast.parse(path.read_text(), feature_version=(3, 9))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name != "dataclass":
                continue
            used = {keyword.arg for keyword in decorator.keywords}
            assert not used & NEWER_DATACLASS_KEYWORDS, (
                f"{path.name}:{node.lineno} {node.name} uses "
                f"{sorted(used & NEWER_DATACLASS_KEYWORDS)}"
            )
