import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fedmm").glob("*.py"))


def imported_top_level_modules(path):
    """Top-level names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_are_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_runtime_dependency_beyond_numpy(path):
    allowed = {"numpy", "fedmm"} | set(sys.stdlib_module_names)
    assert sorted(set(imported_top_level_modules(path)) - allowed) == []


ONE_WRITER = ("datagen.py", "write_atomic")  # every output file goes through it


def writing_calls(path):
    """(enclosing function, line) of every call in one source file that may
    write a file: an ``open`` whose mode has w, x, a or + or cannot be read
    off the source, and any ``write_text`` or ``write_bytes``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scope = {}  # node -> innermost enclosing function; ast.walk goes outside in
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.update((node, func.name) for node in ast.walk(func))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            yield scope.get(node), node.lineno
        elif name == "open":
            # open(file, mode) and io.open(file, mode), but path.open(mode)
            builtin = isinstance(node.func, ast.Name) or getattr(
                node.func.value, "id", None) in ("io", "builtins")
            position = 1 if builtin else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[position] if len(node.args) > position else None)
            if mode is None:
                continue  # the default, "r"
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wxa+")):
                yield scope.get(node), node.lineno


def test_one_writer_is_found():
    path = SOURCES[0].with_name(ONE_WRITER[0])
    assert [where for where, _ in writing_calls(path)] == [ONE_WRITER[1]]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_files_are_written_only_by_the_one_writer(path):
    writes = [(path.name, where, line) for where, line in writing_calls(path)]
    assert [w for w in writes if w[:2] != ONE_WRITER] == []
