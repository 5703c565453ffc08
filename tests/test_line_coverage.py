"""Self-test of tools/line_coverage.py on a planted package: the tracer and
the report run in process around a stand-in for pytest, never over the
suite itself."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
PACKAGE = "planted_line_coverage"

PARTIAL = '''"""A planted module: one branch the caller never takes."""


def sign(v):
    if v >= 0:
        return 1
    return -1


if __name__ == "__main__":
    print(sign(-1))
'''
FULL = '''def double(v):
    return [
        v,
        v,
    ]
'''


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def planted(tmp_path, monkeypatch):
    src = tmp_path / PACKAGE
    src.mkdir()
    (src / "__init__.py").write_text("", encoding="utf-8")
    (src / "__main__.py").write_text("print('run with -m')\n", encoding="utf-8")
    (src / "partial.py").write_text(PARTIAL, encoding="utf-8")
    (src / "full.py").write_text(FULL, encoding="utf-8")
    monkeypatch.setattr(sys, "path", list(sys.path))
    yield src
    for name in [name for name in sys.modules if name.partition(".")[0] == PACKAGE]:
        del sys.modules[name]


def import_and_call(*values):
    """A stand-in for ``pytest.main``: imports the planted modules, calls
    ``sign`` at ``values`` and ``double`` once, and passes."""
    partial = importlib.import_module(f"{PACKAGE}.partial")
    importlib.import_module(f"{PACKAGE}.full").double(1.0)
    for v in values:
        partial.sign(v)
    return 0


def test_executable_lines_are_the_lines_of_the_compiled_code(tool, planted):
    assert tool.executable_lines(planted / "partial.py") == {1, 4, 5, 6, 7, 10, 11}
    assert tool.executable_lines(planted / "full.py") == {1, 2, 3, 4}
    assert tool.executable_lines(planted / "__init__.py") == set()


def test_lines_a_run_never_reaches_are_listed_by_module(tool, planted):
    sys.path.insert(0, str(planted.parent))
    previous = sys.gettrace()
    result, unrun = tool.unrun_lines(planted, lambda: import_and_call(2.0))
    assert result == 0 and sys.gettrace() is previous
    assert unrun == {planted / "__init__.py": [], planted / "full.py": [],
                     planted / "partial.py": [7, 11]}


def test_report_names_unrun_lines_and_the_subprocess_only_module(tool, planted, monkeypatch,
                                                                 capsys):
    monkeypatch.setattr(pytest, "main", lambda args: import_and_call(2.0, -2.0))
    assert tool.main(["--src", str(planted), "-q"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{PACKAGE}/__main__.py: runs only in subprocesses, not traced",
        f"{PACKAGE}/__init__.py: lines never run: none",
        f"{PACKAGE}/full.py: lines never run: none",
        f"{PACKAGE}/partial.py: lines never run: 11",
        "1 executable line(s) never ran in 3 module(s)",
    ]


def test_a_failed_test_run_gives_pytests_status(tool, planted, monkeypatch, capsys):
    monkeypatch.setattr(pytest, "main", lambda args: 3)
    assert tool.main(["--src", str(planted)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "11 executable line(s) never ran in 3 module(s)")


def test_every_line_run_exits_0(tool, planted, monkeypatch, capsys):
    (planted / "partial.py").unlink()

    def run_full(args):
        importlib.import_module(f"{PACKAGE}.full").double(0.0)
        return 0

    monkeypatch.setattr(pytest, "main", run_full)
    assert tool.main(["--src", str(planted)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0 executable line(s) never ran in 2 module(s)")
