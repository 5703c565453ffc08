"""Lines of a package that a pytest run never executes.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
and, for each module of the package, lists the executable lines that never
ran: the line numbers of the module's compiled code objects (``co_lines()``).
A ``__main__.py`` runs only under ``python -m``, in subprocesses that no
in-process tracer sees, so it is reported as such and not counted. Only the
stdlib and pytest are used.

Run from the repository root; arguments other than ``--src`` go to pytest:

    python tools/line_coverage.py -q                    # the whole suite
    python tools/line_coverage.py -q tests/test_core.py

``--src`` names the package directory (default: ``src/fedmm``); the directory
that holds it is put first on ``sys.path``. The exit status is pytest's when
a test fails, else 1 if some line never ran and 0 if every line ran. Under
the tracer the suite takes about twice as long.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import types
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "fedmm"
SUBPROCESS_ONLY = "__main__.py"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``. Line 0,
    which a module's code gives its first instruction, is no source line."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class LineTracer:
    """Records (file, line) of every line run in ``files``, in every thread
    started while it is installed. Frames of other files get no line
    events, which keeps the overhead to one call per function call."""

    def __init__(self, files):
        self.watched = {os.path.realpath(f) for f in files}
        self.known: dict[str, str | None] = {}  # co_filename -> watched real path
        self.ran: dict[str, set[int]] = {f: set() for f in self.watched}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.known:
            real = os.path.realpath(name)
            self.known[name] = real if real in self.watched else None
        real = self.known[name]
        if real is None:
            return None
        lines = self.ran[real]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])
        return False


def unrun_lines(src: Path, run) -> tuple[object, dict[Path, list[int]]]:
    """(``run()``'s result, the sorted unrun lines of each module in ``src``)
    with ``run`` called under the tracer. A ``__main__.py`` is left out."""
    modules = sorted(p for p in src.rglob("*.py") if p.name != SUBPROCESS_ONLY)
    with LineTracer(modules) as tracer:
        result = run()
    return result, {p: sorted(executable_lines(p) - tracer.ran[os.path.realpath(p)])
                    for p in modules}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="package directory to trace (default: src/fedmm)")
    args, pytest_args = parser.parse_known_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src.parent))
    import pytest

    status, unrun = unrun_lines(src, lambda: pytest.main(pytest_args))
    for path in sorted(src.rglob(SUBPROCESS_ONLY)):
        print(f"{path.relative_to(src.parent)}: runs only in subprocesses, not traced")
    for path, lines in unrun.items():
        shown = ", ".join(map(str, lines)) if lines else "none"
        print(f"{path.relative_to(src.parent)}: lines never run: {shown}")
    total = sum(map(len, unrun.values()))
    print(f"{total} executable line(s) never ran in {len(unrun)} module(s)")
    return int(status) or int(total > 0)


if __name__ == "__main__":
    raise SystemExit(main())
