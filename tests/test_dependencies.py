import ast
import subprocess
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


def private_imports(source):
    """(module, name, line) of every underscore-prefixed name a source
    imports from a ``fedmm`` module, relative or absolute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fedmm"):
            yield from ((node.module, alias.name, node.lineno) for alias in node.names
                        if alias.name.startswith("_"))


@pytest.mark.parametrize("snippet, found", [
    ("from .algorithms import _round, run_algorithm", [("algorithms", "_round", 1)]),
    ("from fedmm.core import _x", [("fedmm.core", "_x", 1)]),
    ("from . import _private", [(None, "_private", 1)]),
    ("from numpy import _core\nfrom __future__ import annotations", []),
])
def test_private_imports_are_found(snippet, found):
    assert list(private_imports(snippet)) == found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    # a private name is its module's own; whatever another module needs is public
    assert list(private_imports(path.read_text(encoding="utf-8"))) == []


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


# every draw comes from a generator the caller seeds; the rest of numpy.random
# (seed, normal, rand, shuffle, ...) acts on the legacy global state.
# bit_generator is the module of the seed sequences (ISeedSequence among
# them), which draws nothing
SEEDED_RANDOM = {"default_rng", "Generator", "PCG64", "SeedSequence", "bit_generator"}


def numpy_random_uses(source):
    """(name, line) of everything a source reaches in numpy.random: each
    ``np.random.<name>`` or ``numpy.random.<name>``, each name imported from
    numpy.random, and numpy.random itself bound to a name of its own, which
    would hide its uses from this check."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random"
                and getattr(node.value.value, "id", None) in ("np", "numpy")):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            yield from (("numpy.random", node.lineno) for alias in node.names
                        if alias.name == "random")
        elif isinstance(node, ast.Import):
            yield from (("numpy.random", node.lineno) for alias in node.names
                        if alias.name == "numpy.random" and alias.asname)


@pytest.mark.parametrize("snippet, found", [
    ("np.random.normal()", [("normal", 1)]),
    ("numpy.random.seed(0)", [("seed", 1)]),
    ("from numpy.random import rand, default_rng", [("rand", 1), ("default_rng", 1)]),
    ("from numpy import random", [("numpy.random", 1)]),
    ("import numpy.random as npr", [("numpy.random", 1)]),
    ("rng = np.random.default_rng(0)\nrng.normal()", [("default_rng", 1)]),
    ("class S(np.random.bit_generator.ISeedSequence): pass", [("bit_generator", 1)]),
])
def test_numpy_random_uses_are_found(snippet, found):
    assert list(numpy_random_uses(snippet)) == found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_draw_is_seeded(path):
    uses = numpy_random_uses(path.read_text(encoding="utf-8"))
    assert [(path.name, name, line) for name, line in uses if name not in SEEDED_RANDOM] == []


# every eigendecomposition is the quadratic family's cached spectra; the
# constants, the round map, the stepsize search and the fixed point read it
ONE_SPECTRA = ("problems.py", "UncoupledQuadratic.spectra")
EIGEN_CALLS = {"eigh", "eigvalsh", "eig", "eigvals"}


def scoped_nodes(source):
    """(enclosing class and function, dotted, or None at module level; node)
    of every node of one source, parents before their children."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            yield scope, child
            yield from visit(child, scope)

    yield from visit(ast.parse(source), None)


def eigen_calls(source):
    """(enclosing class and function, line) of every call in one source to a
    name in ``EIGEN_CALLS``: ``np.linalg.eigh(...)``, ``linalg.eig(...)`` or a
    bare ``eigvalsh(...)`` imported from numpy.linalg."""
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in EIGEN_CALLS:
            yield scope, node.lineno


@pytest.mark.parametrize("snippet, found", [
    ("class A:\n    def f(self):\n        return np.linalg.eigh(q)", [("A.f", 3)]),
    ("def g(q):\n    return numpy.linalg.eigvalsh(q)", [("g", 2)]),
    ("from numpy.linalg import eig\nw = eig(q)", [(None, 2)]),
    ("def h(q):\n    def inner():\n        return linalg.eigvals(q)\n", [("h.inner", 3)]),
    ("np.linalg.svd(q)\nnp.linalg.norm(q, 2)", []),
])
def test_eigen_calls_are_found(snippet, found):
    assert list(eigen_calls(snippet)) == found


def test_one_spectra_is_found():
    path = SOURCES[0].with_name(ONE_SPECTRA[0])
    assert [where for where, _ in eigen_calls(path.read_text(encoding="utf-8"))] == [ONE_SPECTRA[1]]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_eigendecompositions_only_in_the_spectra(path):
    calls = [(path.name, where, line)
             for where, line in eigen_calls(path.read_text(encoding="utf-8"))]
    assert [c for c in calls if c[:2] != ONE_SPECTRA] == []


# every generator of a substream key is built from its hashed state by one
# function, the one place (with the seed-sequence class it makes) that names
# the seeding machinery; analysis and genbounds seed default_rng directly
ONE_KEY = ("datagen.py", "_generator_of_state")
KEY_NAMES = {"SeedSequence", "ISeedSequence", "PCG64"}


def owner(scope):
    """The module-level function or class a dotted scope lies in."""
    return scope and scope.partition(".")[0]


def key_names(source):
    """(enclosing class and function, name, line) of every mention in one
    source of a name in ``KEY_NAMES``: an attribute (``np.random.PCG64``), a
    bare name, or an import of one; text in strings is not a mention."""
    for scope, node in scoped_nodes(source):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            names = [getattr(node, "attr", getattr(node, "id", None))]
        yield from ((scope, name, node.lineno) for name in names if name in KEY_NAMES)


@pytest.mark.parametrize("snippet, found", [
    ("def f(s):\n    return np.random.PCG64(s)", [("f", "PCG64", 2)]),
    ("from numpy.random import SeedSequence\nk = SeedSequence(1)",
     [(None, "SeedSequence", 1), (None, "SeedSequence", 2)]),
    ("class G:\n    bits = numpy.random.PCG64", [("G", "PCG64", 2)]),
    ("def f():\n    class S(np.random.bit_generator.ISeedSequence):\n        pass",
     [("f.S", "ISeedSequence", 2)]),
    ("'SeedSequence'\nrng = np.random.default_rng(0)", []),
])
def test_key_names_are_found(snippet, found):
    assert list(key_names(snippet)) == found


def test_one_key_is_found():
    path = SOURCES[0].with_name(ONE_KEY[0])
    assert [(where, name) for where, name, _ in key_names(path.read_text(encoding="utf-8"))] == [
        (f"{ONE_KEY[1]}.StateWords", "ISeedSequence"), (ONE_KEY[1], "PCG64")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_generators_are_keyed_only_by_the_substream(path):
    mentions = [(path.name, owner(where), name, line)
                for where, name, line in key_names(path.read_text(encoding="utf-8"))]
    assert [m for m in mentions if m[:2] != ONE_KEY] == []


def test_importing_the_cli_leaves_numpy_random_unimported():
    # the seed-sequence class is made on the first draw, so commands that
    # never draw (fixed-point, bounds) do not import numpy.random
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fedmm.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


# every round of every study runs in the one driver; run_algorithm and
# local_sgda_limit iterate it, so no second round loop can return
ONE_DRIVER = ("algorithms.py", "_rounds")


def round_calls(source):
    """(enclosing class and function, line) of every call in one source to
    ``_round``: bare, or as an attribute (``algorithms._round(...)``)."""
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "_round":
            yield scope, node.lineno


@pytest.mark.parametrize("snippet, found", [
    ("def f(p, c):\n    z, _ = _round(p, c)", [("f", 2)]),
    ("class A:\n    def g(self):\n        return algorithms._round(1)", [("A.g", 3)]),
    ("for t in range(3):\n    _round(t)", [(None, 2)]),
    ("_rounds(p, c)\n_round_map(V, geo, Q)\nround(x)", []),
])
def test_round_calls_are_found(snippet, found):
    assert list(round_calls(snippet)) == found


def test_one_driver_is_found():
    path = SOURCES[0].with_name(ONE_DRIVER[0])
    assert [where for where, _ in round_calls(path.read_text(encoding="utf-8"))] == [ONE_DRIVER[1]]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_rounds_run_only_in_the_driver(path):
    calls = [(path.name, where, line)
             for where, line in round_calls(path.read_text(encoding="utf-8"))]
    assert [c for c in calls if c[:2] != ONE_DRIVER] == []
