import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import fedmm
from fedmm.cli import (_ALGO_TABLE, _BOUNDS_TABLE, _OUTPUT_TABLE, _PROBLEM_TABLES,
                       main)

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(fedmm.__path__)}


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", text,
                      re.M | re.S)
    assert found, "README has no python block under 'Library quick start'"
    return found.group(1)


def test_readme_quick_start_runs_and_converges():
    # a subprocess, so the block runs as a reader would paste it
    proc = subprocess.run([sys.executable, "-c", quick_start_block()],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip().splitlines()[-1]) <= 1e-20


def dotted_names():
    """Every backticked dotted name in the README, a trailing ``()`` dropped."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", text)


def has_attribute(obj, attr):
    if hasattr(obj, attr):
        return True
    if not inspect.isclass(obj):
        return False
    # dataclass fields and attributes set by a constructor exist only on
    # instances
    return attr in getattr(obj, "__dataclass_fields__", {}) or any(
        re.search(rf"\bself\.{attr}\s*=(?!=)", inspect.getsource(cls))
        for cls in obj.__mro__ if cls.__module__.startswith("fedmm")
    )


def unresolved(name):
    """The part of a package name that does not resolve, or None. Names
    outside the package (``np.matmul``, file names) are not checked."""
    head, *rest = name.split(".")
    if head == "fedmm":
        obj = fedmm
        if rest and rest[0] in MODULES:
            obj = importlib.import_module(f"fedmm.{rest.pop(0)}")
    elif head in MODULES:
        obj = importlib.import_module(f"fedmm.{head}")
    elif inspect.isclass(getattr(fedmm, head, None)):
        obj = getattr(fedmm, head)
    else:
        return None
    for attr in rest:
        if not has_attribute(obj, attr):
            return attr
        obj = getattr(obj, attr, None)
    return None


def test_readme_dotted_names_resolve():
    names = dotted_names()
    assert "fedmm.problems" in names and "UncoupledQuadratic.spectra" in names
    missing = {name: unresolved(name) for name in names if unresolved(name)}
    assert missing == {}


def ini_block(heading):
    text = README.read_text(encoding="utf-8")
    found = re.search(rf"^### {heading}\n.*?^```ini\n(.*?)^```", text, re.M | re.S)
    assert found, f"README has no ini block under '{heading}'"
    return found.group(1)


def test_readme_config_example_runs(tmp_path, capsys):
    block = ini_block("Config format")
    trace = tmp_path / "out.csv"
    assert "\ntrace = out.csv\n" in block
    cfg = tmp_path / "example.ini"
    cfg.write_text(block.replace("\ntrace = out.csv\n", f"\ntrace = {trace}\n"),
                   encoding="utf-8")
    assert main(["run", str(cfg)]) == 0, capsys.readouterr().err
    # a header and rounds 0..600
    assert len(trace.read_text().splitlines()) == 602


def test_readme_bounds_example_runs(tmp_path, capsys):
    inputs = tmp_path / "bounds.ini"
    inputs.write_text(ini_block("Bounds input file"), encoding="utf-8")
    assert main(["bounds", str(inputs)]) == 0, capsys.readouterr().err
    assert "vc_rademacher_bound = " in capsys.readouterr().out


def documented_keys(heading):
    """Every ``key =`` name of a README ini block, commented ones included."""
    return set(re.findall(r"(\w+) =", ini_block(heading)))


def test_readme_config_keys_are_the_tables():
    tables = [*_PROBLEM_TABLES.values(), _ALGO_TABLE, _OUTPUT_TABLE]
    assert documented_keys("Config format") == set().union(*tables)
    assert documented_keys("Bounds input file") == set(_BOUNDS_TABLE)
