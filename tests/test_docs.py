import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fedmm
from fedmm import (BoundInputs, QuadraticGenSpec, RlrGenSpec, ScalarTwoAgent,
                   auto_eta_fedgda, bound_terms, closed_form_minimax, conservative_eta,
                   gen_quadratic, gen_rlr, local_sgda_fixed_point, optimality_gap,
                   save_dataset, substreams)
from fedmm.algorithms import _TIE_TOL, DIVERGENCE_LIMIT, ETA_GRID_SIZE
from fedmm.cli import (_ALGO_TABLE, _BOUNDS_TABLE, _OUTPUT_TABLE, _PROBLEM_TABLES,
                       main)
from fedmm.genbounds import SIGMA_BLOCK_ROWS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


def test_readme_config_example_writes_the_plot_file_it_names(tmp_path, capsys):
    block = ini_block("Config format")
    plot = re.search(r"also write (\S+\.plot\.csv)", block).group(1)
    cfg = tmp_path / "example.ini"
    cfg.write_text(block.replace("\ntrace = out.csv\n", f"\ntrace = {tmp_path / 'out.csv'}\n")
                   .replace("\nemit_plot_data = false\n", "\nemit_plot_data = true\n"),
                   encoding="utf-8")
    assert main(["run", str(cfg)]) == 0, capsys.readouterr().err
    assert (tmp_path / plot).is_file()


# ---------------------------------------------------------------------------
# the numbers README states, each recomputed from the library or read from
# the code constant it names
# ---------------------------------------------------------------------------

def prose():
    """README without its ini and python examples, which the tests above run,
    whitespace collapsed so that a phrase may span a line break."""
    text = re.sub(r"^```(?:ini|python)\n.*?^```", "", README.read_text(encoding="utf-8"),
                  flags=re.M | re.S)
    return " ".join(text.split())


# a number as README writes it, not a digit of a name such as float64 or FEDMM1
NUMBER = re.compile(r"(?<![\w.])[0-9]+(?:,[0-9]{3})*(?:\.[0-9]+)?(?:e-?[0-9]+)?(?!\w|\.[0-9])")


def stated(text):
    """The numbers of ``text`` that state a fact: every decimal, exponent,
    percentage or range, and every integer of two digits or more, as the
    code's constants are. Single digits are counts and codes (``K = 1``,
    exit ``2``)."""
    for found in NUMBER.finditer(text):
        after, before = text[found.end():], text[:found.start()]
        if (len(found.group()) > 1 or after.lstrip().startswith("%")
                or after.startswith("–") or before.endswith("–")):
            yield found


def reads_as(token, value):
    """Whether ``value`` is ``token`` at the precision README writes it."""
    if isinstance(value, str):
        return token == value
    mantissa, _, exponent = token.replace(",", "").partition("e")
    digits = len(mantissa.partition(".")[2])
    if exponent:
        return float(f"{value:.{digits}e}") == float(token)
    return f"{value:.{digits}f}" == mantissa


def scalar_minimax(_):
    star = closed_form_minimax(ScalarTwoAgent()).stacked
    assert star[0] == star[1]
    return [star[0]]


def local_sgda_plateau(m, d, n, seed, K, _):
    problem = gen_quadratic(QuadraticGenSpec(m=m, d=d, n_i=n, seed=seed))
    eta = auto_eta_fedgda(problem, K).eta
    gap = optimality_gap(local_sgda_fixed_point(problem, K, eta, eta),
                         closed_form_minimax(problem))
    return [m, d, n, seed, K, gap]


CONSERVATIVE = "0.5 * min(2*mu/L^2, 1/(2*mu*K))"


def conservative_formula(*numbers):
    # README's formula, evaluated as written, is conservative_eta bitwise,
    # on either side of the min
    for mu, L, K in ((0.5, 3.0, 1), (2.0, 3.0, 20)):
        assert eval(CONSERVATIVE.replace("^", "**"), {"min": min},
                    {"mu": mu, "L": L, "K": K}) == conservative_eta(mu, L, K)
    return numbers


def fixed_point_command(K, eta):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fixed-point", "--K", str(K), "--eta", repr(eta)]) == 0
    assert re.search(r"^simulated rounds: +[0-9]+ \(converged\)$", out.getvalue(), re.M)
    return [K, eta]


def python_floor(_):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return [re.search(r'^requires-python = ">=([0-9.]+)"$', pyproject, re.M).group(1)]


def overflowing_bound(big, small):
    with pytest.raises(ValueError, match=r"^the inputs overflow the bounds \("):
        bound_terms(BoundInputs(m=2, n=50, M_i=[big, small], cover_size=7, delta=0.05,
                                epsilon=0.01, L_y=2.0, rademacher=0.3))
    return [big, small]


def container_header(*_):
    header = struct.Struct("<6sBQQQQd")  # the layout README states
    specs = [(gen_quadratic, QuadraticGenSpec(m=2, d=3, n_i=4, seed=5)),
             (gen_rlr, RlrGenSpec(m=2, d=3, n_i=4, alpha=1.5, seed=5))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.fedmm"
        heads = []
        for generate, spec in specs:
            save_dataset(path, generate(spec), spec)
            heads.append(header.unpack_from(path.read_bytes()))
    (magic, quadratic, *fields, alpha), (_, rlr, *_) = heads
    assert magic == b"FEDMM1" and fields == [2, 3, 4, 5]
    return [len(magic), quadratic, rlr, alpha]


def substream_key(bits):
    # a seed of two words and two one-word indices, split as README says
    seed, agent, tensor = 5 << bits | 3, 2, 1
    words = np.array([seed % 2**bits, seed >> bits, agent, tensor], dtype=np.uint32)
    (rng,) = substreams([(seed, agent, tensor)])
    assert rng.bit_generator.state == np.random.PCG64(np.random.SeedSequence(words)).state
    return [bits]


# README phrase -> check. A check takes the numbers the phrase states, in
# order, and returns the values they must read as: a recomputed result, a
# code constant, or the phrase's own inputs once it has checked its claim on
# them
STATED = {
    "`x* = y* = 3.3`": scalar_minimax,
    "in blocks of 256 sign vectors": lambda _: [SIGMA_BLOCK_ROWS],
    "`m = 20`, `d = 50`, `n = 500`, seed 7 and `K = 20`, at the stepsize "
    "`auto_eta_fedgda` selects, its squared distance to `z*` is 149.78": local_sgda_plateau,
    "the 46 halvings": lambda _: [ETA_GRID_SIZE],
    f"`{CONSERVATIVE}`": conservative_formula,
    "tie within `1e-12`": lambda _: [_TIE_TOL],
    "Python ≥ 3.10": python_floor,
    "fixed-point --K 10 --eta 0.001": fixed_point_command,
    "beyond `1e12`": lambda _: [DIVERGENCE_LIMIT],
    "`M_i = 1e200, 2`": overflowing_bound,
    "little-endian 32-bit words of those three integers": substream_key,
    "magic `FEDMM1` (6 bytes), kind `u8` (1 = quadratic, 2 = rlr), then "
    "`m, d, n, seed` as `u64` and `alpha` as `f64` (0.0 for quadratic)": container_header,
}


def as_number(token):
    plain = token.replace(",", "")
    return int(plain) if plain.isdigit() else float(plain)


@pytest.mark.parametrize("phrase", list(STATED), ids=lambda phrase: " ".join(NUMBER.findall(phrase)))
def test_readme_number_is_recomputed(phrase):
    assert phrase in prose()
    tokens = NUMBER.findall(phrase)
    values = STATED[phrase](*map(as_number, tokens))
    assert len(values) == len(tokens) and all(map(reads_as, tokens, values)), (tokens, values)


def test_every_number_in_readme_is_registered():
    text = prose()
    held = [(found.start(), found.end()) for phrase in STATED
            for found in re.finditer(re.escape(phrase), text)]
    loose = [found.group() for found in stated(text)
             if not any(start <= found.start() and found.end() <= end for start, end in held)]
    assert loose == []


def test_readme_names_no_unstable_pointer():
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"ROADMAP item [0-9]+|\bPRs? [0-9]+", text) == []


def test_readme_cites_benchmark_files_that_parse():
    names = set(re.findall(r"BENCH_\w+\.json", README.read_text(encoding="utf-8")))
    assert names
    for name in names:
        json.loads((ROOT / name).read_text(encoding="utf-8"))


TEST_ID = re.compile(r"tests/\w+\.py(?:::\w+)+")


def defines_test(node_id):
    """Whether the test file defines the test function ``node_id`` names,
    found in its syntax tree without running it."""
    path, *names = node_id.split("::")
    body, node = ast.parse((ROOT / path).read_text(encoding="utf-8")).body, None
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return isinstance(node, ast.FunctionDef) and node.name.startswith("test")


def test_readme_test_ids_resolve():
    ids = set(TEST_ID.findall(README.read_text(encoding="utf-8")))
    assert ids
    assert [node_id for node_id in sorted(ids) if not defines_test(node_id)] == []


def test_every_contract_rule_names_a_test():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^### Determinism contract\n(.*?)^#", text, re.M | re.S).group(1)
    rules = re.split(r"^[0-9]+\. ", section, flags=re.M)[1:]
    assert len(rules) >= 3
    assert [rule for rule in rules if not TEST_ID.search(rule)] == []
