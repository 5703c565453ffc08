import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
