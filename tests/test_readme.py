"""The README's library example runs as written and prints what its comments say."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example():
    """The ``python`` block under the README's "Library example" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    comments = [line.split("#", 1)[1].strip() for line in prints]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(comments) == 3
    # the first two comments are the printed lines; the last describes one number
    modes = ["dv", "psi", "dp-dm_f1", "dp-dm_f2", "dm_f1-dm_f2"]
    assert printed[:2] == comments[:2] == ["12 3", str(modes)]
    assert math.isfinite(float(printed[2]))
