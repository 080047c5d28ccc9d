"""The benchmark's checker self-test passes against this package, which pins
what `perfbench/` reads of it: str-keyed `Element.terms`, str-tuple tiles and
the function names its tracer wraps."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    r = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert r.returncode == 0, r.stdout + r.stderr
