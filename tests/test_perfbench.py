"""The benchmark's checker self-test passes against this package, which pins
what `perfbench/` reads of it: str-keyed `Element.terms` and str-tuple tiles.
A second test installs the benchmark's tracer, which pins the function names
it wraps."""

import io
import subprocess
import sys
from pathlib import Path

import floretion as fl

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    r = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert r.returncode == 0, r.stdout + r.stderr


def test_tracer_wraps_every_target(monkeypatch):
    # a traced run reads each target through `owner.__dict__[attr]`, so a
    # renamed function fails here rather than in `perfbench/run.py --trace`
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    targets = tracer.targets(fl)
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in targets]
    t = tracer.Tracer()
    t.install(fl)
    try:
        # one small call through each target, reached as callers reach it
        x = fl.Element(2, {"12": 1, "77": 2})
        x * x, x**3, x.parity_split(), x.conjugate()
        fl.element_from_json(fl.element_to_json(x))
        fl.centralizer_counts("12"), fl.sigma_sums("12"), fl.check_vanishing("12")
        fl.packed_mul_many(1, 2, 1)
        terms = fl.coeff_stream(x, "12", 6)
        fl.find_recurrence(terms, 2)
        fl.write_b_file(io.StringIO(), terms)
        fl.render_tiling(1)
    finally:
        t.uninstall()
    assert {s[0] for s in t.spans} == {name for name, *_ in targets}
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
