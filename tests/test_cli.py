"""End-to-end command-line behavior via subprocess."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import floretion
from floretion.algebra import Element, element_from_json, element_to_json

# the child runs the same package the tests import, installed or not
_SRC = str(Path(floretion.__file__).resolve().parent.parent)
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*args, stdin=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "floretion", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=_ENV,
        cwd=cwd,
    )


def test_mul():
    r = run_cli("mul", "iji", "jek")
    assert r.returncode == 0
    assert r.stdout.strip() == "-422"
    r = run_cli("mul", "iji", "jek", "--letters")
    assert r.stdout.strip() == "-kjj"
    r = run_cli("mul", "77", "77")
    assert r.stdout.strip() == "77"
    r = run_cli("mul", "i", "j", "k", "--letters")
    assert r.stdout.strip() == "-e"
    # leading sign on an operand; 12*21 digitwise is (+4)(-4) = -44
    r = run_cli("mul", "-12", "21")
    assert r.stdout.strip() == "44"


def test_mul_errors():
    r = run_cli("mul", "12", "124")
    assert r.returncode != 0
    assert "error:" in r.stderr and r.stderr.count("\n") == 1
    r = run_cli("mul", "12")
    assert r.returncode != 0
    r = run_cli("mul", "12", "3x")
    assert r.returncode != 0


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["pow", "-", "-m", "2"], '{"order": 2, "terms": 5}'),
        (["pow", "-", "-m", "2"], '{"order": true, "terms": []}'),
        (["centroid", "71", "--d1", "nan"], None),
        (["render", "1", "--r0", "nan"], None),
        (["bench", "--iterations", "0", "--scan-order", "0"], None),
        # argparse rejects the unknown --threads flag
        (["centralizer", "17", "--threads", "0"], None),
        (["centralizer", "17", "--threads", "-3"], None),
        (["bench", "--iterations", "x"], None),
        (["seq", "--preset", "padovan", "--word", "ik", "--mmax", "3", "--scale", "1/0"], None),
        # the rejections below come after the first result is known; nothing may be printed
        (["centralizer", "12", "--svg", "x.svg", "--r0", "nan"], None),
        (["seq", "--preset", "padovan", "--word", "ik", "--mmax", "10", "--recurrence", "--max-order", "0"], None),
        (["bench", "--scan-order", "13"], None),
        (["bench", "--scan-order", "-1"], None),
    ],
    ids=[
        "terms-not-list", "order-true", "d1-nan", "r0-nan", "iterations-0", "threads-0", "threads-neg", "usage",
        "scale-zero-denominator", "svg-r0-nan", "max-order-0", "scan-order-13", "scan-order-neg",
    ],
)
def test_malformed_input_is_one_line_error(args, stdin, tmp_path):
    r = run_cli(*args, stdin=stdin, cwd=tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_pow_coeff_split_roundtrip(tmp_path):
    x = Element(2, {"12": Fraction(1, 2), "77": 1, "41": Fraction(-2, 3)})
    path = tmp_path / "x.json"
    path.write_text(element_to_json(x))

    r = run_cli("pow", str(path), "-m", "3")
    assert r.returncode == 0
    assert element_from_json(r.stdout) == x**3

    r = run_cli("coeff", str(path), "ij")
    assert r.stdout.strip() == "1/2"
    r = run_cli("coeff", str(path), "12", "-m", "2")
    assert Fraction(r.stdout.strip()) == (x**2).coeff("12")

    r = run_cli("split", str(path))
    data = json.loads(r.stdout)
    even, odd = x.parity_split()
    assert element_from_json(json.dumps(data["even"])) == even
    assert element_from_json(json.dumps(data["odd"])) == odd


def test_element_from_stdin():
    text = element_to_json(Element.one(2))
    r = run_cli("pow", "-", "-m", "5", stdin=text)
    assert r.returncode == 0
    assert element_from_json(r.stdout) == Element.one(2)


def test_symmetry_apply():
    r = run_cli("symmetry", "apply", "swap24", "--word", "124")
    assert r.stdout.strip() == "142"
    r = run_cli("symmetry", "apply", "rot", "--word", "17", "--letters")
    assert r.stdout.strip() == "je"


def test_symmetry_axis(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(element_to_json(Element(2, {"11": 1, "22": 1})))
    r = run_cli("symmetry", "axis", "1", "--element", str(path))
    assert r.stdout.strip() == "false"  # swap24 sends 22 to 44
    path.write_text(element_to_json(Element(2, {"11": 1, "22": 1, "44": 1})))
    r = run_cli("symmetry", "axis", "1", "--element", str(path))
    assert r.stdout.strip() == "true"


def test_symmetry_orbit():
    r = run_cli("symmetry", "orbit", "1")
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split()[0] == "1"
    assert lines[1].split()[0] == "2"
    assert lines[2].split()[0] == "4"
    r = run_cli("symmetry", "orbit", "77")
    assert r.returncode != 0


def test_centroid():
    r = run_cli("centroid", "77")
    assert r.stdout.split() == ["0", "0"]
    r = run_cli("centroid", "2", "--d1", "0.5")
    assert r.stdout.split() == ["0", "0.5"]


def test_render(tmp_path):
    out = tmp_path / "t.svg"
    r = run_cli("render", "2", "-o", str(out))
    assert r.returncode == 0
    svg = out.read_text()
    assert svg.count("<polygon") == 16
    r = run_cli("render", "3", "--highlight-axis", "1")
    assert r.stdout.count("highlight") >= 8


def test_centralizer():
    r = run_cli("centralizer", "ii", "--letters")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "plus 4: ee ii jj kk"
    assert lines[1] == "minus 4: ei ie jk kj"
    assert lines[2] == "total 8"
    r = run_cli("centralizer", "11")
    assert r.stdout.splitlines()[0] == "plus 4: 11 22 44 77"

    r = run_cli("centralizer", "1711111", "--count-only")
    assert r.stdout.splitlines() == ["plus 4096", "minus 4096", "total 8192"]

    r = run_cli("centralizer", "777", "--count-only")
    assert r.stdout.splitlines() == ["plus 64", "minus 0", "total 64"]

    # counts have no order cap
    r = run_cli("centralizer", "1" + "7" * 19, "--count-only")
    assert r.stdout.splitlines() == ["plus 274877906944", "minus 274877906944", "total 549755813888"]


def test_centralizer_svg(tmp_path):
    out = tmp_path / "c.svg"
    r = run_cli("centralizer", "11", "--svg", str(out), "--count-only")
    assert r.returncode == 0
    svg = out.read_text()
    assert svg.count("highlight-plus") >= 4
    assert svg.count("highlight-minus") >= 4


def test_vanishing():
    r = run_cli("vanishing", "11")
    assert r.stdout.strip() == "true"
    r = run_cli("vanishing", "1")
    assert r.returncode != 0


def test_seq_presets():
    r = run_cli("seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "11")
    assert r.stdout.strip() == "1 1 1 2 2 3 4 5 7 9 12"
    r = run_cli("seq", "--preset", "fib", "--word", "ij", "--mmax", "6")
    assert r.stdout.strip() == "1/2 1/2 1 3/2 5/2 4"


def test_seq_recurrence_output():
    r = run_cli("seq", "--preset", "fib", "--word", "ij", "--mmax", "10", "--recurrence", "--max-order", "2")
    lines = r.stdout.strip().splitlines()
    assert lines[1] == "a(m) = 1*a(m-1) + 1*a(m-2)"


def test_seq_element_source(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(element_to_json(Element.one(2)))
    r = run_cli("seq", "--element", str(path), "--word", "77", "--mmax", "1")
    assert r.stdout.strip() == "1"
    r = run_cli("seq", "--word", "77", "--mmax", "1")
    assert r.returncode != 0


def test_seq_bfile(tmp_path):
    out = tmp_path / "b.txt"
    r = run_cli(
        "seq", "--preset", "padovan", "--word", "ik", "--scale", "4",
        "--mmax", "5", "--bfile", str(out), "--offset", "1",
    )
    assert r.returncode == 0
    assert out.read_text() == "1 1\n2 1\n3 1\n4 2\n5 2\n"
    # rational stream rejected for single-file export
    r = run_cli("seq", "--preset", "fib", "--word", "ij", "--mmax", "4", "--bfile", str(out))
    assert r.returncode != 0
    assert "integer" in r.stderr
    assert r.stdout == ""


def test_seq_bfile_parts(tmp_path):
    num, den = tmp_path / "n.txt", tmp_path / "d.txt"
    r = run_cli(
        "seq", "--preset", "fib", "--word", "ij", "--mmax", "3",
        "--bfile-parts", str(num), str(den),
    )
    assert r.returncode == 0
    assert num.read_text() == "1 1\n2 1\n3 1\n"
    assert den.read_text() == "1 2\n2 2\n3 1\n"


def test_deterministic_outputs():
    a = run_cli("render", "3", "--labels")
    b = run_cli("render", "3", "--labels")
    assert a.stdout == b.stdout
    a = run_cli("centralizer", "124")
    b = run_cli("centralizer", "124")
    assert a.stdout == b.stdout


def test_bench_smoke():
    r = run_cli("bench", "--order", "4", "--iterations", "2000", "--scan-order", "5")
    assert r.returncode == 0
    assert "word_mul" in r.stdout and "packed_mul" in r.stdout
    assert "cross-check   2000/2000 agree" in r.stdout
    assert "centralizer scan order 5" in r.stdout


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("floretion")
