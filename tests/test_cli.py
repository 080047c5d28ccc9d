"""End-to-end command-line behavior via subprocess."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import floretion
from floretion import cli
from floretion.algebra import Element, element_from_json, element_to_json
from floretion.sequences import coeff_stream, fibonacci_elements, find_recurrence, padovan_elements
from helpers import random_element, random_word, reference_listing

# the child runs the same package the tests import, installed or not
_SRC = str(Path(floretion.__file__).resolve().parent.parent)
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*args, stdin=None, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "floretion", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env={**_ENV, **(env or {})},
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


# an exact coefficient beyond the range of a float
_HUGE_COEFF = '{"order": 2, "terms": [{"word": "12", "coeff": "1e400"}]}'
_SMALL_ELEMENT = '{"order": 2, "terms": [{"word": "12", "coeff": "1/2"}]}'


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
        (["bench", "--iterations", "1000001"], None),
        # argparse rejects the removed --rng-seed flag
        (["bench", "--rng-seed", "1"], None),
        (["pow", "-", "-m", "2"], "[" * 200_000 + "]" * 200_000),
        (["coeff", "-", "12", "--float"], _HUGE_COEFF),
        (["seq", "--element", "-", "--word", "12", "--mmax", "3", "--float"], _HUGE_COEFF),
        # output files under a missing directory: the failed write comes before any printing
        (["centralizer", "12", "--svg", "missing/x.svg"], None),
        (["seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "3", "--bfile", "missing/b.txt"], None),
        (["seq", "--preset", "fib", "--word", "ij", "--mmax", "3", "--bfile-parts", "missing/n.txt", "missing/d.txt"], None),
        # sizes above the 4096 cap, rejected before any product
        (["pow", "-", "-m", "4097"], _SMALL_ELEMENT),
        (["coeff", "-", "12", "--power", "1000000000000"], _SMALL_ELEMENT),
        (["seq", "--preset", "fib", "--seed", "1/3,2,-5/7", "--word", "ij", "--mmax", "4097"], None),
        (["seq", "--preset", "padovan", "--word", "ik", "--mmax", "1000000000000"], None),
        # finite scales whose coordinates would overflow to inf
        (["centroid", "1111", "--d1", "1.7e308"], None),
        (["symmetry", "orbit", "2222", "--d1", "1.79e308"], None),
        (["render", "2", "--r0", "1e308"], None),
        (["centralizer", "12", "--svg", "x.svg", "--r0", "1e308"], None),
        # the depth is checked before the 2**40 axis words are built
        (["render", "40", "--highlight-axis", "1"], None),
        # options the call would ignore, and b-files that would overwrite each other
        (["symmetry", "apply", "rot", "--word", "12", "--element", "-"], _SMALL_ELEMENT),
        (["seq", "--preset", "padovan", "--seed", "5,5,5", "--word", "ik", "--mmax", "3"], None),
        (["seq", "--element", "-", "--seed", "5,5,5", "--word", "12", "--mmax", "3"], _SMALL_ELEMENT),
        (["seq", "--preset", "fib", "--word", "ij", "--mmax", "3", "--bfile-parts", "n.txt", "n.txt"], None),
        (["seq", "--preset", "fib", "--word", "ij", "--mmax", "3", "--bfile-parts", "n.txt", "./n.txt"], None),
        (["seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "3", "--bfile", "n.txt",
          "--bfile-parts", "n.txt", "d.txt"], None),
        (["seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "3", "--bfile", "d.txt",
          "--bfile-parts", "n.txt", "d.txt"], None),
    ],
    ids=[
        "terms-not-list", "order-true", "d1-nan", "r0-nan", "iterations-0", "threads-0", "threads-neg", "usage",
        "scale-zero-denominator", "svg-r0-nan", "max-order-0", "scan-order-13", "scan-order-neg",
        "iterations-over-cap", "rng-seed", "json-too-deep", "coeff-float-overflow", "seq-float-overflow",
        "svg-missing-dir", "bfile-missing-dir", "bfile-parts-missing-dir",
        "pow-over-cap", "coeff-over-cap", "mmax-over-cap", "mmax-huge",
        "d1-overflow", "orbit-d1-overflow", "r0-overflow", "svg-r0-overflow", "highlight-depth-40",
        "apply-word-and-element", "seed-padovan", "seed-element", "bfile-parts-same", "bfile-parts-same-real",
        "bfile-is-num", "bfile-is-den",
    ],
)
def test_malformed_input_is_one_line_error(args, stdin, tmp_path):
    r = run_cli(*args, stdin=stdin, cwd=tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert not any(tmp_path.iterdir())  # no output file written


def test_render_depth_checked_before_axis_words(monkeypatch, capsys):
    def words(axis, n):
        raise AssertionError("axis words built before the render depth was checked")

    monkeypatch.setattr(cli, "axis_words", words)
    t0 = time.perf_counter()
    assert cli.main(["render", "40", "--highlight-axis", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == "error: render depth must be in 1..8, got 40\n"


@pytest.mark.parametrize("argv", [["777777777", "--svg", "x.svg"], ["12", "--svg", "x.svg", "--r0", "nan"]])
def test_centralizer_svg_limits_checked_before_listing(argv, monkeypatch, capsys, tmp_path):
    def listing(word):
        raise AssertionError("tiles listed before the render limits were checked")

    monkeypatch.setattr(cli, "centralizer_tiles", listing)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["centralizer", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "x.svg").exists()


def test_handlers_return_their_output(capsys, tmp_path):
    # a handler writes nothing itself, so one that raises has printed nothing
    path = tmp_path / "x.json"
    path.write_text(_SMALL_ELEMENT)
    x = str(path)
    calls = [
        ["mul", "12", "24"], ["pow", x, "-m", "2"], ["coeff", x, "12"], ["split", x],
        ["symmetry", "apply", "rot", "--element", x], ["symmetry", "axis", "1", "--element", x],
        ["symmetry", "orbit", "1247"], ["centroid", "71"], ["render", "2"],
        ["centralizer", "12", "--svg", "-"], ["vanishing", "11"],
        ["seq", "--preset", "fib", "--word", "ij", "--mmax", "4", "--bfile-parts", "-", "-"],
        ["bench", "--order", "3", "--iterations", "20", "--scan-order", "0", "--json", "-"],
    ]
    parser, funcs = cli.build_parser(), set()
    for argv in calls:
        args = parser.parse_args(argv)
        result = args.func(args)
        assert capsys.readouterr() == ("", ""), argv
        lines, outputs = result
        assert all(isinstance(text, str) for text in [*lines, *(text for _, text in outputs)]), argv
        funcs.add(args.func)
    assert funcs == {f for name, f in vars(cli).items() if name.startswith("_cmd_")}


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


def test_centralizer_listing_matches_sorted_reference(capsys):
    # printed in the spelling's sorted order without a sort, empty parts as "minus 0: "
    rng = random.Random(68)
    words = ["".join(p) for n in range(1, 5) for p in itertools.product("1247", repeat=n)]
    words += [random_word(rng, n) for n in range(5, 9) for _ in range(3)] + ["77777", "77777777"]
    for w in words:
        for letters in ([], ["--letters"]):
            assert cli.main(["centralizer", w, *letters]) == 0
            out, err = capsys.readouterr()
            assert out == reference_listing(w, bool(letters)) and err == ""
    assert cli.main(["centralizer", "eee"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "minus 0: "


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


def test_vanishing_above_order_10():
    # order 11 was refused while the check multiplied Elements; every order now answers
    for word in ("12121212127", "1247" * 8):
        r = run_cli("vanishing", word)
        assert (r.returncode, r.stdout, r.stderr) == (0, "true\n", "")
    r = run_cli("vanishing", "1" + "7" * 31)
    assert r.returncode == 2 and r.stdout == "" and len(r.stderr.splitlines()) == 1


def test_seq_presets():
    r = run_cli("seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "11")
    assert r.stdout.strip() == "1 1 1 2 2 3 4 5 7 9 12"
    r = run_cli("seq", "--preset", "fib", "--word", "ij", "--mmax", "6")
    assert r.stdout.strip() == "1/2 1/2 1 3/2 5/2 4"
    # the cap on --mmax is inclusive; four times the ik stream is Padovan
    r = run_cli("seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "4096")
    padovan = [1, 1, 1]
    while len(padovan) < 4096:
        padovan.append(padovan[-2] + padovan[-3])
    assert r.returncode == 0 and r.stdout == " ".join(map(str, padovan)) + "\n"


def test_seq_recurrence_output():
    r = run_cli("seq", "--preset", "fib", "--word", "ij", "--mmax", "10", "--recurrence", "--max-order", "2")
    lines = r.stdout.strip().splitlines()
    assert lines[1] == "a(m) = 1*a(m-1) + 1*a(m-2)"


def _latest_word(x):
    """The word that first appears in the latest power of x: its stream
    starts with the longest run of zeros, which a short prefix misreads."""
    first, acc = {}, x
    for m in range(1, 2 * 2**x.order + 3):
        for w in acc.terms:
            first.setdefault(w, m)
        acc = acc * x
    return max(first, key=first.get)


def test_seq_recurrence_searches_a_deciding_prefix(tmp_path, capsys):
    # `seq --recurrence` searches only the first 2 * max(D, max-order) + 2
    # terms; its answer must equal a search over the whole printed stream
    rng = random.Random(44)
    streams = [(padovan_elements()[2], "14"), (fibonacci_elements(Fraction(1, 3), 2, Fraction(-5, 7))[2], "12")]
    # the 171 stream of this element is zero up to x**5, so a search over
    # fewer than 2D + 2 terms finds the rule a(m) = 0 for small --max-order
    late = Element(3, {"127": 1, "472": -2, "772": Fraction(-1, 3), "421": Fraction(2, 3), "224": -1})
    assert coeff_stream(late, "171", 6) == [0] * 5 + [Fraction(-64, 9)]
    streams.append((late, "171"))
    for n in (1, 2, 3):
        for _ in range(3):
            x = random_element(rng, n, max_terms=5)
            streams += [(x, random_word(rng, n)), (x, _latest_word(x))]
    path = tmp_path / "x.json"
    for x, word in streams:
        path.write_text(element_to_json(x))
        d = 2**x.order
        for mmax in (2 * d + 1, 2 * d + 2, 2 * d + 3, 60):
            stream = coeff_stream(x, word, mmax)
            for k in range(1, min(d + 1, (mmax - 2) // 2) + 1):
                argv = ["seq", "--element", str(path), "--word", word, "--mmax", str(mmax), "--recurrence", "--max-order", str(k)]
                assert cli.main(argv) == 0
                rec = find_recurrence(stream, k)
                expect = f"no recurrence of order <= {k}" if rec is None else str(rec)
                assert capsys.readouterr().out == " ".join(map(str, stream)) + "\n" + expect + "\n", (x, word, argv)


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
    # "-" writes the b-file to stdout, after the stream
    r = run_cli("seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "3", "--bfile", "-", cwd=tmp_path)
    assert r.returncode == 0
    assert r.stdout == "1 1 1\n1 1\n2 1\n3 1\n"
    assert not (tmp_path / "-").exists()
    # - may stand for several outputs, each written to stdout in turn
    r = run_cli(
        "seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "2", "--bfile", "-",
        "--bfile-parts", "-", "-", cwd=tmp_path,
    )
    assert r.returncode == 0
    assert r.stdout == "1 1\n" + "1 1\n2 1\n" * 3
    assert [p.name for p in tmp_path.iterdir()] == ["b.txt"]


def test_seq_bfile_parts(tmp_path):
    num, den = tmp_path / "n.txt", tmp_path / "d.txt"
    r = run_cli(
        "seq", "--preset", "fib", "--word", "ij", "--mmax", "3",
        "--bfile-parts", str(num), str(den),
    )
    assert r.returncode == 0
    assert num.read_text() == "1 1\n2 1\n3 1\n"
    assert den.read_text() == "1 2\n2 2\n3 1\n"


# the interpreter's default integer-to-text limit, pinned for the child
_DIGITS = {"PYTHONINTMAXSTRDIGITS": "4300"}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-text limit")
def test_pow_and_coeff_refuse_past_the_digit_limit(tmp_path):
    # (10**43)**100 = 10**4300 has 4301 digits; (10**43 - 1)**100 has 4300
    for base, ok in ((10**43, False), (10**43 - 1, True)):
        path = tmp_path / "x.json"
        path.write_text(element_to_json(Element(1, {"7": Fraction(1, base)})))
        for args in (("pow", str(path), "-m", "100"), ("coeff", str(path), "7", "-m", "100")):
            r = run_cli(*args, env=_DIGITS)
            if ok:
                assert r.returncode == 0 and r.stderr == ""
                assert f"1/{base**100}" in r.stdout
            else:
                assert r.returncode == 2 and r.stdout == ""
                assert r.stderr == (
                    "error: the coefficient of 7 has more than 4300 digits, "
                    "the most Python prints; lower -m/--power\n"
                )
    r = run_cli("coeff", str(path), "7", "-m", "100", "--float", env=_DIGITS)
    assert r.returncode == 0 and float(r.stdout) == 0.0
    # an input coefficient past the limit names no option: no exponent fixes it
    x = '{"order": 2, "terms": [{"word": "12", "coeff": "1e4300"}]}'
    for args in (("pow", "-", "-m", "1"), ("coeff", "-", "12", "-m", "1")):
        r = run_cli(*args, stdin=x, env=_DIGITS)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: the coefficient of 12 has more than 4300 digits, the most Python prints\n"
    r = run_cli("coeff", "-", "12", "-m", "1", "--float", stdin=x.replace("1e4300", "1e-4300"), env=_DIGITS)
    assert r.returncode == 0 and float(r.stdout) == 0.0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-text limit")
@pytest.mark.parametrize(("args", "word"), [(["split", "-"], "12"), (["symmetry", "apply", "rot", "--element", "-"], "24")])
def test_split_and_symmetry_refuse_past_the_digit_limit(args, word):
    # 10**4300 has 4301 digits, 10**4299 has 4300; there is no option to lower
    for exp, ok in ((4300, False), (4299, True)):
        x = f'{{"order": 2, "terms": [{{"word": "12", "coeff": "1e{exp}"}}, {{"word": "71", "coeff": "2"}}]}}'
        r = run_cli(*args, stdin=x, env=_DIGITS)
        if ok:
            assert r.returncode == 0 and r.stderr == "" and f'"{10**exp}"' in r.stdout
        else:
            assert r.returncode == 2 and r.stdout == ""
            assert r.stderr == f"error: the coefficient of {word} has more than 4300 digits, the most Python prints\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-text limit")
def test_seq_refuses_past_the_digit_limit(tmp_path):
    # a(m) = -100 a(m-1) + a(m-2) gains two digits per term
    fast = ("seq", "--preset", "fib", "--seed", "100,1,-1", "--word", "ij")
    r = run_cli(*fast, "--mmax", "4096", env=_DIGITS)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.count("\n") == 1 and "--mmax" in r.stderr and "Traceback" not in r.stderr
    first = int(r.stderr.split("term ")[1].split()[0])
    stream = coeff_stream(fibonacci_elements(100, 1, -1)[2], "ij", first)
    assert abs(stream[-1].numerator) >= 10**4300 > max(abs(q.numerator) for q in stream[:-1])
    # one term fewer prints, to stdout and to a b-file
    out = tmp_path / "b.txt"
    r = run_cli(*fast, "--mmax", str(first - 1), "--bfile-parts", str(out), str(tmp_path / "d.txt"), env=_DIGITS)
    assert r.returncode == 0 and len(out.read_text().splitlines()) == first - 1
    # b-files print integers even when the stream prints as floats
    r = run_cli(*fast, "--mmax", str(first), "--float", "--bfile-parts", str(out), str(tmp_path / "d.txt"), env=_DIGITS)
    assert r.returncode == 2 and f"term {first} of the stream" in r.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-text limit")
def test_seq_refuses_at_the_first_term_past_the_digit_limit(tmp_path):
    # a 31-term order-3 stream passes the limit near term 1660 of 4096; the
    # refusal comes when the continuation reaches that term, not after the
    # whole stream (about 2.5 s)
    rng = random.Random(2)
    words = sorted(floretion.all_words(3))
    x = Element(3, {w: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 6)) for w in rng.sample(words, 31)})
    path = tmp_path / "x.json"
    path.write_text(element_to_json(x))
    t0 = time.perf_counter()
    r = run_cli("seq", "--element", str(path), "--word", "211", "--mmax", "4096", env=_DIGITS)
    elapsed = time.perf_counter() - t0
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: term 1663 of the stream has more than 4300 digits, the most Python prints; lower --mmax\n"
    assert elapsed < 1.0
    stream = coeff_stream(x, "211", 1663)
    assert max(abs(stream[-1].numerator), stream[-1].denominator) >= 10**4300
    assert all(max(abs(q.numerator), q.denominator) < 10**4300 for q in stream[:-1])


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
    assert "word_mul" in r.stdout and "packed batch" in r.stdout
    assert "cross-check   2000/2000 agree" in r.stdout
    assert "parse_word + pack_words order 5: 256 letter words in " in r.stdout
    assert "Element square order 4: 256 terms -> 256 terms in " in r.stdout
    assert "Element square order 5: 1024 terms -> 1024 terms in " in r.stdout
    assert "Element square order 6: 4096 terms -> 4096 terms in " in r.stdout
    assert "Element product order 5: 8 x 256 terms in " in r.stdout
    assert "Element JSON round trip order 5: 256 terms in " in r.stdout
    assert "check_vanishing 12121212: true in " in r.stdout
    assert "render_tiling depth 6: 4096 tiles, plus/minus overlay of " in r.stdout
    assert "centralizer scan order 5" in r.stdout


@pytest.mark.parametrize("wrong", ["sign", "product"])
def test_bench_cross_check_catches_one_wrong_pair(monkeypatch, wrong):
    from floretion import bench

    kernel = bench.packed_mul_many

    def one_wrong(xs, ys, n):
        signs, prods = (a.copy() for a in kernel(xs, ys, n))
        if wrong == "sign":
            signs[37] *= -1
        else:
            prods[37] ^= 1  # another digit in the first lane
        return signs, prods

    monkeypatch.setattr(bench, "packed_mul_many", one_wrong)
    with pytest.raises(ValueError, match="kernel cross-check failed"):
        bench.run(4, 500, 0)


def test_bench_module_loads_only_for_a_checked_bench_call():
    code = (
        "import sys\n"
        "from floretion import cli\n"
        "assert cli.main(['mul', '12', '12']) == 0\n"
        "assert cli.main(['bench', '--scan-order', '13']) == 2\n"
        "assert 'floretion.bench' not in sys.modules, 'floretion.bench imported'\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "77\n" and r.stderr.startswith("error: scan order")


def test_entry_sets_one_blas_thread_unless_set():
    # the entry sets OPENBLAS_NUM_THREADS before numpy loads, keeps a value
    # already set, and `cli.main`, the library side, leaves it alone
    code = (
        "import os, sys\n"
        "from floretion import cli\n"
        "from floretion.__main__ import main\n"
        "assert cli.main(['mul', '12', '12']) == 0\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
        "sys.argv = ['floretion', 'mul', '12', '12']\n"
        "assert main() == 0\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
    )
    env = {k: v for k, v in _ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "77\nNone False\n77\n1 False\n"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**env, "OPENBLAS_NUM_THREADS": "2"})
    assert r.stdout == "77\n2 False\n77\n2 False\n"


#: Runs `cli.main` on each (argv, stdin) of the JSON list in argv[2] and
#: prints [exit code, stdout] per call, or ["ImportError", ""] when the call
#: tried to import a blocked module, then which of numpy and
#: `floretion.kernels` are loaded.  With argv[1] == "block", importing
#: numpy raises ImportError.
_CLI_CHILD = """
import contextlib, io, json, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is blocked")

block = sys.argv[1] == "block"
if block:
    sys.meta_path.insert(0, NoNumpy())
from floretion import cli

def run(argv, stdin):
    sys.stdin, out = io.StringIO(stdin or ""), io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except ImportError:
            return ["ImportError", ""]
    return [code, out.getvalue()]

print(json.dumps([run(argv, stdin) for argv, stdin in json.loads(sys.argv[2])]))
print(json.dumps(sorted({"numpy", "floretion.kernels"} & set(sys.modules))))
"""


def _cli_child(mode, cases):
    r = subprocess.run([sys.executable, "-c", _CLI_CHILD, mode, json.dumps(cases)], capture_output=True, text=True, env=_ENV)
    assert r.returncode == 0, r.stderr
    runs, loaded = r.stdout.splitlines()
    return json.loads(runs), json.loads(loaded)


#: Commands that multiply no Element, the last four being the malformed
#: calls of perfbench's cli workload.
_NUMPY_FREE = [
    (["mul", "iji", "jek", "--letters"], None),
    (["centroid", "1247", "--d1", "0.25"], None),
    (["render", "2"], None),
    (["symmetry", "apply", "rot", "--word", "1247"], None),
    (["split", "-"], '{"order": 2, "terms": [{"word": "12", "coeff": "1/2"}, {"word": "71", "coeff": "-3"}]}'),
    (["centralizer", "12471247", "--count-only"], None),
    (["centralizer", "124"], None),
    (["--help"], None),
    (["pow", "-", "-m", "1"], _SMALL_ELEMENT),
    (["coeff", "-", "12", "-m", "1"], _SMALL_ELEMENT),
    (["render", "3", "--labels", "--letters"], None),
    (["centralizer", "1247", "--svg", "-"], None),
    (["vanishing", "1212"], None),
    (["symmetry", "apply", "rot", "--element", "-"], _SMALL_ELEMENT),
    (["symmetry", "axis", "1", "--element", "-"], _SMALL_ELEMENT),
    (["symmetry", "orbit", "1247", "--coords", "1,3"], None),
    (["render", "3", "--highlight-axis", "1"], None),
    (["centralizer", "1247", "--letters"], None),
    (["mul", "12x4", "1247"], None),
    (["mul", "124", "1247"], None),
    (["render", "9"], None),
    (["pow", "-", "-m", "2"], '{"terms": []}'),
]


def test_numpy_free_commands_never_import_numpy():
    blocked, loaded = _cli_child("block", _NUMPY_FREE)
    # with numpy allowed too, they leave it and the kernels unloaded
    assert _cli_child("allow", _NUMPY_FREE) == (blocked, loaded) and loaded == []
    assert [code for code, _ in blocked] == [0] * 18 + [2] * 4
    assert blocked[0][1] == "-kjj\n" and blocked[5][1] == "plus 16384\nminus 16384\ntotal 32768\n"
    assert blocked[8][1] == _SMALL_ELEMENT + "\n" and blocked[9][1] == "1/2\n"
    assert blocked[10][1].count("<text") == 64 and blocked[11][1].count(" highlight-") == 128
    assert blocked[12][1] == "true\n" and blocked[17][1] == reference_listing("1247", letters=True)
    assert all(out for _, out in blocked[:18]) and not any(out for _, out in blocked[18:])


def test_product_commands_import_numpy():
    cases = [
        (["pow", "-", "-m", "2"], _SMALL_ELEMENT),
        (["seq", "--preset", "padovan", "--word", "ik", "--mmax", "12"], None),
    ]
    assert _cli_child("block", cases) == ([["ImportError", ""]] * 2, [])
    runs, loaded = _cli_child("allow", cases)
    assert [code for code, _ in runs] == [0] * 2 and loaded == ["floretion.kernels", "numpy"]


def _fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter on the package the tests import."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV)
    assert r.returncode == 0, r.stderr
    return r.stdout


_LOADED = "print(sorted({'numpy', 'floretion.kernels'} & set(sys.modules)))\n"


def test_kernels_load_with_the_first_product():
    # importing the package, a sum, a JSON round trip and a parity split load
    # neither numpy nor `floretion.kernels`; the first product loads both
    code = (
        "import sys\n"
        "import floretion as fl\n"
        "x = fl.Element(2, {'12': 1, '47': '1/2'})\n"
        "y = fl.element_from_json(fl.element_to_json(x + x))\n"
        "even, odd = y.parity_split()\n" + _LOADED + "x * y\n" + _LOADED
    )
    assert _fresh(code) == "[]\n['floretion.kernels', 'numpy']\n"


@pytest.mark.parametrize(
    "call",
    [
        "assert kernels._word_table(3) == packed.unpack_words(list(range(64)), 3)",
        "assert kernels._block_matrices().shape == (16, 4, 4)",
        # (i (x) j)**2 = 1: one sum, 1, at the word 77
        "keys = packed.pack_words(['12'], 2)\n"
        "assert kernels._matrix_sums(keys, [1], keys, [1], 2).tolist() == [0] * 15 + [1]",
        "keys, sums = kernels._sum_by_key([(np.array([5, 2, 5], dtype=np.uint64), np.array([1, 2, 3]))])\n"
        "assert (keys.tolist(), sums.tolist()) == ([2, 5], [2, 4])",
    ],
    ids=["word_table", "block_matrices", "matrix_sums", "sum_by_key"],
)
def test_kernels_need_no_product_first(call):
    # each kernel works as the first call in a fresh process
    assert _fresh("import numpy as np\nfrom floretion import kernels, packed\n" + call + "\nprint('ok')") == "ok\n"


def test_bench_json_record(tmp_path):
    from floretion.bench import SEED
    from floretion.words import unpack_word

    rng = random.Random(SEED)
    render_word, cached_word = (unpack_word(rng.randrange(4**6 - 1), 6) for _ in range(2))
    args = ("bench", "--order", "3", "--iterations", "500", "--scan-order", "4")
    out = tmp_path / "bench.json"
    r = run_cli(*args, "--json", str(out))
    assert r.returncode == 0
    record = json.loads(out.read_text())
    assert set(record["environment"]) >= {"python", "numpy", "cpu_count", "cpu_model", "commit"}
    metrics = record["metrics"]
    assert all(set(v) >= {"value", "unit"} for v in metrics.values())
    assert metrics["cross_check_agree"] == {"value": 500, "unit": "products"}
    assert metrics["centralizer_tiles_listed"]["value"] == 4**4 // 2
    stream = metrics["coeff_stream_padovan_ik_200"]
    assert stream["unit"] == "s" and stream["value"] == min(stream["runs_s"]) and len(stream["runs_s"]) == 3
    # every printed number is in the record
    assert f"coeff_stream padovan ik: 200 powers in {stream['value']:.4f} s" in r.stdout.splitlines()
    for name, line in (
        ("find_recurrence_padovan_ik_200", "find_recurrence padovan ik: 200 terms in {:.3f} ms"),
        ("recurrence_extend_padovan_ik_190", "Recurrence.extend padovan ik: 190 terms in {:.3f} ms"),
        ("recurrence_extend_fibonacci_q_190", "Recurrence.extend fibonacci 3/2,-2/3,1/3 ij: 190 terms in {:.3f} ms"),
        ("coeff_stream_random_order3_head", "coeff_stream random order 3: 18 powers of 4 terms in {:.3f} ms"),
        ("coeff_stream_random_order6_head", "coeff_stream random order 6: 130 powers of 10 terms in {:.3f} ms"),
        ("element_product_order5_8x256", "Element product order 5: 8 x 256 terms in {:.3f} ms"),
        ("element_json_round_trip_order5_256", "Element JSON round trip order 5: 256 terms in {:.3f} ms"),
        ("render_tiling_depth6", f"render_tiling depth 6: 4096 tiles, plus/minus overlay of {render_word}, in {{:.3f}} ms"),
        ("render_tiling_depth6_cached", f"render_tiling depth 6 cached: 4096 tiles, plus/minus overlay of {cached_word}, in {{:.3f}} ms"),
        ("word_parse_pack_order5_256", "parse_word + pack_words order 5: 256 letter words in {:.3f} ms"),
    ):
        row = metrics[name]
        assert row["unit"] == "s" and row["value"] == min(row["runs_s"]) and len(row["runs_s"]) == 3
        assert line.format(row["value"] * 1e3) in r.stdout.splitlines()
    for k in (4, 5, 6):
        row = metrics[f"element_square_order{k}"]
        assert row["unit"] == "s" and row["value"] == min(row["runs_s"]) and len(row["runs_s"]) == 3
        assert metrics[f"element_square_order{k}_terms_in"] == {"value": 4**k, "unit": "terms"}
        line = f"Element square order {k}: {4**k} terms -> {metrics[f'element_square_order{k}_terms_out']['value']} terms in {row['value']:.4f} s"
        assert line in r.stdout.splitlines()
    row = metrics["element_cube_order4_16"]
    assert row["unit"] == "s" and row["value"] == min(row["runs_s"]) and len(row["runs_s"]) == 3
    out = metrics["element_cube_order4_16_terms_out"]
    assert out["unit"] == "terms" and 0 < out["value"] <= 4**4
    line = f"Element cube order 4: 16 terms -> {out['value']} terms in {row['value'] * 1e3:.3f} ms"
    assert line in r.stdout.splitlines()
    # the CLI rows follow every other line
    cli_lines = r.stdout.splitlines()[-4:]
    for (name, label), line in zip(
        (("cli_mul_s", "mul iji jek"), ("cli_centralizer_count_s", "centralizer 1711111 --count-only"), ("cli_pow_s", "pow - -m 3"),
         ("cli_centralizer_letters_s", "centralizer 124712471 --letters")),
        cli_lines,
        strict=True,
    ):
        row = metrics[name]
        assert row["unit"] == "s" and row["value"] == min(row["runs_s"]) and len(row["runs_s"]) == 3
        assert line == f"CLI {label}: {row['value'] * 1e3:.1f} ms wall, fresh process"
    for k, word in ((8, "12121212"), (32, "1247" * 8)):
        row = metrics[f"check_vanishing_order{k}"]
        assert row["unit"] == "s" and row["value"] == min(row["runs_s"]) and len(row["runs_s"]) == 3
        assert f"check_vanishing {word}: true in {row['value'] * 1e3:.3f} ms" in r.stdout.splitlines()
    assert f"word_mul      {metrics['word_mul']['value']:12.0f} products/s" in r.stdout.splitlines()


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("floretion")
