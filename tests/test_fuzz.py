"""Seeded fuzz over the command line: mutated words, element JSON texts and
argv of the README commands, run in-process through `floretion.cli.main`.

Every case either succeeds (exit 0) or is rejected with exit code 2,
nothing on stdout and exactly one `error:` line on stderr; an uncaught
exception fails the test with its traceback.
"""

import io
import json
import random
import re
import sys

from floretion.cli import main

CASES = 300

#: Replacements for a numeric argument or JSON value.  Nothing large: only
#: the options in CAPPED_OPTIONS reject large sizes before doing any work.
NUMBERS = ["0", "-1", "nan", "x", "1/0", "1e400", ""]

#: Options with a size cap (4096, and 1,000,000 for `bench --iterations`),
#: and the large values they also draw.
CAPPED_OPTIONS = {"-m", "--power", "--mmax", "--iterations"}
LARGE = ["4097", "1000000000000"]

#: Characters a mutated word gains: digits, letters, non-digits, signs, space.
WORD_CHARS = "1247ijke03x-+ "

#: Tokens an argv mutation may insert.
EXTRA_TOKENS = ["-", "--letters", "--float", "--count-only", "--bogus", "--threads"]

#: Options whose value is a number (or a list of numbers).
NUMERIC_OPTIONS = {
    "--d1", "--r0", "-m", "--mmax", "--scale", "--max-order", "--offset",
    "--order", "--iterations", "--scan-order", "--coords", "--seed",
}

#: Well-formed README commands; x.json is the element file of each case,
#: and "-" reads the same element text from stdin.
COMMANDS = [
    ["mul", "iji", "jek", "--letters"],
    ["mul", "-124", "421", "777"],
    ["centroid", "1247", "--d1", "0.5"],
    ["render", "2", "--r0", "0.7", "--labels", "--letters"],
    ["render", "3", "--highlight-axis", "1", "-o", "t.svg"],
    ["centralizer", "1247", "--letters"],
    ["centralizer", "ii", "--count-only", "--svg", "c.svg"],
    ["vanishing", "11"],
    ["symmetry", "apply", "rot", "--word", "17"],
    ["symmetry", "apply", "swap24", "--element", "x.json"],
    ["symmetry", "axis", "1", "--element", "x.json"],
    ["symmetry", "orbit", "1247", "--coords", "1,3"],
    ["seq", "--preset", "padovan", "--word", "ik", "--scale", "4", "--mmax", "11"],
    ["seq", "--preset", "fib", "--word", "ij", "--mmax", "10", "--recurrence", "--max-order", "2"],
    ["seq", "--preset", "fib", "--seed", "-1,1,-1", "--word", "ij", "--mmax", "8", "--bfile-parts", "n.txt", "d.txt"],
    ["seq", "--element", "x.json", "--word", "12", "--mmax", "4", "--float"],
    ["pow", "x.json", "-m", "3"],
    ["pow", "-", "-m", "2"],
    ["coeff", "x.json", "ij", "-m", "2"],
    ["coeff", "-", "12", "--float"],
    ["split", "x.json"],
    ["bench", "--order", "3", "--iterations", "50", "--scan-order", "2"],
]

_WORD = re.compile(r"[-+]?[1247ijke]+")


def mutate_word(rng: random.Random, word: str) -> str:
    i = rng.randrange(len(word) + 1)
    kind = rng.randrange(4)
    if kind == 0:
        return word[:i] + rng.choice(WORD_CHARS) + word[i + 1 :]
    if kind == 1:
        return word[:i] + word[i + 1 :]
    if kind == 2:
        return word[:i] + rng.choice(WORD_CHARS) + word[i:]
    return ""


def json_value(rng: random.Random) -> str:
    v = rng.choice(NUMBERS)
    return json.dumps(v) if rng.random() < 0.5 else v


def element_text(rng: random.Random, mutate: bool) -> str:
    order = "2"
    terms = [["12", '"1/2"'], ["77", "1"], ["ik", '"-2/3"']]
    kind = rng.randrange(5) if mutate else None
    if kind == 0:
        order = json_value(rng)
    elif kind == 1:
        rng.choice(terms)[1] = json_value(rng)
    elif kind == 2:
        term = rng.choice(terms)
        term[0] = mutate_word(rng, term[0])
    body = ", ".join(f'{{"word": {json.dumps(w)}, "coeff": {c}}}' for w, c in terms)
    text = f'{{"order": {order}, "terms": [{body}]}}'
    if kind == 3:
        text = text[: rng.randrange(len(text))]
    elif kind == 4:
        text = text.replace('"terms"', rng.choice(['"term"', '"order"']), 1)
    return text


def mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    argv = list(argv)
    numeric = [i for i in range(1, len(argv)) if argv[i - 1] in NUMERIC_OPTIONS or (argv[0] == "render" and i == 1)]
    words = [i for i in range(1, len(argv)) if i not in numeric and _WORD.fullmatch(argv[i])]
    kind = rng.randrange(3)
    if kind == 0 and numeric:
        i = rng.choice(numeric)
        argv[i] = rng.choice(NUMBERS + LARGE if argv[i - 1] in CAPPED_OPTIONS else NUMBERS)
    elif kind == 1 and words:
        i = rng.choice(words)
        argv[i] = mutate_word(rng, argv[i])
    else:
        i = rng.randrange(1, len(argv))
        edit = rng.randrange(4)
        if edit == 0:
            del argv[i]
        elif edit == 1:
            argv.insert(i, argv[i])
        elif edit == 2 and i + 1 < len(argv):
            argv[i], argv[i + 1] = argv[i + 1], argv[i]
        else:
            argv.insert(i, rng.choice(EXTRA_TOKENS))
    return argv


def run_main(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_fuzzed_cli_input_is_result_or_one_line_error(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20261018)
    reads_element = [c for c in COMMANDS if "x.json" in c or "-" in c]
    exits = {0: 0, 2: 0}
    for case in range(CASES):
        element_case = rng.random() < 0.3
        if element_case:
            argv = rng.choice(reads_element)
        else:
            argv = mutate_argv(rng, rng.choice(COMMANDS))
        text = element_text(rng, element_case)
        (tmp_path / "x.json").write_text(text)
        code, out, err = run_main(argv, text, capsys, monkeypatch)
        where = f"case {case}: argv {argv}, element {text!r}"
        assert code in (0, 2), f"{where}: exit {code}, stderr {err!r}"
        if code == 2:
            assert out == "", f"{where}: stdout {out!r}"
            assert len(err.splitlines()) == 1 and err.startswith("error: "), f"{where}: stderr {err!r}"
        exits[code] += 1
    # the mutations reach both outcomes
    assert exits[0] > 0 and exits[2] > 0
