"""streams: exact coefficient streams of element powers, recurrence search
and b-file output.

Each operation runs `coeff_stream` for m_max powers, `find_recurrence` with
max_order = 2**n (the degree bound of the minimal polynomial at order n),
and `write_b_file` to memory.  The elements are the Padovan product, the
Fibonacci product with the default and with seeded rational parameters, and
seeded sparse random elements of orders 2 and 3.  Every round has the same
20 operations at fixed stream lengths: eight short ones (40 to 100 powers,
every seeded element among them), six default Fibonacci streams of 160
powers and six Padovan streams of 200 powers.  The seeded elements' cost
varies with the seed, so they are kept to the short block; the median falls
among the Fibonacci streams and the tail among the Padovan ones, both of
fixed cost.  Many small sparse products with fast-growing Fractions: the
algebra layer used differently from algebra-dense, plus real work for the
solver.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

from harness import Op, Plan, interleave
from oracle import coeff_of_product, unpack

NAME = "streams"
WHY = "coefficient streams of 40-200 powers (Padovan, Fibonacci, seeded rational and sparse random elements of orders 2-3), exact recurrence search, b-file output; many small sparse products"
SIZES = (
    "per round: Padovan at m_max 40 and 6 x 200; default Fibonacci at m_max 40 and 6 x 160; "
    "Fibonacci with seeded rational parameters at m_max 40 and 60; sparse random elements "
    "with 4 integer terms at m_max 40 and 100 (order 2), 40 and 80 (order 3); "
    "find_recurrence max_order 4 (order 2) or 8 (order 3)"
)
POOL = 8


def padovan(m: int) -> list[int]:
    p = [1, 1, 1]
    while len(p) < m:
        p.append(p[-2] + p[-3])
    return p[:m]


def fibonacci(m: int) -> list[int]:
    f = [1, 1]
    while len(f) < m:
        f.append(f[-1] + f[-2])
    return f[:m]


def b_file(values) -> str:
    return "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))


def stream_op(fl, kind, x, word, m, check_values) -> Op:
    """Stream, recurrence, b-file; `check_values(stream)` judges the terms."""

    def run():
        stream = fl.coeff_stream(x, word, m)
        rec = fl.find_recurrence(stream, 2**x.order)
        buf = io.StringIO()
        if all(q.denominator == 1 for q in stream):
            fl.write_b_file(buf, stream)
        else:
            fl.write_b_file(buf, [Fraction(q.numerator) for q in stream])
            fl.write_b_file(buf, [Fraction(q.denominator) for q in stream])
        return stream, rec, buf.getvalue()

    def check(out) -> bool:
        stream, rec, text = out
        if len(stream) != m or rec is None or rec.order > 2**x.order or not rec.holds_on(stream):
            return False
        if all(q.denominator == 1 for q in stream):
            expect = b_file(q.numerator for q in stream)
        else:
            expect = b_file(q.numerator for q in stream) + b_file(q.denominator for q in stream)
        return text == expect and check_values(stream)

    return Op(f"{kind}_m{m}", run, check)


def exact(reference):
    return lambda stream: list(stream) == reference


def round_ops(fl, rng: random.Random) -> list[Op]:
    _, _, pad = fl.padovan_elements()
    _, _, fib = fl.fibonacci_elements()

    def padovan_op(m):  # four times the ik stream is Padovan
        return stream_op(fl, "padovan", pad, "14", m, exact([Fraction(v, 4) for v in padovan(m)]))

    def fibonacci_op(m):  # twice the ij stream is Fibonacci
        return stream_op(fl, "fibonacci", fib, "12", m, exact([Fraction(v, 2) for v in fibonacci(m)]))

    def rational_op(m):
        a, b, c = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3))
        _, _, z = fl.fibonacci_elements(a, b, c)
        return stream_op(fl, "fibonacci_q", z, "12", m, _fib_rule(fl, z, a, b * c))

    def random_op(n, k, m):
        x = fl.Element(n, {unpack(w, n): rng.choice((-1, 1)) * rng.randint(1, 3)
                           for w in rng.sample(range(4**n), k)})
        word = sorted(x.terms)[rng.randrange(len(x.terms))]
        return stream_op(fl, f"random_o{n}_k{k}", x, word, m, _first_terms(fl, x, word))

    short = [random_op(2, 4, 40), random_op(3, 4, 40), padovan_op(40), rational_op(40),
             random_op(2, 4, 100), fibonacci_op(40), random_op(3, 4, 80), rational_op(60)]
    middle = [fibonacci_op(160) for _ in range(6)]
    longest = [padovan_op(200) for _ in range(6)]
    return interleave(short, middle, longest)


def _fib_rule(fl, z, a, bc):
    """Z**3 + a Z**2 + bc Z = 0, so a(m) = -a a(m-1) - bc a(m-2) from m = 3;
    the first two terms are spot-checked from Z itself."""

    def check(stream) -> bool:
        if stream[0] != z.terms.get("12", 0) or stream[1] != coeff_of_product(fl.word_mul, [z, z], "12"):
            return False
        return all(stream[k] == -a * stream[k - 1] - bc * stream[k - 2] for k in range(2, len(stream)))

    return check


def _first_terms(fl, x, word):
    return lambda stream: stream[0] == x.terms.get(word, 0) and stream[1] == coeff_of_product(fl.word_mul, [x, x], word)


def plan(fl, seed: int, sink) -> Plan:
    rng = random.Random(seed)
    rounds = [round_ops(fl, rng) for _ in range(POOL)]
    warm = [op for op in rounds[0] if op.kind.endswith("_m40") or op.kind.endswith("_m80")]
    return Plan(rounds, warmup=warm)
