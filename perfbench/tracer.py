"""In-memory spans around calls into the package, for the traced run.

Spans are recorded at module boundaries from the benchmark's side: selected
public functions and methods are wrapped for the duration of each traced
operation and unwrapped afterwards, and every reference to them held by a
`floretion` module is swapped too, so calls from one module into another
are spans as well.  A span is (name, start, end, parent, operation id);
self time is a span's duration minus its direct children's durations.

Functions called once per word or per term (`word_mul`, `parse_word`,
`pack_word`, ...) are deliberately not wrapped: a span each would cost as
much as the call.  Loops the benchmark itself runs over such functions are
recorded as one span per loop with `span(name, calls=k)`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable

LOG10_2 = math.log10(2)

Hook = Callable[[Counter, tuple, dict, Any], None]


def _mul_pairs(c: Counter, args: tuple, kwargs: dict, out: Any) -> None:
    x, y = args
    if hasattr(y, "terms"):
        c["algebra.mul.term_pairs"] += len(x.terms) * len(y.terms)


def _scan_words(c: Counter, args: tuple, kwargs: dict, out: Any) -> None:
    c["centralizer.words_scanned"] += 4 ** len(args[0])


def _tiles_listed(c: Counter, args: tuple, kwargs: dict, out: Any) -> None:
    c["centralizer.tiles_listed"] += out.total


def _mul_many(c: Counter, args: tuple, kwargs: dict, out: Any) -> None:
    signs, prods = out
    c["packed.mul_many.products"] += prods.size
    c["packed.mul_many.bytes_computed"] += signs.nbytes + prods.nbytes


def _stream(c: Counter, args: tuple, kwargs: dict, out: Any) -> None:
    c["sequences.powers"] += len(out)
    bits = max((max(abs(q.numerator), q.denominator).bit_length() for q in out), default=0)
    # decimal digits from the bit length (str() of a huge int is slow and capped)
    c["sequences.max_coeff_digits"] = max(c["sequences.max_coeff_digits"], int(bits * LOG10_2) + 1)


def _recurrence(c: Counter, args: tuple, kwargs: dict, out: Any) -> None:
    c["sequences.recurrences_searched"] += 1
    c["sequences.recurrences_found"] += out is not None


def _svg(c: Counter, args: tuple, kwargs: dict, out: Any) -> None:
    c["render.svg_bytes"] += len(out.encode())


def targets(fl) -> list[tuple[str, Any, str, Hook | None]]:
    """(span name, owner, attribute, work-count hook) of every wrapped call."""
    from floretion import centralizer

    return [
        ("algebra.mul", fl.Element, "__mul__", _mul_pairs),
        ("algebra.pow", fl.Element, "__pow__", None),
        ("algebra.parity_split", fl.Element, "parity_split", None),
        ("algebra.conjugate", fl.Element, "conjugate", None),
        ("algebra.to_json", fl.algebra, "element_to_json", None),
        ("algebra.from_json", fl.algebra, "element_from_json", None),
        ("centralizer.counts", centralizer, "centralizer_counts", None),
        ("centralizer.tiles", centralizer, "centralizer_tiles", _tiles_listed),
        ("centralizer.scan", centralizer, "_scan_masks", _scan_words),
        ("centralizer.sigma_sums", centralizer, "sigma_sums", None),
        ("centralizer.check_vanishing", centralizer, "check_vanishing", None),
        ("packed.mul_many", fl.packed, "packed_mul_many", _mul_many),
        ("sequences.coeff_stream", fl.sequences, "coeff_stream", _stream),
        ("sequences.find_recurrence", fl.sequences, "find_recurrence", _recurrence),
        ("sequences.write_b_file", fl.sequences, "write_b_file", None),
        ("render.render_tiling", fl.render, "render_tiling", _svg),
    ]


class SpanSink:
    """Where operations open the spans they record themselves.  Plans are
    built before any tracer exists, so they hold a sink, which opens no span
    until the traced phase attaches a tracer to it."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None

    def span(self, name: str, calls: int = 1):
        return nullcontext() if self.tracer is None else self.tracer.span(name, calls)


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or None, operation id]
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, calls: int = 1):
        """A span the benchmark opens itself; `calls` counts the package
        calls it covers when it wraps a loop."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)
            if calls != 1:
                self.counts[f"{name}.loop_calls"] += calls

    @contextmanager
    def op_span(self, kind: str):
        """The span of one operation; its id tags every span opened inside."""
        self._op = self._ops
        self._ops += 1
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._op = None

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, fl) -> None:
        modules = [m for k, m in sys.modules.items() if k == "floretion" or k.startswith("floretion.")]
        for name, owner, attr, hook in targets(fl):
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hook)
            self._set(owner, attr, wrapped)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction --------------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
