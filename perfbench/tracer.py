"""Run-time instrumentation of the agcodes layer boundaries.

Nothing in the package is edited: both instruments rebind module or
class attributes for the duration of a ``with`` block and put the
originals back on exit.  Each has an ``active`` flag that the benchmark
raises only around the calls it measures, so its own input generation
and output checks are neither spanned nor counted.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  codec calls the transform, bms and
# geometry entry points through its own module globals, and bms calls
# dft2/idft2 through its own, so rebinding these names catches every call
# made from those modules.
SPAN_POINTS = (
    ("codec", "make_curve_code", "codec.make_curve_code"),
    ("codec", "make_hcrs_code", "codec.make_hcrs_code"),
    ("codec", "make_rs_code", "codec.make_rs_code"),
    ("codec", "encode_systematic", "codec.encode_systematic"),
    ("codec", "encode_matrix_oracle", "codec.encode_matrix_oracle"),
    ("codec", "decode", "codec.decode"),
    ("codec", "syndromes", "codec.syndromes"),
    ("codec", "extend", "bms.extend"),
    ("codec", "bms_with_voting", "bms.bms_with_voting"),
    ("codec", "vanishing_ideal_basis", "bms.vanishing_ideal_basis"),
    ("codec", "enumerate_points", "geometry.enumerate_points"),
    ("codec", "defining_set", "geometry.defining_set"),
    ("codec", "dft2", "transform.dft2"),
    ("codec", "idft2", "transform.idft2"),
    ("codec", "dft1", "transform.dft1"),
    ("codec", "idft1", "transform.idft1"),
    ("bms", "dft2", "transform.dft2"),
    ("bms", "idft2", "transform.idft2"),
)

# Field methods counted by the field-arithmetic pass, and the counter each
# one feeds.  sub calls add and neg itself, so one sub counts three calls.
FIELD_OPS = {
    "add": "add",
    "mul": "mul",
    "sub": "other",
    "neg": "other",
    "div": "other",
    "inv": "other",
    "pow": "other",
}


@contextmanager
def _rebound(targets):
    """Set each (owner, attribute, replacement); restore all on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTracer:
    """Records one span per wrapped call: name, start, end, parent, word.

    Spans stay in memory as lists [name, start, end, parent index, word
    id, seconds covered by direct children] until written out.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.word: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.word, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec[2] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]

        return traced

    def installed(self, modules: dict):
        """Wrap every SPAN_POINTS entry of the given {name: module} map."""
        return _rebound(
            (modules[mod], attr, self._wrap(span, getattr(modules[mod], attr)))
            for mod, attr, span in SPAN_POINTS
        )

    def totals(self, speed=lambda word: 1.0) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, total seconds, self seconds)}, each span's
        times multiplied by speed(its word id)."""
        out: dict[str, list] = {}
        for name, start, end, _, word, child in self.spans:
            factor = speed(word)
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) * factor
            acc[2] += (end - start - child) * factor
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, word, _ in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "word": word}
                fh.write(json.dumps(rec) + "\n")


class FieldOpCounter:
    """Counts calls to the Field arithmetic methods, without timing them."""

    def __init__(self):
        self.counts = {"add": 0, "mul": 0, "other": 0}
        self.active = False

    def _wrap(self, slot, fn):
        counts = self.counts

        def counted(field, *args):
            if self.active:
                counts[slot] += 1
            return fn(field, *args)

        return counted

    def installed(self, field_cls):
        return _rebound(
            (field_cls, op, self._wrap(slot, getattr(field_cls, op)))
            for op, slot in FIELD_OPS.items()
        )
