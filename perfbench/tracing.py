"""Span tracing of hankelkit from the outside.

The tracer replaces public functions and methods of the package with
wrappers that time each call.  Nothing in the package is edited: methods are
patched on their classes, and a module function is replaced wherever a
module of the package binds it (its own module, modules that imported it by
name, and dicts such as ``hankel._ENGINES`` that hold it directly).

Each call is a span: name, start, end and the span that caused it.  Spans of
one workload repetition share that repetition's number.  Per-name call
counts, total time and self time (span time minus the time of its child
spans) are kept for every call; the individual spans are kept in memory up
to a cap, since one repetition of the verify suite makes millions of field
operations, and written out at the end.
"""

from __future__ import annotations

import json
import sys
import time

SPAN_CAP = 100_000


class Tracer:
    """Wraps the package's layers; spans are timed on ``clock`` (the run's
    reference clock, so probe time stays out of the spans)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.stack = []  # open frames: [child_s, start, span_index]
        self.spans = []  # (name, rep, start, end, parent_index)
        self.dropped = 0
        self.rep = 0
        self.peak_degree = 0
        self.peak_coeff_bits = 0

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, probe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [0.0, clock(), index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][2]
                if index >= 0:
                    spans[index] = (name, tracer.rep, frame[1], end, parent)
            if probe is not None:
                probe(args[0] if result is None else result)
            return result

        return traced

    def snapshot(self):
        """Copy of the per-name counters, for differences per repetition."""
        return {name: tuple(v) for name, v in self.stats.items()}

    # -- size probes on field results ----------------------------------------

    def _probe_poly(self, p):
        coeffs = getattr(p, "coeffs", None)
        if coeffs:
            if len(coeffs) - 1 > self.peak_degree:
                self.peak_degree = len(coeffs) - 1
            bits = max(map(int.bit_length, coeffs))
            if bits > self.peak_coeff_bits:
                self.peak_coeff_bits = bits

    def _probe_elem(self, e):
        num = getattr(e, "num", None)
        if num is not None:
            self._probe_poly(num)
            self._probe_poly(e.den)

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` wherever the package binds it."""
        for modname, module in list(sys.modules.items()):
            if not (modname == "hankelkit" or modname.startswith("hankelkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper

    def _patch_method(self, cls, attr, name, probe=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, probe))

    def install(self):
        """Wrap the layers; call once, after the package is imported."""
        from hankelkit import (closed_forms, cli, field, hankel, identities, qcalc,
                               sequences, triangle, verify)

        Poly, Elem = field.Polynomial, field.FieldElem
        for attr in ("__mul__", "__rmul__"):
            self._patch_method(Poly, attr, "field.poly_mul", self._probe_poly)
        self._patch_method(Poly, "__floordiv__", "field.poly_divexact", self._probe_poly)
        self._patch_method(Poly, "gcd", "field.poly_gcd", self._probe_poly)
        self._patch_method(Elem, "__init__", "field.elem_new", self._probe_elem)
        for attr in ("__add__", "__radd__"):
            self._patch_method(Elem, attr, "field.elem_add", self._probe_elem)
        for attr in ("__mul__", "__rmul__"):
            self._patch_method(Elem, attr, "field.elem_mul", self._probe_elem)
        self._patch_method(Elem, "__truediv__", "field.elem_div", self._probe_elem)
        self._patch_method(sequences.MomentSeq, "term", "sequences.term")

        names = {}
        for fname in ("q_int", "q_factorial", "q_pochhammer", "q_binomial",
                      "gauss_binomial", "bracket_falling"):
            names[(qcalc, fname)] = "qcalc"
        for fname in ("det_bareiss", "det_division", "ldlt", "det_exact",
                      "jacobi_from_moments", "det_from_jacobi"):
            names[(hankel, fname)] = f"hankel.{fname}"
        names[(hankel, "hankel_matrix")] = "hankel.matrix"
        for fname in ("build_triangle", "build_zero_s_triangle"):
            names[(triangle, fname)] = "triangle.build"
        for fname in ("contract", "rescale", "cross_sum"):
            names[(triangle, fname)] = f"triangle.{fname}"
        for module, layer in ((closed_forms, "closed_forms"), (identities, "identities")):
            for fname, value in vars(module).items():
                if (callable(value) and not fname.startswith("_")
                        and getattr(value, "__module__", None) == module.__name__
                        and not isinstance(value, type)):
                    names[(module, fname)] = layer
        for fname in ("build_cases", "sample_parameters", "run_suite",
                      "thm1_sample_set", "thm2_sample_set"):
            names[(verify, fname)] = f"verify.{fname}"
        names[(cli, "main")] = "cli"

        for (module, fname), span in names.items():
            original = getattr(module, fname)
            self._rebind(original, self.wrap(span, original))

        # cases are closures made by build_cases: time each one's run()
        wrapped_build = verify.build_cases
        wrap = self.wrap

        def build_cases(spec):
            cases = wrapped_build(spec)
            for case in cases:
                case.run = wrap("verify.case", case.run)
            return cases

        self._rebind(wrapped_build, build_cases)

    def write(self, path, extra):
        """Write the kept spans (and the run's summary) as one JSON document."""
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "summary": extra,
            "span_names": names,
            "spans_dropped": self.dropped,
            "span_fields": ["name_id", "rep", "start_s", "end_s", "parent"],
            "spans": [
                [ids[s[0]], s[1], round(s[2], 7), round(s[3], 7), s[4]]
                for s in self.spans
                if s is not None
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
