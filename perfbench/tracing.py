"""Spans around calls into the qpl modules, recorded from outside them.

A function is wrapped at each module attribute through which it is looked
up on the measured path: where the benchmark calls it, and where another
qpl module calls it (``qpl.engine.closure``, ``qpl.semantics.saturate``,
``qpl.cli.entails``, ...). Helpers a layer calls for its own text format
stay unwrapped, so their time is that layer's self time: the label parsing
inside ``derivation_from_json``, ``render`` inside ``derivation_to_json``
and the CLI, and the per-line ``parse_formula`` calls inside
``parse_problem``. The oracle's own ``closure`` call is left unwrapped
too, so it counts as ``semantics.oracle``. The benchmark adds its own spans
where it calls the standard library on a layer's behalf (``json.dumps`` of
a proof counts as ``calculus.to_json``) and around its own
``parse_formula`` call, which cannot be wrapped without also wrapping those
per-line calls.

Spans stay in memory with parent links until ``write`` is called. Self
time of a span is its duration minus the durations of its direct children;
calls are sequential, so children never overlap.
"""

import contextlib
import importlib
import json
import time
from collections import defaultdict


def _universe(args, result):
    return {"universe": result.stats.size}


def _compiled(args, result):
    return {"compiled": len(result.instances)}


def _saturation(args, result):
    return {
        "fired": result.instances_fired,
        "derived": result.derived_count,
        "members": len(result.derived),
    }


def _resaturation(args, result):
    return {**_saturation(args, result), "resaturations": 1}


def _proof_nodes(args, result):
    return {"proof_nodes": len(result.nodes)}


def _nodes_checked(args, result):
    return {"nodes_checked": len(args[0].nodes)}


def _override_size(args, result):
    return {"override_size": len(result[1].assignment)}


# (module, attribute, span name, counts taken from the arguments and result)
SITES = (
    ("qpl.syntax", "parse_problem", "syntax.parse", None),
    ("qpl.cli", "parse_problem", "syntax.parse", None),
    ("qpl.cli", "parse_formula", "syntax.parse", None),
    ("qpl.engine", "closure", "syntax.closure", _universe),
    ("qpl.engine", "entails", "engine.entails", None),
    ("qpl.cli", "entails", "engine.entails", None),
    ("qpl.engine", "compile_rules", "engine.compile", _compiled),
    ("qpl.engine", "saturate", "engine.saturate", _saturation),
    ("qpl.semantics", "saturate", "engine.saturate", _resaturation),
    ("qpl.engine", "extract_proof", "engine.extract", _proof_nodes),
    ("qpl.calculus", "derivation_to_json", "calculus.to_json", None),
    ("qpl.cli", "derivation_to_json", "calculus.to_json", None),
    ("qpl.calculus", "derivation_from_json", "calculus.from_json", None),
    ("qpl.cli", "derivation_from_json", "calculus.from_json", None),
    ("qpl.calculus", "check_derivation", "calculus.check", _nodes_checked),
    ("qpl.cli", "check_derivation", "calculus.check", _nodes_checked),
    ("qpl.semantics", "verdict_countermodel", "semantics.countermodel", None),
    ("qpl.semantics", "countermodel", "semantics.countermodel", _override_size),
    ("qpl.semantics", "countermodel_json", "semantics.countermodel", None),
    ("qpl.semantics", "semantic_yields_bruteforce", "semantics.oracle", None),
    ("qpl.cli", "main", "cli.main", None),
)

FIELDS = ("name", "start", "end", "parent", "pass", "request", "counts")


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    request = -1

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []  # lists laid out as FIELDS
        self.pass_no = -1
        self.request = -1
        self._open = []
        self._saved = []

    def install(self, pass_no):
        """Wrap every site; spans recorded until uninstall carry pass_no."""
        self.pass_no = pass_no
        for mod_name, attr, name, count in SITES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, count))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _begin(self, name):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
               self.pass_no, self.request, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _end(self, rec):
        rec[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if count is not None:
                rec[6] = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def totals(self):
        """Per pass: self seconds and calls per span name, and summed counts."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, (name, start, end, _, pass_no, _, counts) in enumerate(self.spans):
            selfs, calls, sums = out.setdefault(
                pass_no, (defaultdict(float), defaultdict(int), defaultdict(int))
            )
            selfs[name] += end - start - covered[i]
            calls[name] += 1
            for key, value in (counts or {}).items():
                sums[key] += value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
