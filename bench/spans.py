"""Span tracing of specgap's layers from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
namespace that holds it: the defining module, every specgap module that
imported it by name, the package root, and for the numpy kernels both
``numpy.linalg`` and its implementation module.  ``uninstall`` puts the
originals back.  While ``active`` is set, every call records a span (name,
start, end, parent) in flat arrays kept in memory; a layer's self time is
its span's duration minus the durations of its child spans.  A generator is
traced one step at a time, so its self time is the time spent inside its
own body between yields.
"""

from __future__ import annotations

import math
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, kind).  kind is "call", "gen" for a
# generator function, or "method:<Class>[,<Class>]" for methods.
TRACED = (
    ("specgap.cli", "main", "cli", "call"),
    ("specgap.builders", "build_named", "builders.build_named", "call"),
    ("specgap.reproduce", "verify_golden", "reproduce.verify_golden", "call"),
    ("specgap.obstruct", "certify_not_limit", "obstruct.certify_not_limit", "call"),
    ("specgap.obstruct", "verify_certificate", "obstruct.verify_certificate", "call"),
    ("specgap.obstruct", "find_negative_lambda", "obstruct.find_negative_lambda", "call"),
    ("specgap.obstruct", "check_domination", "obstruct.check_domination", "call"),
    ("specgap.obstruct", "sample_limit_set", "obstruct.sample_limit_set", "call"),
    ("specgap.certify", "gap_profile", "certify.gap_profile", "call"),
    ("specgap.certify", "qi_profile", "certify.qi_profile", "call"),
    ("specgap.reps", "iter_ball_images", "reps.iter_ball_images", "gen"),
    ("specgap.reps", "evaluate", "reps.evaluate", "method:RepSpec,ComplexRep2"),
    ("specgap.reps", "top_modulus", "reps.top_modulus", "method:RepSpec"),
    ("specgap.linalg", "classify_exterior", "linalg.classify_exterior", "call"),
    ("specgap.linalg", "exterior_power", "linalg.exterior_power", "call"),
    ("specgap.linalg", "classify", "linalg.classify", "call"),
    ("specgap.linalg", "spectrum", "linalg.spectrum", "call"),
    ("specgap.words", "enumerate_ball", "words.enumerate_ball", "gen"),
    ("numpy.linalg", "svd", "numpy.linalg.svd", "call"),
    ("numpy.linalg", "eig", "numpy.linalg.eig", "call"),
    ("numpy.linalg", "eigvals", "numpy.linalg.eigvals", "call"),
    ("numpy.linalg", "det", "numpy.linalg.det", "call"),
)


def _count_result(tracer, name, args, kwargs, out):
    """Work counts read from a traced call's arguments and result."""
    add = tracer.add
    if name == "obstruct.certify_not_limit":
        add("obstruct.certify_not_limit.indices", len(out.entries))
    elif name == "obstruct.find_negative_lambda":
        add("obstruct.find_negative_lambda.candidates", len(out.search_trace))
    elif name == "obstruct.check_domination":
        add("obstruct.check_domination.words", out.words_checked)
    elif name == "obstruct.sample_limit_set":
        add("obstruct.sample_limit_set.samples", out.attempted)
    elif name in ("certify.gap_profile", "certify.qi_profile"):
        add("certify.words_evaluated", out.words_evaluated)
    elif name == "linalg.classify_exterior":
        kind = "dense_calls" if out.method == "dense-minors" else "subset_calls"
        add(f"linalg.classify_exterior.{kind}", 1)
        key = "linalg.classify_exterior.max_multiplicity"
        tracer.maxima[key] = max(tracer.maxima.get(key, 0), out.top_multiplicity)
    elif name == "linalg.exterior_power":
        d = np.shape(args[0])[0]
        i = args[1] if len(args) > 1 else kwargs["i"]
        add("linalg.exterior_power.minors", math.comb(d, i) ** 2)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.active = False
        self._stack: list[list] = []   # [span index, name id, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def enter(self, nid: int):
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        stack.append([len(self.span_start), nid, 0.0])
        self.calls[nid] += 1
        self.span_start.append(perf_counter())

    def exit(self):
        end = perf_counter()
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, fn, name):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            _count_result(tracer, name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, fn, name):
        nid = self._name_id(name)
        tracer = self

        def steps(gen):
            while True:
                tracer.enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.add(name + ".words", 1)
                yield item

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return steps(gen) if tracer.active else gen

        traced.__wrapped__ = fn
        return traced

    def _set(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Wrap every traced function wherever specgap or numpy holds it."""
        import numpy.linalg
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "specgap" or n.startswith("specgap.")]
        numpy_holders = [numpy.linalg, sys.modules.get("numpy.linalg._linalg")]
        for modname, attr, name, kind in TRACED:
            module = sys.modules[modname]
            if kind.startswith("method:"):
                for cls_name in kind.split(":")[1].split(","):
                    cls = getattr(module, cls_name)
                    self._set(cls, attr, self._wrap_call(cls.__dict__[attr], name))
                continue
            original = getattr(module, attr)
            wrapped = (self._wrap_gen if kind == "gen" else self._wrap_call)(
                original, name)
            pool = numpy_holders if modname == "numpy.linalg" else holders
            for holder in pool:
                if holder is not None and getattr(holder, attr, None) is original:
                    self._set(holder, attr, wrapped)

    def uninstall(self):
        for obj, attr, value in reversed(self._patched):
            setattr(obj, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self times, call counts and work counts, by name."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[nid] / passes
            out[f"{name}.total_s"] = self.total_s[nid] / passes
            out[f"{name}.calls"] = self.calls[nid] / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        out.update(self.maxima)
        return out

    def attributed_s(self) -> float:
        """Sum of all self times: equals the summed root-span durations."""
        return math.fsum(self.self_s)

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))
