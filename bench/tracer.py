"""Spans and exact counters recorded from outside the package.

The tracer wraps, in place, every function one sncweight module takes
from another: each public function (listed in a module's `__all__`) and
each private one that another module imports, both where it is defined
and wherever it was imported, so calls from inside the defining module
are seen too (`require_valid` looks up `sncdata.validate` that way).  A
few methods that cross modules on instances are wrapped on their class:
`IntMatrix.__mul__`, `FpAbHom.is_well_defined` and `FpAbHom.is_zero_hom`.

A span is (name, start, end, parent, job).  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration
minus the time covered by its child spans; a module's self time is the
sum over the spans of its functions.  Code reached without crossing a
wrapped boundary counts towards the caller's span.
"""

import importlib
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "sncweight"
LAYERS = ("cli", "builders", "sncdata", "weight", "chain", "abgroup", "intmat", "dual")

METHODS = (
    ("intmat", "IntMatrix", "__mul__"),
    ("abgroup", "FpAbHom", "is_well_defined"),
    ("abgroup", "FpAbHom", "is_zero_hom"),
)


def _flat(m) -> "tuple | list":
    data = getattr(m, "_data", None)
    if data is None:
        data = [x for row in m.to_rows() for x in row]
    return data


def _nnz(data) -> int:
    return len(data) - data.count(0)


def _bits(data) -> int:
    return max(map(abs, data), default=0).bit_length()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self._open: list[list] = []  # [span index, start, time covered by children]
        self._undo: list[tuple] = []
        self._in_cohomology = 0

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """fn recording a span called name; after(counts, args, result) adds counts."""
        tracer = self

        def traced(*args, **kwargs):
            frames = tracer._open
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, perf_counter(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - frame[1]
                parent = frames[-1] if frames else None
                if parent is not None:
                    parent[2] += duration
                tracer.spans[index] = (name, frame[1], end,
                                       parent[0] if parent else -1, tracer.job)
                tracer.self_time[name] += duration - frame[2]
                tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _snf_counts(self, counts, args, result):
        a = args[0]
        data = _flat(a)
        counts["intmat.snf.entries"] += a.rows * a.cols
        counts["intmat.snf.nnz"] += _nnz(data)
        diagonal = _flat(result[1]) if isinstance(result, tuple) and len(result) > 1 else ()
        bits = max(_bits(data), _bits(diagonal))
        counts["intmat.snf.max_bits"] = max(counts["intmat.snf.max_bits"], bits)
        if self._in_cohomology:
            counts["chain.cohomology.reductions"] += 1

    @staticmethod
    def _differential_counts(counts, args, result):
        m = result.matrix
        counts["sncdata.level_differential.entries"] += m.rows * m.cols
        counts["sncdata.level_differential.nnz"] += _nnz(_flat(m))

    @staticmethod
    def _simplify_counts(counts, args, result):
        counts["dual.simplify_presentation.gens_in"] += args[0].n_generators
        counts["dual.simplify_presentation.gens_out"] += result.n_generators

    def _cohomology(self, fn):
        """chain.cohomology, also counting the differentials it reduces."""
        tracer = self

        def counted(c, *args, **kwargs):
            tracer.counts["chain.cohomology.differentials"] += len(c.differentials)
            tracer._in_cohomology += 1
            try:
                return fn(c, *args, **kwargs)
            finally:
                tracer._in_cohomology -= 1

        return counted

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        targets: dict[int, tuple] = {}
        for mod in modules.values():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (mod, name, fn)
            for fn in list(vars(mod).values()):
                if (isinstance(fn, types.FunctionType) and fn.__module__ != mod.__name__
                        and fn.__module__.startswith(PACKAGE + ".")):
                    owner = sys.modules[fn.__module__]
                    targets[id(fn)] = (owner, fn.__name__, fn)
        after = {
            "intmat._snf_reduce": self._snf_counts,
            "sncdata.level_differential": self._differential_counts,
            "dual.simplify_presentation": self._simplify_counts,
        }
        wrapped = {}
        for owner, name, fn in targets.values():
            span = f"{owner.__name__.rpartition('.')[2]}.{name}"
            inner = self._cohomology(fn) if span == "chain.cohomology" else fn
            wrapped[id(fn)] = self.wrap(span, inner, after.get(span))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and isinstance(value, types.FunctionType):
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapped[id(value)])
        for layer, cls_name, name in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            fn = cls.__dict__.get(name) if cls is not None else None
            if fn is not None:
                self._undo.append((cls, name, fn))
                setattr(cls, name, self.wrap(f"{layer}.{cls_name}.{name}", fn))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def module_self_time(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            out[name.partition(".")[0]] += t
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
