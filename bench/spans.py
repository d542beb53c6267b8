"""Span recorder for the traced run; it changes nothing under src/.

`Recorder.install()` wraps every public function of the ffperiods modules,
everywhere the function object is bound (its own module, the modules that
import it, the package namespace), and the public methods and arithmetic
operators of their classes.  Each wrapped call records a span (name, start,
end, parent) in arrays kept in memory; nothing leaves the process until
`summary()` reduces them at the end of the session.  The hot element
operations (every method of FqElem and TowerElem, and FqField.elem) are
counted instead, because a span each would cost more than the operation;
their time shows up in the self time of the span that called them.
"""

import functools
import importlib
import types
from array import array
from time import perf_counter

MODULES = ("fields", "series", "ratfunc", "coeffseries", "towers", "lfunctions",
           "cmshtuka", "amotive", "carlitz", "cli")
COUNT_ONLY = {"fields.FqElem", "fields.FqField.elem", "towers.TowerElem"}
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__pow__", "__neg__", "__mod__"}
# private, but a layer boundary: the eager log-table build, which the first
# multiplication, inversion or power in a field can trigger as well as the
# generator lookups
PRIVATE_SPANS = {"fields.FqField._build_tables"}


class Recorder:
    def __init__(self, result_hooks=None):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.gauges = {}
        self._hooks = result_hooks or {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        sid = self._name_id(name)
        hook = self._hooks.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_class(self, cls, module):
        prefix = "%s.%s" % (module, cls.__name__)
        for attr, raw in list(vars(cls).items()):
            name = "%s.%s" % (prefix, attr)
            if attr.startswith("_") and attr not in OPERATORS and name not in PRIVATE_SPANS:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not isinstance(fn, types.FunctionType):
                continue
            count_only = prefix in COUNT_ONLY or name in COUNT_ONLY
            wrapped = self._count(name, fn) if count_only else self._span(name, fn)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def install(self):
        package = importlib.import_module("ffperiods")
        modules = {m: importlib.import_module("ffperiods." + m) for m in MODULES}
        replace = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replace[id(obj)] = (obj, self._span("%s.%s" % (short, attr), obj))
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, short)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    # -- results -----------------------------------------------------------

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def gauge_max(self, key, value):
        self.gauges[key] = max(self.gauges.get(key, value), value)

    def summary(self):
        """Per span name: calls, total_s and self_s (span time minus the time
        covered by its child spans), plus the counters and gauges."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            sid = self.span_name[i]
            dur = ends[i] - starts[i]
            calls[sid] += 1
            total[sid] += dur
            own[sid] += dur - child[i]
        spans = {
            name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
            for i, name in enumerate(self.names)
        }
        return {"spans": spans, "span_count": n, "counts": dict(self.counts),
                "gauges": dict(self.gauges)}
