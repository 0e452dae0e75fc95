"""Span tracing from outside the package.

A Tracer replaces the public functions of the package's modules with
wrappers that record one span per call: name, start, end, parent span and
the op id the harness set. Because the wrappers are installed as module
attributes, calls made inside the package through a module-level name (for
example refute_xor -> flatten, or lambda_certificate ->
nonbacktracking.build) are seen too. Private (_-prefixed) functions, classes
and names a module merely imported are never wrapped.

A few spans carry a probe: a small value read from the call's result (the
lambda a certificate returned, the dimension of a flattened matrix, ...).
Probes run inside a child span named PROBE_SPAN, so their cost never shows
up in a layer's self time.
"""

import functools
import inspect
import time

import numpy as np

PROBE_SPAN = "trace.probe"


def _split_nnz(result):
    main, residual = result
    return {"nnz_main": int(np.count_nonzero(main.base)),
            "nnz_residual": int(np.count_nonzero(residual.base))}


# span name -> function of the call's result returning {field: value}.
PROBES = {
    "certify.lambda_certificate": lambda lam: {"lambda": float(lam)},
    "refute.flatten": lambda F: {"flatten_dim": int(F.dim)},
    "refute.split": _split_nnz,
    "nonbacktracking.build": lambda G: {"oriented_edges": len(G.index)},
}


def _cli_subcommand(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    return argv[0] if argv else "none"


# span name -> function of the call's arguments giving a suffix, so one
# function can be reported per mode it runs in.
SUFFIXES = {"cli.main": _cli_subcommand}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "probe")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.probe = None


def public_functions(module):
    """Public functions defined in `module` itself, by attribute name."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Records spans for every public function of the given modules while
    installed. Use as a context manager; the original attributes are put
    back on exit."""

    def __init__(self, modules, clock=time.perf_counter):
        self.modules = list(modules)
        self.clock = clock
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def short_name(self, module):
        return module.__name__.rsplit(".", 1)[-1]

    def wrapped_names(self):
        return sorted(f"{self.short_name(m)}.{name}"
                      for m in self.modules for name in public_functions(m))

    def __enter__(self):
        for module in self.modules:
            prefix = self.short_name(module)
            for name, fn in public_functions(module).items():
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{prefix}.{name}", fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        suffix = SUFFIXES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if suffix is not None:
                span_name = f"{name}.{suffix(args, kwargs)}"
            span = self.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if probe is not None:
                inner = self.begin(PROBE_SPAN, parent=span.parent)
                try:
                    span.probe = probe(result)
                finally:
                    self.end(inner)
            return result
        return wrapper

    def begin(self, name, parent=None):
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(name, self.clock(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")


def self_times(spans):
    """Map each span to its duration minus the part of its interval that
    its direct child spans cover (overlapping children counted once)."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[id(s)] = (s.end - s.start) - covered
    return out


def ancestors_of(spans, name):
    """ids of every span that has a span named `name` below it, at any
    depth."""
    out = set()
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and id(p) not in out:
            out.add(id(p))
            p = p.parent
    return out
