"""In-memory span tracer that wraps functions of an already imported package.

A span records (id, name, start, end, parent id, thread id, ok).  The parent
is the innermost open span of the same thread, so each thread keeps its own
stack and spans from a thread pool never nest under the caller's span.
"""

import contextlib
import functools
import itertools
import json
import sys
import threading
import time

# field order of a span tuple
ID, NAME, START, END, PARENT, TID, OK = range(7)


class Tracer:
    """Collects spans in memory; `dump` writes them out once, at the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """Return fn wrapped so every call records one span called `name`."""
        clock, spans, ids = self.clock, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              threading.get_ident(), ok))

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"main_thread": threading.main_thread().ident,
                       "spans": self.spans}, fh, separators=(",", ":"))


def _module_holders(package, fn):
    """Every (module, attribute) of the package's loaded modules bound to fn."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


@contextlib.contextmanager
def instrument(tracer, targets, package):
    """Rebind traced functions for the duration of the block.

    `targets` maps a span name to (owner, attribute).  For a module-level
    function every module of `package` that imported the function by name
    is rebound too, because callers look the name up in their own module.
    For a class attribute (method, classmethod or staticmethod) the class
    attribute is replaced.  Every binding is restored on exit.
    """
    saved = []
    try:
        for name, (owner, attr) in targets.items():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(tracer.wrap(name, raw.__func__))
                else:
                    new = tracer.wrap(name, raw)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            fn = getattr(owner, attr)
            new = tracer.wrap(name, fn)
            for mod, mod_attr in list(_module_holders(package, fn)):
                saved.append((mod, mod_attr, fn))
                setattr(mod, mod_attr, new)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    Children are the spans whose parent is this span; they ran in the same
    thread.  Work a span waits for in other threads is not subtracted.
    """
    children = {}
    for sp in spans:
        if sp[PARENT] is not None:
            children.setdefault(sp[PARENT], []).append((sp[START], sp[END]))
    out = {}
    for sp in spans:
        start, end = sp[START], sp[END]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sp[ID], ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sp[ID]] = (end - start) - covered
    return out


def outermost(spans):
    """Spans with no ancestor of the same name (so recursion counts once)."""
    by_id = {sp[ID]: sp for sp in spans}
    keep = []
    for sp in spans:
        parent = sp[PARENT]
        while parent in by_id and by_id[parent][NAME] != sp[NAME]:
            parent = by_id[parent][PARENT]
        if parent not in by_id:
            keep.append(sp)
    return keep
