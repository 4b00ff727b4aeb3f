"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each qfold module from outside
the package: it replaces the function in its defining module or class and
in every qfold module that imported it by name (verify imports
shuffle_product from uqn, cli imports mutate_seed from qcluster, ...), so
calls through any module reach the wrapper.  `unpatch` restores them.

Three wrapper kinds:

- span: records (name, parent span, start, end) for every call and keeps
  the spans in memory until the run ends.  A span's self time is its
  duration minus the time covered by its child spans, by the Laurent leaf
  calls below it and by the tracer's own hooks.
- leaf: the Laurent scalar operations.  They run millions of times, so
  they keep only a call count and their summed time per operation (and
  charge that time to the enclosing span) instead of one record per call.
  Leaves must not call each other (mul, add and divexact do not), or the
  enclosing span would be charged twice.
- counter: counts calls only (LaurentScalar construction, and the
  recursive E-action memo lookups); their time stays in the enclosing span.

Sizes and ratios come from each call's arguments and result, in hooks that
run outside the timed interval.  The program is single-threaded with no
I/O, so no layer waits on another and there are no wait metrics.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

clock = time.perf_counter

# Fields of one span record in the flat span array.
_NAME, _PARENT, _START, _END, _EXCLUDED = range(5)
_WIDTH = 5


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array("d")
        self.stack = []
        self.leaves = {}
        self.counts = defaultdict(int)
        self.patches = []

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, before=None, after=None, errors=()):
        """Wrap fn so each call records a span named `name`."""
        nid = float(len(self.names))
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        failed_key = name + ".failed"

        def wrapper(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(args)
            parent = stack[-1] if stack else -1
            sid = len(spans) // _WIDTH
            spans.extend((nid, parent, 0.0, 0.0, 0.0))
            stack.append(sid)
            base = sid * _WIDTH
            spans[base + _START] = t1 = clock()
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[failed_key] += 1
                raise
            finally:
                spans[base + _END] = t2 = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            if parent >= 0:
                spans[parent * _WIDTH + _EXCLUDED] += (t1 - t0) + (clock() - t2)
            return result

        return wrapper

    def leaf(self, name, fn, errors=()):
        """Wrap a Laurent operation: count calls and sum their time."""
        agg = self.leaves.setdefault(name, [0, 0.0])
        spans, stack, counts = self.spans, self.stack, self.counts
        failed_key = name + ".failed"

        def wrapper(*args, **kwargs):
            agg[0] += 1
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            except errors:
                counts[failed_key] += 1
                raise
            finally:
                dt = clock() - t1
                agg[1] += dt
                if stack:
                    spans[stack[-1] * _WIDTH + _EXCLUDED] += dt

        return wrapper

    def counter(self, name, fn, before=None):
        """Wrap fn to count its calls (and run a cheap hook on them)."""
        counts = self.counts
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, module_name, qualname, wrap):
        """Replace a function everywhere qfold holds it; returns the original.

        For a method (qualname "Class.attr") every attribute of the class
        bound to the same function is replaced, so aliases such as
        __radd__ = __add__ are wrapped too.
        """
        module = sys.modules[module_name]
        *owner_path, attr = qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = wrap(original)
        holders = [owner] if owner_path else [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "qfold" or key.startswith("qfold."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self.patches.append((holder, key, original))
                    setattr(holder, key, wrapped)
        return original

    def unpatch(self):
        for holder, key, original in reversed(self.patches):
            setattr(holder, key, original)
        self.patches.clear()

    # -- results ---------------------------------------------------------

    def span_totals(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        spans = self.spans
        count = len(spans) // _WIDTH
        covered = [0.0] * count
        for sid in range(count):
            base = sid * _WIDTH
            parent = int(spans[base + _PARENT])
            if parent >= 0:
                covered[parent] += spans[base + _END] - spans[base + _START]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(count):
            base = sid * _WIDTH
            nid = int(spans[base + _NAME])
            calls[nid] += 1
            self_s[nid] += (spans[base + _END] - spans[base + _START]
                            - covered[sid] - spans[base + _EXCLUDED])
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

