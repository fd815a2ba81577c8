"""In-memory span recorder and the timing wrappers of the traced run.

The library is measured from outside: :func:`install_boundaries` swaps the
public functions that sit at each module boundary of ``hssulv`` for thin
wrappers that open a span around the original call, and restores them on
exit.  Spans live in memory (name, start, end, parent, thread, trace id)
and are written out once, at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    trace: int
    name: str
    parent: int | None
    thread: int
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans from any thread.

    A span opened on a thread with no open span of its own (an executor
    worker) is parented to the innermost open span of the main thread, so
    task spans hang under the ``execute`` call that spawned them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sid = next(self._ids)
        s = Span(sid, parent.trace if parent else sid, name,
                 parent.id if parent else None, threading.get_ident(),
                 time.perf_counter_ns(), attrs=attrs)
        stack.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def patch(self, module, attr: str, name: str, attrs=None):
        """Replace ``module.attr`` by a wrapper that records span ``name``.

        ``attrs(*args, **kwargs)`` may return extra fields for the span.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            with self.span(name, **extra):
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start_ns):
                fh.write(json.dumps({
                    "id": s.id, "trace": s.trace, "name": s.name,
                    "parent": s.parent, "thread": s.thread,
                    "start_ns": s.start_ns, "end_ns": s.end_ns, **s.attrs,
                }) + "\n")


class SpanIndex:
    """Queries over a finished set of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}

    def named(self, name: str, under: Span | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (under is None or self.is_under(s, under))]

    def is_under(self, s: Span, ancestor: Span) -> bool:
        pid = s.parent
        while pid is not None:
            if pid == ancestor.id:
                return True
            pid = self.by_id[pid].parent
        return False

    def self_seconds(self, s: Span) -> float:
        # Children on other threads ran concurrently, so only same-thread
        # children are subtracted.
        kids = sum(c.seconds for c in self.spans
                   if c.parent == s.id and c.thread == s.thread)
        return s.seconds - kids


def install_boundaries(tracer: Tracer, n: int, nleaf: int):
    """Wrap the public functions at each module boundary of ``hssulv``.

    Every wrapped name is looked up through its module at call time, by the
    library itself (``construct.kernel_matrix``, ``construct.build_shared_basis``,
    ``factor.partial_cholesky``, ``factor.cholesky``) or by the benchmark.
    A basis call is a leaf call when its input is one leaf's admissible
    block row, ``(n - nleaf) x nleaf``; transfer inputs are the stacked
    skeleton rows of two children.
    """
    from hssulv import construct, factor, geometry, taskdag

    def kernel_attrs(spec, x, y):
        return {"entries": len(x) * len(y)}

    def basis_attrs(row_block, max_rank):
        rows, cols = row_block.shape
        return {"leaf": (rows, cols) == (n - nleaf, nleaf),
                "bytes": rows * cols * 8}

    tracer.patch(geometry, "generate_grid", "geometry.generate_grid")
    tracer.patch(construct, "build_hss", "construct.build_hss")
    tracer.patch(construct, "build_blr2", "construct.build_blr2")
    tracer.patch(construct, "kernel_matrix", "kernels.kernel_matrix", kernel_attrs)
    tracer.patch(construct, "build_shared_basis", "construct.build_shared_basis",
                 basis_attrs)
    tracer.patch(construct, "matvec", "construct.matvec")
    tracer.patch(taskdag, "build_dag", "taskdag.build_dag")
    tracer.patch(taskdag, "execute", "taskdag.execute")
    tracer.patch(factor, "partial_cholesky", "linalg.partial_cholesky")
    tracer.patch(factor, "cholesky", "linalg.cholesky")
    tracer.patch(factor, "ulv_factor_hss", "factor.ulv_factor_hss")
    tracer.patch(factor, "ulv_factor_blr2", "factor.ulv_factor_blr2")
    tracer.patch(factor, "ulv_solve", "factor.ulv_solve")
