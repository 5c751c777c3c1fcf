"""Outside-in layer tracing: wrappers around each layer's public calls.

:func:`install` replaces each function listed in :data:`LAYERS` with a
wrapper that opens a span on a :class:`SpanRecorder`; nothing inside the
program changes.  Spans live in memory.  A span's self time is its
duration minus the time its direct children covered, so on each thread
the self times of one root span's tree add up to that root's duration:
the layers partition the wall time of each job.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

#: (layer, module, attribute) — a method is ``Class.method``; a
#: module-level function is rebound in every loaded ``repro`` module that
#: imported it by name.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("compose", "repro.compose.registry", "SolverEntry.build_setup"),
    ("compose", "repro.compose.jacobi", "build_jacobi_program"),
    ("checker", "repro.checker.checker", "Checker.check_program"),
    ("analysis", "repro.analysis.engine", "analyze_program"),
    ("codegen", "repro.codegen.generator", "MicrocodeGenerator.__init__"),
    ("codegen", "repro.codegen.generator", "MicrocodeGenerator.generate"),
    ("plan", "repro.sim.progplan", "compiled_plan"),
    ("execute", "repro.sim.machine", "NSCMachine.run"),
    ("execute", "repro.sim.multinode", "MultiNodeStencil.run"),
    ("execute", "repro.service.slab", "execute_slab"),
    ("service.cache", "repro.service.cache", "ProgramCache.get_or_compile"),
    ("service.runner", "repro.service.runner", "BatchRunner.run"),
    ("service.results", "repro.service.results", "ResultStore.append"),
)

#: Layer names in report order; ``other`` is root self time outside them.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _m, _a in LAYERS))

#: The job root inside the serve daemon: one submission's execution on
#: the worker thread, ``BatchRunner`` construction and record handling
#: included.  (In-process workloads open the root around each runner call.)
DAEMON_ROOT: Tuple[Tuple[str, str, str], ...] = (
    ("other", "repro.server.service", "SimService._execute"),
)


class Span(NamedTuple):
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    root: int
    top: bool


class SpanRecorder:
    """Thread-aware in-memory span store."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots = 0
        self.spans: List[Span] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> List[Any]:
        stack = self._stack()
        if stack:
            root = stack[0][3]
        else:
            with self._lock:
                self._roots += 1
                root = self._roots
        # [name, start, time covered by direct children, root id]
        frame = [name, time.perf_counter(), 0.0, root]
        stack.append(frame)
        return frame

    def close(self, frame: List[Any]) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        span = Span(frame[0], threading.get_ident(), frame[1], end,
                    duration - frame[2], frame[3], not stack)
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, func: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        frame = self.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self.close(frame)

    def export(self) -> List[List[Any]]:
        with self._lock:
            return [list(span) for span in self.spans]


def _wrap(recorder: SpanRecorder, layer: str, func: Callable[..., Any]
          ) -> Callable[..., Any]:
    @functools.wraps(func)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(layer, func, *args, **kwargs)

    return traced


def install(recorder: SpanRecorder,
            targets: Tuple[Tuple[str, str, str], ...] = LAYERS
            ) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target (by default :data:`LAYERS`); returns
    ``(uninstall, missing)`` where ``missing`` names targets this version
    of the program lacks."""
    restore: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    for layer, module_name, attr in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            restore.append((owner, name, original))
            setattr(owner, name, _wrap(recorder, layer, original))
            continue
        original = getattr(module, name, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        traced = _wrap(recorder, layer, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                continue
            if vars(loaded).get(name) is original:
                restore.append((loaded, name, original))
                setattr(loaded, name, traced)

    def uninstall() -> None:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)

    return uninstall, missing


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count and summed self seconds."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += span.self_s
    return totals


def partition_error(spans: List[Span]) -> Tuple[int, int, float]:
    """``(roots, stray, worst)`` over every root span's tree: ``stray``
    counts roots other than a job root (``other``), i.e. layer calls made
    outside any job on their thread, whose time no job's partition holds;
    ``worst`` is the largest ``|sum of self times - root duration|``."""
    self_sum: Dict[int, float] = {}
    root_len: Dict[int, float] = {}
    for span in spans:
        self_sum[span.root] = self_sum.get(span.root, 0.0) + span.self_s
        if span.top:
            root_len[span.root] = span.end - span.start
    worst = max(
        (abs(self_sum[r] - root_len[r]) for r in root_len), default=0.0
    )
    stray = sum(1 for span in spans if span.top and span.name != "other")
    return len(root_len), stray, worst
