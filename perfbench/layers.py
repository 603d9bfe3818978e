"""Outside-in layer tracer: wraps public repro calls, records self time.

Nothing inside the program changes.  Each traced call is replaced, in
every loaded ``repro`` module that holds it, by a wrapper that records
its call count, total time and self time (total minus the time spent
in traced calls nested inside it).  Calls on one thread nest, so the
self times of all rows never overlap: together with the time outside
every traced call (``unaccounted_s``) they sum to the traced wall.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

CountFn = Callable[[tuple, object], int]


class Tracer:
    """Per-row ``[calls, total_s, self_s]`` plus named counts."""

    def __init__(self) -> None:
        self.rows: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        #: time spent in traced children of each open traced call
        self._children: List[float] = []

    def timed(self, name: str, fn: Callable,
              count: Optional[CountFn] = None,
              count_name: Optional[str] = None) -> Callable:
        """``fn`` wrapped so each call lands in row ``name``."""
        row = self.rows.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = children.pop()
                if children:
                    children[-1] += elapsed
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - nested
            if count is not None:
                counts[count_name] += count(args, result)
            return result
        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only (its time stays with its
        caller, so no row is added)."""
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return traced


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``original``
    (``from x import f`` copies included) at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(tracer: Tracer, name: str, module: str, attr: str,
                    **options) -> None:
    original = getattr(importlib.import_module(module), attr)
    _rebind(original, tracer.timed(name, original, **options))


def _patch_method(tracer: Tracer, name: str, module: str, path: str,
                  **options) -> None:
    cls_name, attr = path.split(".")
    cls = getattr(importlib.import_module(module), cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr,
                classmethod(tracer.timed(name, raw.__func__, **options)))
    elif isinstance(raw, property):
        setattr(cls, attr,
                property(tracer.timed(name, raw.fget, **options)))
    else:
        setattr(cls, attr, tracer.timed(name, raw, **options))


def _checkpoint_bytes(args, path) -> int:
    return os.path.getsize(path)


#: (row, module, attribute or Class.method, count name, count fn).
#: Rows are named ``<module>.<call>`` after the layer they time.
METHODS = (
    ("testbed.assets.reference_library", "repro.acr.library",
     "ReferenceLibrary.ingest_all", "acr.library.entries",
     lambda args, added: added),
    ("acr.matcher.index", "repro.acr.matcher",
     "FingerprintMatcher.reindex", None, None),
    ("acr.matcher.match", "repro.acr.matcher",
     "FingerprintMatcher.match_batch", None, None),
    ("sim.run_until", "repro.sim.events", "EventLoop.run_until",
     None, None),
    ("testbed.validation.validate_session", "repro.testbed.validation",
     "validate_session", None, None),
    ("testbed.access_point.to_pcap_bytes", "repro.testbed.access_point",
     "AccessPoint.to_pcap_bytes", None, None),
    ("experiments.grid.cache_store", "repro.experiments.grid",
     "ResultCache.store", None, None),
    ("experiments.grid.cache_read", "repro.experiments.grid",
     "ResultCache.load_for", None, None),
    ("experiments.grid.cache_read", "repro.experiments.grid",
     "CellRecord.pcap_bytes", None, None),
    ("analysis.pipeline.decode", "repro.analysis.pipeline",
     "AuditPipeline.from_pcap_bytes", "analysis.packets",
     lambda args, pipeline: len(pipeline.packets)),
    ("fleet.aggregate.summarize", "repro.fleet.aggregate",
     "summarize_household", None, None),
    ("fleet.aggregate.fold", "repro.fleet.aggregate",
     "FleetAggregate.fold", None, None),
    ("fleet.aggregate.merge", "repro.fleet.aggregate",
     "FleetAggregate.merge", None, None),
    ("fleet.report.render", "repro.fleet.report",
     "render_population_report", None, None),
    ("service.segments.split", "repro.service.segments",
     "segment_record", None, None),
    ("service.bus.offer", "repro.service.bus", "SegmentBus.offer",
     None, None),
    ("service.auditor.ingest", "repro.service.auditor",
     "IncrementalAuditor.ingest", None, None),
    ("service.auditor.finalize", "repro.service.auditor",
     "IncrementalAuditor.finalize", None, None),
    ("service.checkpoint.write", "repro.service.checkpoint",
     "write_checkpoint", "service.checkpoint.bytes", _checkpoint_bytes),
)

#: Rows in table order (a row may time more than one call).
ROWS = tuple(dict.fromkeys(row for row, *__ in METHODS))


def install() -> Tracer:
    """Wrap every call in :data:`METHODS`; returns the live tracer.

    Import the ``repro`` modules the run uses first: a module imported
    later still sees the wrapped functions, since it copies them from
    their (already patched) defining module.
    """
    tracer = Tracer()
    for row, module, attr, count_name, count in METHODS:
        options = {"count": count, "count_name": count_name}
        if "." in attr:
            _patch_method(tracer, row, module, attr, **options)
        else:
            _patch_function(tracer, row, module, attr, **options)
    fingerprint = importlib.import_module("repro.acr.fingerprint")
    original = fingerprint.capture_state
    _rebind(original, tracer.counted("acr.fingerprint.capture_state.calls",
                                     original))
    return tracer
