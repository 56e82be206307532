"""Per-layer time and counts of one stochpod process, installed from outside.

The package is not modified.  For the life of one process, each layer's
entry point is replaced by a wrapper that records time and counts.  That
reaches every caller because every call site in the pipeline looks its
callee up at call time, through a module global
(``pipeline.batch_fractional_draws``) or a class attribute
(``RandomStream.normal_matrix``).  An entry point that a later version of
the package no longer has is skipped, and its layer reads zero.

A layer's total is the summed duration of its calls.  Its self time is the
total minus the time of the layers called directly inside it, so the self
time of a stage is the part of the stage that no layer accounts for.  A
layer entered again from inside itself (one objective closure calling
another) is counted once.  Layers called once per random stream or per
sample would cost more to keep as spans than the work they time, so they
only add their time and counts to the layer and to their caller; every
other call is also kept as a span (id, parent id, layer, start, end).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

_clock = time.perf_counter

STAGES = ("train", "sample", "predict", "report")


class _Frame:
    __slots__ = ("layer", "span_id", "child")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Aggregated layer times, counts and spans of the calls it wraps."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.streams: set[tuple[int, int]] = set()
        self._stack = [_Frame(None, None)]
        self._next_id = 0
        self._undo: list[tuple] = []
        self._projections = None   # (counter object, its count at install)

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def _spanned(self, fn, layer, keep=True, counts=(), after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent.layer == layer:
                return fn(*args, **kwargs)
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent.span_id
            frame = _Frame(layer, span_id)
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                self.total[layer] += duration
                self.self_time[layer] += duration - frame.child
                self.calls[layer] += 1
                parent.child += duration
                if keep:
                    self.spans.append((span_id, parent.span_id, layer, start, end))
            for name in counts:
                self.counts[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span(self, owner, attr, layer, keep=True, counts=(), after=None) -> None:
        """Time every call of ``owner.attr`` as ``layer``."""
        self._patch(owner, attr,
                    lambda fn: self._spanned(fn, layer, keep, counts, after))

    def factory(self, owner, attr, layer, counts=()) -> None:
        """Time every call of the callables that ``owner.attr`` returns."""
        def make(fn):
            def wrapper(*args, **kwargs):
                return self._spanned(fn(*args, **kwargs), layer, True, counts)
            return wrapper
        self._patch(owner, attr, make)

    def counter(self, owner, attr, name) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def streams_of(self, owner, attr, layer) -> None:
        """Time a per-stream Gaussian generator as a leaf of its caller."""
        stack = self._stack
        total, calls, counts, streams = self.total, self.calls, self.counts, self.streams

        def make(fn):
            def wrapper(stream, *args, **kwargs):
                start = _clock()
                result = fn(stream, *args, **kwargs)
                duration = _clock() - start
                total[layer] += duration
                calls[layer] += 1
                stack[-1].child += duration
                counts["sampling.gaussians"] += result.size
                streams.add((stream.master_seed, stream.stream_index))
                return result
            return wrapper
        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- count hooks --------------------------------------------------------

    def _batch_draws(self, args, result) -> None:
        self.counts["sampling.draws"] += int(result.shape[0])

    def _one_draw(self, args, result) -> None:
        self.counts["sampling.draws"] += 1

    def _cache(self, args, result) -> None:
        cache = getattr(result, "cache", None)
        self.counts["training.cache_hits"] += getattr(cache, "hits", 0)
        self.counts["training.cache_misses"] += getattr(cache, "misses", 0)

    def _bytes(self, name):
        def hook(args, result):
            path = Path(args[0])
            size = path.stat().st_size
            sidecar = path.with_suffix(".json")
            if path.suffix == ".bin" and sidecar.exists():
                size += sidecar.stat().st_size
            self.counts[name] += size
        return hook

    # -- results ------------------------------------------------------------

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["sampling.distinct_streams"] = len(self.streams)
        if self._projections is not None:
            counter, start = self._projections
            counts["rom.projections"] = counter.count - start
        return {
            "layers": {layer: {"total_s": self.total[layer],
                               "self_s": self.self_time[layer],
                               "calls": self.calls[layer]}
                       for layer in sorted(self.total)},
            "counts": counts,
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the stochpod pipeline with ``tracer``."""
    from stochpod import ensemble, pipeline, rom, sampling

    t = tracer
    counter = getattr(rom, "projection_counter", None)
    if counter is not None:
        t._projections = (counter, counter.count)
    for stage in STAGES:
        t.span(pipeline, f"stage_{stage}", f"pipeline.{stage}")
    t.span(pipeline, "compact_svd", "subspace.pod")
    t.span(pipeline, "train_integer_beta", "training.integer", after=t._cache)
    t.span(pipeline, "refine_beta_real", "training.refine")
    for driver in set(getattr(pipeline, "_DRIVERS", {}).values()):
        t.span(driver, "snapshots", "problems.snapshots")
        t.span(driver, "references", "pipeline.references",
               counts=("pipeline.references_calls",))
        t.span(driver, "draw_ensembles", "pipeline.ensembles")
        t.factory(driver, "integer_evaluator", "training.objective",
                  counts=("training.objective_calls",))
        t.factory(driver, "real_objective", "training.objective",
                  counts=("training.objective_calls", "training.refine_evals"))
    for kernel, count in (("_cubic_newton_batch", "pipeline.newton_batch_calls"),
                          ("_dynamic_qoi_predictions", "pipeline.newmark_kernel_calls"),
                          ("_linear_qoi_predictions", "pipeline.linear_kernel_calls")):
        t.span(pipeline, kernel, "pipeline.kernel", counts=(count,))
    t.span(pipeline, "batch_fractional_draws", "sampling.draws",
           counts=("sampling.batch_draws_calls",), after=t._batch_draws)
    t.span(ensemble, "sample_fractional", "sampling.draws", keep=False,
           counts=("sampling.per_sample_draws",), after=t._one_draw)
    t.streams_of(sampling.RandomStream, "normal_matrix", "sampling.stream")
    t.counter(pipeline, "run_srom", "ensemble.run_srom_calls")
    for solver in ("solve_rom_nonlinear", "solve_nonlinear_cubic",
                   "solve_linear_static", "newmark_integrate"):
        counts = ("rom.rom_newton_calls",) if solver == "solve_rom_nonlinear" else ()
        t.span(rom, solver, "rom.solve", keep=False, counts=counts)
    for reducer in ("galerkin_reduce", "two_stage_reduce", "inner_reduce"):
        t.span(rom, reducer, "rom.reduce", keep=False)
    t.span(pipeline, "summarize_matrix", "ensemble.summarize")
    for writer in ("save_matrix", "write_csv", "write_json"):
        t.span(pipeline, writer, "matrixio.write",
               after=t._bytes("matrixio.bytes_written"))
    for reader in ("load_matrix", "read_csv", "read_json"):
        t.span(pipeline, reader, "matrixio.read",
               after=t._bytes("matrixio.bytes_read"))
