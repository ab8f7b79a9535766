"""Per-layer spans for the benchmark's traced run.

The traced run executes each workload command in-process through
``repro.cli.main(argv)``.  This module wraps the public entry points of
every layer — from the benchmark's own files, without touching program
code — and records, per process, a span tree reduced to per-layer
counts, inclusive time and self time (a span's duration minus the part
its child spans cover).  It also snapshots the program's own
``REPRO_PROFILE`` stage recorder and the process-local die cache.

Three kinds of process write a trace file ``<role>-<pid>.json`` into
the trace directory:

* ``tracer`` — the process started as ``python3 perfbench/layers.py
  TRACE_DIR ARGV...``; it times a fresh ``import repro.cli``, installs
  the wrappers and calls ``main(ARGV)``.
* ``pool-worker`` — a ``BatchRunner`` worker forked from a traced
  process.  It inherits the wrappers; the first span it opens resets the
  inherited state, and it rewrites its file after every top-level span
  because the pool terminates its workers without running exit hooks.
* ``shard`` — a ``repro campaign`` subprocess started by the dispatcher.
  The tracer puts ``perfbench/hook`` on ``PYTHONPATH``; its
  ``sitecustomize`` calls :func:`install_in_subprocess`.  A shard killed
  before its ``main`` returns writes nothing, and the report counts it
  as unmeasured.

A wrapper target that no longer exists is skipped and listed in the
trace file under ``missing_targets``, so a refactor of the program
degrades the traced report instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

#: Where subprocesses write their trace files (set by the tracer).
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: (module, attribute path, layer) for every wrapped entry point.
#: ``cli.main`` and ``batch.task`` are the process roots of the tracer,
#: the shards and the pool workers; the rest are the reported layers.
TARGETS = (
    ("repro.cli", "main", "cli.main"),
    ("repro.core.die_cache", "build_die", "core.die_build"),
    ("repro.core.adc", "PipelineAdc.convert", "core.convert"),
    ("repro.core.adc", "PipelineAdc.convert_samples", "core.convert"),
    ("repro.core.adc_array", "AdcArray.convert", "core.convert"),
    ("repro.core.adc_array", "AdcArray.convert_samples", "core.convert"),
    ("repro.core.calibration", "GainCalibration.calibrate", "core.calibrate"),
    ("repro.core.calibration", "GainCalibrationArray.calibrate", "core.calibrate"),
    ("repro.signal.spectrum", "SpectrumAnalyzer.analyze", "signal.spectrum"),
    ("repro.signal.spectrum", "SpectrumAnalyzer.analyze_batch", "signal.spectrum"),
    ("repro.signal.linearity", "ramp_linearity", "signal.linearity"),
    ("repro.signal.linearity", "histogram_linearity", "signal.linearity"),
    ("repro.runtime.batch", "BatchRunner.run", "batch.run"),
    ("repro.runtime.batch", "_run_task", "batch.task"),
    ("repro.runtime.campaign", "CampaignLedger.record", "ledger.record"),
    ("repro.runtime.campaign", "CampaignLedger.read", "ledger.load"),
    ("repro.runtime.cell_store", "BoundCellStore.get", "store.get"),
    ("repro.runtime.cell_store", "BoundCellStore.put", "store.put"),
    ("repro.runtime.shards", "merge_campaign_ledgers", "dispatch.merge"),
    ("repro.runtime.dispatcher", "CampaignDispatcher._gather", "dispatch.merge"),
    ("repro.runtime.dispatcher", "CampaignDispatcher._run_wave", "dispatch.wave"),
)


class Tracer:
    """Span accounting for one process (reset when a fork is detected)."""

    def __init__(self, trace_dir: str, role: str):
        self.trace_dir = trace_dir
        self.role = role
        self.missing_targets: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        # layer -> [count, total_s, self_s]; count and total_s only
        # for spans not nested in a span of the same layer.
        self.layers: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.stack: list[list] = []
        self.die_cache_base = _die_cache_counts()

    def _adopt_fork(self) -> None:
        """Start fresh in a forked worker: nothing inherited is its work."""
        if os.getpid() == self.pid:
            return
        self.role = "pool-worker"
        self._reset()
        try:
            from repro import profiling

            if profiling.enabled():
                profiling.enable(profiling.ProfileRecorder())
        except ImportError:
            pass

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, layer: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._adopt_fork()
            nested = any(frame[0] == layer for frame in tracer.stack)
            frame = [layer, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer.stack.pop()
                entry = tracer.layers.setdefault(layer, [0, 0.0, 0.0])
                if not nested:
                    entry[0] += 1
                    entry[1] += duration
                entry[2] += duration - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                elif tracer.role == "pool-worker":
                    tracer.flush()
            if after is not None and not nested:
                after(tracer, args, result, duration)
            return result

        return traced

    def snapshot(self) -> dict:
        hits, misses = _die_cache_counts()
        base_hits, base_misses = self.die_cache_base
        stages = []
        try:
            from repro import profiling

            recorder = profiling.active()
            if recorder is not None:
                stages = [stat.to_dict() for stat in recorder.stats()]
        except ImportError:
            pass
        return {
            "role": self.role,
            "pid": self.pid,
            "layers": {
                name: {"count": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.layers.items()
            },
            "counters": self.counters,
            "die_cache": {"hits": hits - base_hits, "misses": misses - base_misses},
            "stages": stages,
            "missing_targets": self.missing_targets,
        }

    def flush(self, **extra) -> None:
        """Atomically (re)write this process's trace file."""
        path = os.path.join(self.trace_dir, f"{self.role}-{self.pid}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump({**self.snapshot(), **extra}, handle)
        os.replace(tmp, path)


def _die_cache_counts() -> tuple[int, int]:
    module = sys.modules.get("repro.core.die_cache")
    if module is None:
        return (0, 0)
    stats = module.stats()
    return (stats.hits, stats.misses)


# --- per-layer counters read from arguments and results ---------------------


def _after_convert(tracer, args, result, duration):
    tracer.count("core.samples_converted", result.codes.size)


def _after_batch(tracer, args, result, duration):
    busy = sum(outcome.elapsed_s for outcome in result.outcomes)
    tracer.count("batch.tasks", len(result.outcomes))
    tracer.count("batch.busy_s", busy)
    tracer.count("batch.failed", len(result.failures))
    tracer.count("batch.wait_s", result.workers * duration - busy)
    if result.workers > 1:
        # The dispatching process blocks while its workers convert.
        tracer.count("root.blocked_s", duration)


def _after_store_get(tracer, args, result, duration):
    tracer.count("store.hits", result is not None)


def _after_wave(tracer, args, result, duration):
    tracer.count("root.blocked_s", duration)


AFTER = {
    "core.convert": _after_convert,
    "batch.run": _after_batch,
    "store.get": _after_store_get,
    "dispatch.wave": _after_wave,
}


def _record_counting(tracer, original):
    """``CampaignLedger.record`` taking a one-shot iterable: count it."""

    @functools.wraps(original)
    def record(self, cells):
        cells = list(cells)
        tracer.count("ledger.records", len(cells))
        return original(self, cells)

    return record


def install(tracer: Tracer) -> None:
    """Wrap every target; rebind module-level functions where imported."""
    import importlib

    replaced: dict[int, tuple] = {}
    for module_name, path, layer in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            tracer.missing_targets.append(f"{module_name}.{path}")
            continue
        inner = original
        if layer == "ledger.record":
            inner = _record_counting(tracer, original)
        wrapped = tracer.wrap(layer, inner, AFTER.get(layer))
        setattr(owner, attribute, wrapped)
        if not owner_name:
            replaced[id(original)] = (original, wrapped)
    # ``from module import fn`` copies the reference; rebind the copies.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for name, value in list(vars(module).items()):
            pair = replaced.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, name, pair[1])


def _root_s(tracer: Tracer) -> float:
    return tracer.layers.get("cli.main", [0, 0.0, 0.0])[1]


def install_in_subprocess() -> None:
    """``sitecustomize`` entry: trace a shard subprocess of a traced run."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    tracer = Tracer(trace_dir, "shard")
    import repro.cli

    install(tracer)
    main = repro.cli.main

    @functools.wraps(main)
    def main_then_flush(*args, **kwargs):
        try:
            return main(*args, **kwargs)
        finally:
            if os.getpid() == tracer.pid:
                tracer.flush(root_s=_root_s(tracer))

    repro.cli.main = main_then_flush


def run_traced(trace_dir: str, argv: list[str]) -> int:
    """The tracer process: fresh import, wrappers, ``main(argv)``."""
    start = perf_counter()
    import repro.cli

    import_s = perf_counter() - start
    from repro.core import die_cache

    tracer = Tracer(trace_dir, "tracer")
    install(tracer)
    die_cache.clear()
    tracer.die_cache_base = _die_cache_counts()
    hook_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook")
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        hook_dir + os.pathsep + previous if previous else hook_dir
    )
    os.environ[TRACE_DIR_ENV] = trace_dir
    code = repro.cli.main(argv)
    tracer.flush(import_s=import_s, root_s=_root_s(tracer), exit_code=code)
    return code


if __name__ == "__main__":
    raise SystemExit(run_traced(sys.argv[1], sys.argv[2:]))
