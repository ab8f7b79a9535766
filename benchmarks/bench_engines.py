"""Execution-configuration comparison: serial vs pool vs fast wall time.

Benchmarks seeded die-population and campaign workloads, all on the
die-batched chunk path, through every execution configuration:

- ``dynamic-screen`` — the headline workload: 32 dies x 4096 samples,
  coherent tone capture + FFT metrics per die, die chunks converted as
  single ``AdcArray`` passes with batched FFTs.
- ``yield-screen`` — the full ``repro mc`` workload (tone + 16
  samples/code linearity ramp).  The long ramp is per-sample bound;
  the pool supplies the parallel axis.
- ``calibrated-yield`` — the ``repro mc --calibrate`` workload: every
  die is foreground gain-calibrated before screening.
- ``pvt-campaign`` — the ``repro campaign`` sign-off workload: a
  5-corner x 3-temperature x N-die grid of corner-batched
  ``(cells, samples)`` AdcArray passes.
- ``sharded-campaign`` — the scale-out path: the grid splits into two
  shards (``CampaignSpec.shard``) that write into one shared cell
  store, and a whole-grid campaign over the store reads the report
  back as a store projection (every cell served, none recomputed).
  Measures the shard + store overhead on top of the plain campaign and
  asserts the projected metrics stay consistent with serial.

Configurations per workload:

- ``serial``          — exact precision, 1 worker.
- ``pool``            — exact precision, all CPUs: process parallelism
  (the pool fans out die/cell chunks).
- ``vectorized-fast`` — 1 worker, the opt-in ``precision="fast"`` tier
  (float32 + fused noise draws).

The names are the ones earlier five-configuration runs used for the
same paths, so the committed history trend stays continuous.  Per-die
metrics are asserted identical across the exact configurations (a
die's codes are bit-exact for any worker count); the fast tier is
instead gated by statistical equivalence — every metric must agree
with serial within a documented tolerance, never bitwise.  The wall
times plus speedups are emitted as a ``BENCH_engines.json`` artifact
for the perf trajectory, each configuration with its
``parallel_efficiency`` (speedup over serial per worker).  The artifact
records environment metadata (numpy version, CPU count, platform, and
the BLAS thread configuration: the OpenBLAS under thread control or
``"unpinned"``, the parent's thread count and the count a batch task
reads back) so baseline comparisons across machines are interpretable.

``--compare-baseline PATH`` additionally compares the fresh run against
a committed baseline artifact (``benchmarks/BENCH_baseline.json``): the
run fails when any shared workload's wall time regresses beyond the
tolerance (default 1.5x) or when the configurations' metrics diverge — the CI
benchmark-regression gate.

``--history-dir DIR`` appends the run to a perf-trajectory history:
one schema-versioned JSON per run (``repro.bench-history/v1``) stamped
with a UTC timestamp and best-effort git identity, wrapping the full
v4 bench document.  ``--history-report`` renders the accumulated
per-workload wall-time trend from such a directory without rerunning
anything; ``--history-plot PNG`` renders the same trajectory as a
matplotlib figure (one panel per workload, one line per engine).  The
committed trajectory lives in ``benchmarks/BENCH_history/``; CI
appends its own run as an artifact and uploads the rendered PNG.

Run as a script::

    python benchmarks/bench_engines.py --dies 32 --fft-points 4096 \
        --out BENCH_engines.json
    python benchmarks/bench_engines.py --dies 16 --fft-points 2048 \
        --compare-baseline benchmarks/BENCH_baseline.json
    python benchmarks/bench_engines.py --history-report

or through pytest (small smoke workload)::

    pytest benchmarks/bench_engines.py -q --benchmark-disable
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.schemas import BENCH_ENGINES_SCHEMA, BENCH_HISTORY_SCHEMA

#: The committed perf-trajectory directory.
HISTORY_DIR = Path(__file__).resolve().parent / "BENCH_history"

#: Wall-time regression tolerance of the --compare-baseline gate.
BASELINE_TOLERANCE = 1.5

#: Additive slack [s] on top of the tolerance: sub-100ms workloads
#: cannot trip the gate on scheduler noise alone.
BASELINE_SLACK_S = 0.1

#: Dies per vectorized chunk for the dynamic screen (cache-sized).
_DYNAMIC_DIE_CHUNK = 8

#: Statistical-equivalence tolerances for the fast tier.  The fast
#: tier draws a different (fused) noise sequence, so its metrics are a
#: different statistical realization of the same die — the gate bounds
#: the realization spread, it does not claim bitwise precision.
#: Relative covers the large dB-scale metrics (SNDR/SFDR/ENOB: ~2% is
#: ~1.3 dB / ~0.2 bit headroom over the ~0.1 dB observed); absolute
#: covers the small LSB-scale linearity metrics, whose code-density
#: estimates carry ~0.1-0.2 LSB of realization noise of their own.
FAST_REL_TOL = 0.02
FAST_ABS_TOL = 0.35


def _engine_configs(workers: int) -> dict[str, dict]:
    return {
        "serial": {"workers": 1},
        "pool": {"workers": workers},
        "vectorized-fast": {"workers": 1, "precision": "fast"},
    }


# --- dynamic screen (tone + FFT only) ----------------------------------


@dataclass(frozen=True)
class _DynamicTask:
    """One die (or die chunk) of the dynamic screen."""

    samples: tuple
    n_fft: int
    conversion_rate: float = 110e6
    input_frequency: float = 10e6
    precision: str = "exact"


def _measure_dynamic_chunk(task: _DynamicTask):
    from repro.core.adc_array import AdcArray
    from repro.core.config import AdcConfig
    from repro.signal.generators import SineGenerator
    from repro.signal.spectrum import SpectrumAnalyzer

    adc = AdcArray(
        AdcConfig.paper_default(),
        task.conversion_rate,
        task.samples,
        precision=task.precision,
    )
    tone = SineGenerator.coherent(
        task.input_frequency, task.conversion_rate, task.n_fft, amplitude=0.995
    )
    spectra = SpectrumAnalyzer().analyze_batch(
        adc.convert(tone, task.n_fft).codes, task.conversion_rate
    )
    return [
        (die.index, m.sndr_db, m.enob_bits)
        for die, m in zip(task.samples, spectra)
    ]


def _run_dynamic_config(dies, n_fft, workers, precision="exact"):
    from repro.runtime.batch import BatchRunner

    chunk = _DYNAMIC_DIE_CHUNK
    tasks = [
        _DynamicTask(
            samples=tuple(dies[low : low + chunk]),
            n_fft=n_fft,
            precision=precision,
        )
        for low in range(0, len(dies), chunk)
    ]
    batch = BatchRunner(workers=workers).run(_measure_dynamic_chunk, tasks)
    batch.raise_first_failure()
    rows = [row for value in batch.values for row in value]
    return sorted(rows)


# --- the comparison harness --------------------------------------------


def _rows_close(a, b) -> bool:
    return len(a) == len(b) and all(
        x[0] == y[0]
        and all(
            math.isclose(p, q, rel_tol=1e-9, abs_tol=1e-12)
            for p, q in zip(x[1:], y[1:])
        )
        for x, y in zip(a, b)
    )


def _rows_statistically_close(a, b) -> bool:
    """Loose agreement gate for the fast precision tier.

    Fast-tier codes differ sample-by-sample from the exact tier (the
    fused output-referred noise draw consumes different stream values),
    so per-die metrics are compared with tolerances sized to realization
    noise rather than floating-point error.
    """
    return len(a) == len(b) and all(
        x[0] == y[0]
        and all(
            math.isclose(p, q, rel_tol=FAST_REL_TOL, abs_tol=FAST_ABS_TOL)
            for p, q in zip(x[1:], y[1:])
        )
        for x, y in zip(a, b)
    )


def _compare_configs(run_one, workers: int) -> dict:
    """Time every execution configuration through ``run_one(config)``."""
    from repro.core import die_cache

    results: dict[str, dict] = {}
    reference = None
    for name, config in _engine_configs(workers).items():
        # Every configuration is timed cold: a die cache warmed by the
        # previous one would hand its successor a free build column.
        die_cache.clear()
        start = time.perf_counter()
        rows = run_one(config)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = rows
        close = (
            _rows_statistically_close
            if config.get("precision", "exact") == "fast"
            else _rows_close
        )
        results[name] = {
            **config,
            "elapsed_s": elapsed,
            "consistent_with_serial": close(reference, rows),
        }
    serial_time = results["serial"]["elapsed_s"]
    for entry in results.values():
        entry["speedup_vs_serial"] = serial_time / entry["elapsed_s"]
        entry["parallel_efficiency"] = (
            entry["speedup_vs_serial"] / entry["workers"]
        )
    best = max(results, key=lambda name: results[name]["speedup_vs_serial"])
    return {
        "engines": results,
        "best_engine": best,
        "best_speedup_vs_serial": results[best]["speedup_vs_serial"],
        "all_consistent": all(
            entry["consistent_with_serial"] for entry in results.values()
        ),
    }


def _run_campaign_config(campaign_dies, n_fft, seed, workers, precision="exact"):
    from repro.runtime.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        n_dies=campaign_dies,
        seed=seed,
        n_samples=n_fft,
        precision=precision,
    )
    report = run_campaign(spec, workers=workers)
    report.batch.raise_first_failure()
    return sorted(
        (c.index, c.snr_db, c.sndr_db, c.sfdr_db, c.enob_bits)
        for c in report.cells
    )


def _run_sharded_campaign_config(
    campaign_dies, n_fft, seed, workers, precision="exact"
):
    """Two shards into one cell store, then the store projection."""
    import tempfile

    from repro.runtime.campaign import CampaignSpec, run_campaign
    from repro.runtime.shards import run_campaign_shard
    from repro.technology.corners import Corner

    # A trimmed grid (3 corners, half the dies) bounds the cost: the
    # workload measures shard + store overhead, not raw conversion.
    spec = CampaignSpec(
        corners=(Corner.TT, Corner.FF, Corner.SS),
        n_dies=max(1, campaign_dies // 2),
        seed=seed,
        n_samples=n_fft,
        precision=precision,
    )
    with tempfile.TemporaryDirectory() as tmpdir:
        store = Path(tmpdir) / "cells"
        for shard in spec.shards(2):
            report = run_campaign_shard(shard, workers=workers, cell_store=store)
            report.batch.raise_first_failure()
        merged = run_campaign(spec, cell_store=store)
    if merged.cached_cells != merged.n_cells:
        raise RuntimeError(
            f"store projection recomputed "
            f"{merged.n_cells - merged.cached_cells} of {merged.n_cells} cells"
        )
    return sorted(
        (c.index, c.snr_db, c.sndr_db, c.sfdr_db, c.enob_bits)
        for c in merged.cells
    )


def _task_blas_threads(_task) -> int | None:
    from repro.runtime.blas import blas_threads

    return blas_threads()


def _blas_environment(workers: int) -> dict:
    """The BLAS under thread control and the counts parent and task read."""
    from repro.runtime.batch import BatchRunner
    from repro.runtime.blas import blas_name, blas_threads

    batch = BatchRunner(workers=workers).run(_task_blas_threads, range(workers))
    return {
        "library": blas_name(),
        "parent_threads": blas_threads(),
        "pool_task_threads": batch.values[0],
    }


def run_engine_comparison(
    dies: int = 32,
    n_fft: int = 4096,
    ramp_points_per_code: int = 16,
    calibration_samples_per_code: int = 8,
    campaign_dies: int = 16,
    seed: int = 2026,
    workers: int | None = None,
    include_yield_screen: bool = True,
    include_calibrated_yield: bool = True,
    include_campaign: bool = True,
    include_sharded_campaign: bool = True,
) -> dict:
    """Time every execution configuration on the seeded workloads."""
    import numpy as np

    from repro.core.config import AdcConfig
    from repro.runtime.montecarlo import default_sampler, run_yield_analysis
    from repro.runtime.seeding import population_generator

    workers = workers or os.cpu_count() or 1
    population = default_sampler(AdcConfig.paper_default()).sample(
        dies, population_generator(seed)
    )
    # Warm NumPy/FFT caches and the import graph so the first timed
    # configuration is not charged for one-time setup.
    run_yield_analysis(n_dies=2, seed=seed, n_fft=512)

    workloads = {}
    workloads["dynamic-screen"] = {
        "params": {"dies": dies, "n_fft": n_fft, "seed": seed},
        **_compare_configs(
            lambda config: _run_dynamic_config(
                population,
                n_fft,
                config["workers"],
                config.get("precision", "exact"),
            ),
            workers,
        ),
    }
    def run_yield(config, calibrate=False):
        report = run_yield_analysis(
            n_dies=dies,
            seed=seed,
            n_fft=n_fft,
            ramp_points_per_code=ramp_points_per_code,
            calibrate=calibrate,
            calibration_samples_per_code=calibration_samples_per_code,
            **config,
        )
        if report.batch.failures:
            raise RuntimeError(
                f"die failures: {report.batch.failures[0].error}"
            )
        return sorted(
            (d.index, d.sndr_db, d.enob_bits, d.dnl_peak_lsb, d.inl_peak_lsb)
            for d in report.dies
        )

    if include_yield_screen:
        workloads["yield-screen"] = {
            "params": {
                "dies": dies,
                "n_fft": n_fft,
                "ramp_points_per_code": ramp_points_per_code,
                "seed": seed,
            },
            **_compare_configs(run_yield, workers),
        }
    if include_calibrated_yield:
        workloads["calibrated-yield"] = {
            "params": {
                "dies": dies,
                "n_fft": n_fft,
                "ramp_points_per_code": ramp_points_per_code,
                "calibration_samples_per_code": calibration_samples_per_code,
                "seed": seed,
            },
            **_compare_configs(
                lambda config: run_yield(config, calibrate=True), workers
            ),
        }
    if include_campaign:
        workloads["pvt-campaign"] = {
            "params": {
                "corners": 5,
                "temperatures": 3,
                "dies": campaign_dies,
                "n_fft": n_fft,
                "seed": seed,
            },
            **_compare_configs(
                lambda config: _run_campaign_config(
                    campaign_dies,
                    n_fft,
                    seed,
                    config["workers"],
                    config.get("precision", "exact"),
                ),
                workers,
            ),
        }
    if include_sharded_campaign:
        workloads["sharded-campaign"] = {
            "params": {
                "corners": 3,
                "temperatures": 3,
                "dies": max(1, campaign_dies // 2),
                "shards": 2,
                "n_fft": n_fft,
                "seed": seed,
            },
            **_compare_configs(
                lambda config: _run_sharded_campaign_config(
                    campaign_dies,
                    n_fft,
                    seed,
                    config["workers"],
                    config.get("precision", "exact"),
                ),
                workers,
            ),
        }
    return {
        "schema": BENCH_ENGINES_SCHEMA,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_environment(workers),
        "workloads": workloads,
        "all_consistent": all(
            w["all_consistent"] for w in workloads.values()
        ),
    }


def environments_match(current: dict, baseline: dict) -> bool:
    """Whether two artifacts came from comparable environments.

    Wall times are only enforceable when the machine shape matches;
    metric consistency and workload coverage are enforced regardless.
    """
    return all(
        current.get(key) == baseline.get(key)
        for key in ("cpu_count", "numpy", "machine", "python")
    )


def compare_with_baseline(
    current: dict,
    baseline: dict,
    tolerance: float = BASELINE_TOLERANCE,
    enforce_walltime: bool = True,
) -> list[str]:
    """Regression messages from comparing a fresh run to a baseline.

    A workload regresses when any engine configuration's wall time
    exceeds ``tolerance`` times the baseline's (plus a small additive
    slack, so millisecond workloads cannot trip on scheduler noise),
    when its engine metrics diverge from serial, or when a baseline
    workload is missing from the fresh run.  Workloads whose
    parameters differ are reported as incomparable (apples-to-oranges)
    rather than silently skipped.  With ``enforce_walltime`` False
    (mismatched environments — see :func:`environments_match`) the
    wall-time comparison is skipped; the structural checks remain.
    An empty list means the gate passes.
    """
    messages: list[str] = []
    for name, base_workload in baseline.get("workloads", {}).items():
        workload = current.get("workloads", {}).get(name)
        if workload is None:
            messages.append(f"{name}: workload missing from this run")
            continue
        if workload["params"] != base_workload["params"]:
            messages.append(
                f"{name}: params differ from baseline "
                f"({workload['params']} vs {base_workload['params']}); "
                "refresh the baseline"
            )
            continue
        if not workload["all_consistent"]:
            messages.append(f"{name}: engine metrics diverge from serial")
        for config, base_entry in base_workload["engines"].items():
            entry = workload["engines"].get(config)
            if entry is None:
                messages.append(f"{name}/{config}: configuration missing")
                continue
            limit = tolerance * base_entry["elapsed_s"] + BASELINE_SLACK_S
            if enforce_walltime and entry["elapsed_s"] > limit:
                messages.append(
                    f"{name}/{config}: {entry['elapsed_s']:.2f} s vs "
                    f"baseline {base_entry['elapsed_s']:.2f} s "
                    f"(> {tolerance:.2f}x + {BASELINE_SLACK_S:.1f} s)"
                )
    return messages


def _environment_summary(document: dict) -> str:
    return (
        f"python {document.get('python')}, numpy {document.get('numpy')}, "
        f"{document.get('cpu_count')} CPU(s), "
        f"{document.get('machine', '?')}, {document.get('platform')}"
    )


def run_baseline_gate(
    document: dict, baseline_path: Path, tolerance: float = BASELINE_TOLERANCE
) -> bool:
    """Apply the --compare-baseline gate; prints a verdict, True = pass."""
    baseline = json.loads(baseline_path.read_text())
    print(f"baseline:  {_environment_summary(baseline)}")
    print(f"this run:  {_environment_summary(document)}")
    comparable = environments_match(document, baseline)
    messages = compare_with_baseline(
        document, baseline, tolerance, enforce_walltime=comparable
    )
    if not comparable:
        print(
            "note: environment differs from the baseline's — wall times "
            "are reported but not enforced (structural checks still "
            "apply); refresh the baseline from this environment to arm "
            "the wall-time gate"
        )
        full = compare_with_baseline(
            document, baseline, tolerance, enforce_walltime=True
        )
        for message in full:
            if message not in messages:
                print(f"  (info) {message}")
    if messages:
        print(f"BASELINE REGRESSION ({baseline_path}):")
        for message in messages:
            print(f"  - {message}")
        return False
    print(
        f"baseline gate passed ({baseline_path}, tolerance {tolerance}x, "
        f"wall-time {'enforced' if comparable else 'informational'})"
    )
    return True


# --- perf-trajectory history -------------------------------------------


def _git_identity() -> dict | None:
    """Best-effort commit identity of the repo (None outside git)."""
    import subprocess

    repo = Path(__file__).resolve().parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=repo,
        )
        branch = subprocess.run(
            ["git", "rev-parse", "--abbrev-ref", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=repo,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if sha.returncode != 0:
        return None
    return {
        "sha": sha.stdout.strip(),
        "branch": branch.stdout.strip() if branch.returncode == 0 else None,
    }


def append_history(
    document: dict,
    history_dir: Path,
    recorded_at: str | None = None,
    label: str | None = None,
) -> Path:
    """Append one bench run to a history directory; returns the new file.

    Each entry is its own ``repro.bench-history/v1`` JSON (append =
    add a file, so concurrent CI runs and stacked PRs never rewrite
    each other's entries), wrapping the full v4 bench document plus a
    UTC timestamp and best-effort git identity.
    """
    from datetime import datetime, timezone

    recorded = recorded_at or datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )
    git = _git_identity()
    entry = {
        "schema": BENCH_HISTORY_SCHEMA,
        "recorded_at": recorded,
        "git": git,
        "label": label,
        "bench": document,
    }
    history_dir.mkdir(parents=True, exist_ok=True)
    stamp = recorded.replace("-", "").replace(":", "")
    sha = (git or {}).get("sha") or "nogit"
    path = history_dir / f"{stamp}_{sha[:10]}.json"
    suffix = 1
    while path.exists():
        path = history_dir / f"{stamp}_{sha[:10]}_{suffix}.json"
        suffix += 1
    path.write_text(json.dumps(entry, indent=2) + "\n")
    return path


def load_history(history_dir: Path) -> list[dict]:
    """History entries of a directory, oldest first (foreign JSON skipped)."""
    entries = []
    for path in sorted(history_dir.glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if entry.get("schema") != BENCH_HISTORY_SCHEMA:
            continue
        entry["path"] = path.name
        entries.append(entry)
    entries.sort(key=lambda e: e.get("recorded_at", ""))
    return entries


def render_history(entries: list[dict]) -> str:
    """The per-workload wall-time trend across history entries.

    One block per workload, one line per run: serial wall time, the
    fastest configuration and its speedup.  Runs whose parameters
    differ from the newest entry's are marked so apparent jumps are
    not read as regressions.
    """
    if not entries:
        return "BENCH history: no entries"
    workloads: list[str] = []
    for entry in entries:
        for name in entry.get("bench", {}).get("workloads", {}):
            if name not in workloads:
                workloads.append(name)
    lines = [f"BENCH history ({len(entries)} run(s)):"]
    for name in workloads:
        lines.append(f"{name}:")
        newest_params = None
        for entry in reversed(entries):
            workload = entry.get("bench", {}).get("workloads", {}).get(name)
            if workload is not None:
                newest_params = workload["params"]
                break
        for entry in entries:
            workload = entry.get("bench", {}).get("workloads", {}).get(name)
            if workload is None:
                continue
            git = entry.get("git") or {}
            sha = (git.get("sha") or "nogit")[:10]
            serial_s = workload["engines"]["serial"]["elapsed_s"]
            best = workload["best_engine"]
            label = f"  [{entry['label']}]" if entry.get("label") else ""
            drift = (
                "  (params differ)"
                if workload["params"] != newest_params
                else ""
            )
            lines.append(
                f"  {entry.get('recorded_at', '?'):>20}  {sha:>10}  "
                f"serial {serial_s:6.2f} s  best {best} "
                f"{workload['best_speedup_vs_serial']:.2f}x"
                f"{label}{drift}"
            )
    return "\n".join(lines)


#: Fixed engine-config -> color assignment for the history plot.  The
#: mapping follows the entity, never the series count on screen: a
#: history where an engine is absent must not repaint the survivors.
#: Hues are a validated categorical order (adjacent-pair CVD dE >= 8).
_PLOT_SERIES_COLORS = {
    "serial": "#2a78d6",
    "thread": "#eb6834",
    "pool": "#1baf7a",
    "vectorized": "#eda100",
    "vectorized-fast": "#e87ba4",
}
_PLOT_FALLBACK_COLORS = ("#008300", "#4a3aa7", "#e34948")


def plot_history(entries: list[dict], out_path: Path) -> Path:
    """Render the per-workload wall-time trajectory as a PNG.

    Small multiples — one panel per workload, one line per engine
    configuration, wall time on a zero-based axis.  Runs whose
    parameters differ from the newest entry's are starred on the x
    axis (same drift rule as :func:`render_history`).  Requires
    matplotlib (a dev extra); raises ``RuntimeError`` with an install
    hint when it is missing so the text report stays usable without it.
    """
    try:
        import matplotlib
    except ImportError as error:  # pragma: no cover - env without extra
        raise RuntimeError(
            "matplotlib is required for --history-plot "
            "(pip install -e '.[dev]'); the text --history-report "
            "needs no extras"
        ) from error
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    if not entries:
        raise RuntimeError("BENCH history: no entries to plot")
    workloads: list[str] = []
    for entry in entries:
        for name in entry.get("bench", {}).get("workloads", {}):
            if name not in workloads:
                workloads.append(name)

    surface, grid, baseline = "#fcfcfb", "#e1e0d9", "#c3c2b7"
    ink, muted = "#0b0b0b", "#52514e"
    colors = dict(_PLOT_SERIES_COLORS)
    fallback = list(_PLOT_FALLBACK_COLORS)

    n = len(workloads)
    ncols = 2 if n > 1 else 1
    nrows = (n + ncols - 1) // ncols
    fig, axes = plt.subplots(
        nrows,
        ncols,
        figsize=(6.0 * ncols, 3.4 * nrows + 0.8),
        squeeze=False,
    )
    fig.patch.set_facecolor(surface)

    any_drift = False
    handles: dict[str, object] = {}
    for index, name in enumerate(workloads):
        ax = axes[index // ncols][index % ncols]
        ax.set_facecolor(surface)
        runs = [
            (position, entry, entry["bench"]["workloads"][name])
            for position, entry in enumerate(entries)
            if name in entry.get("bench", {}).get("workloads", {})
        ]
        newest_params = runs[-1][2]["params"]
        series: dict[str, tuple[list[int], list[float]]] = {}
        for position, _entry, workload in runs:
            for engine, result in workload["engines"].items():
                xs, ys = series.setdefault(engine, ([], []))
                xs.append(position)
                ys.append(result["elapsed_s"])
        for engine, (xs, ys) in series.items():
            if engine not in colors:
                colors[engine] = (
                    fallback.pop(0) if fallback else muted
                )
            (line,) = ax.plot(
                xs,
                ys,
                color=colors[engine],
                linewidth=2,
                marker="o",
                markersize=6,
                label=engine,
            )
            handles.setdefault(engine, line)
        ticks, labels = [], []
        for position, entry, workload in runs:
            drift = workload["params"] != newest_params
            any_drift = any_drift or drift
            stamp = entry.get("recorded_at", "?")[:10]
            ticks.append(position)
            labels.append(stamp + (" *" if drift else ""))
        ax.set_xticks(ticks)
        ax.set_xticklabels(labels, rotation=30, ha="right", fontsize=8)
        ax.set_ylim(bottom=0)
        ax.set_title(name, color=ink, fontsize=11)
        ax.set_ylabel("wall time (s)", color=muted, fontsize=9)
        ax.grid(axis="y", color=grid, linewidth=0.8)
        ax.set_axisbelow(True)
        for side in ("top", "right"):
            ax.spines[side].set_visible(False)
        for side in ("left", "bottom"):
            ax.spines[side].set_color(baseline)
        ax.tick_params(colors=muted, labelsize=8)
    for index in range(n, nrows * ncols):
        axes[index // ncols][index % ncols].set_visible(False)

    order = [e for e in colors if e in handles] + [
        e for e in handles if e not in colors
    ]
    fig.legend(
        [handles[e] for e in order],
        order,
        loc="lower center",
        ncol=min(len(order), 5),
        frameon=False,
        fontsize=9,
    )
    title = f"BENCH history — wall time per workload ({len(entries)} runs)"
    if any_drift:
        title += "   (* params differ from newest run)"
    fig.suptitle(title, color=ink, fontsize=12)
    fig.tight_layout(rect=(0, 0.07, 1, 0.95))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fig.savefig(out_path, dpi=144, facecolor=surface)
    plt.close(fig)
    return out_path


def _print_document(document: dict) -> None:
    for name, workload in document["workloads"].items():
        print(f"{name} ({workload['params']}):")
        for config, entry in workload["engines"].items():
            marker = (
                "" if entry["consistent_with_serial"] else "  METRICS DIFFER!"
            )
            print(
                f"  {config:>15}: {entry['elapsed_s']:6.2f} s  "
                f"({entry['speedup_vs_serial']:.2f}x vs serial, "
                f"{entry['parallel_efficiency']:.2f} efficiency){marker}"
            )


def test_engine_comparison_smoke(tmp_path):
    """Small-workload engine comparison: consistency is the assertion."""
    document = run_engine_comparison(
        dies=4,
        n_fft=1024,
        ramp_points_per_code=16,
        calibration_samples_per_code=4,
        campaign_dies=1,
        workers=2,
    )
    assert document["all_consistent"], document
    assert document["schema"] == BENCH_ENGINES_SCHEMA
    assert document["numpy"]
    blas = document["blas"]
    assert blas["library"]
    if blas["library"] != "unpinned":
        assert blas["pool_task_threads"] == 1
    for workload in document["workloads"].values():
        for entry in workload["engines"].values():
            assert math.isclose(
                entry["parallel_efficiency"],
                entry["speedup_vs_serial"] / entry["workers"],
            )
    assert "calibrated-yield" in document["workloads"]
    assert document["workloads"]["calibrated-yield"]["all_consistent"]
    assert "pvt-campaign" in document["workloads"]
    assert document["workloads"]["pvt-campaign"]["all_consistent"]
    assert "sharded-campaign" in document["workloads"]
    assert document["workloads"]["sharded-campaign"]["all_consistent"]
    for workload in document["workloads"].values():
        fast = workload["engines"]["vectorized-fast"]
        assert fast["precision"] == "fast"
        assert fast["consistent_with_serial"]
    artifact = tmp_path / "BENCH_engines.json"
    artifact.write_text(json.dumps(document, indent=2))
    print()
    _print_document(document)
    # The gate passes against the run itself and flags a doctored copy.
    assert compare_with_baseline(document, document) == []
    slower = json.loads(artifact.read_text())
    entry = slower["workloads"]["pvt-campaign"]["engines"]["serial"]
    entry["elapsed_s"] += 10.0  # well past tolerance x baseline + slack
    assert any(
        "pvt-campaign/serial" in message
        for message in compare_with_baseline(slower, document)
    )
    # Mismatched environments demote wall-time to informational...
    other_machine = json.loads(json.dumps(slower))
    other_machine["cpu_count"] = 128
    assert not environments_match(other_machine, document)
    assert (
        compare_with_baseline(
            other_machine, document, enforce_walltime=False
        )
        == []
    )


def test_bench_history_roundtrip(tmp_path):
    """History append/load/render: ordering, schema, drift marking."""
    document = {
        "schema": BENCH_ENGINES_SCHEMA,
        "workloads": {
            "dynamic-screen": {
                "params": {"dies": 4},
                "all_consistent": True,
                "best_engine": "vectorized",
                "best_speedup_vs_serial": 2.0,
                "engines": {
                    "serial": {"elapsed_s": 1.0, "speedup_vs_serial": 1.0},
                    "vectorized": {
                        "elapsed_s": 0.5,
                        "speedup_vs_serial": 2.0,
                    },
                },
            }
        },
    }
    history = tmp_path / "BENCH_history"
    # Appended out of chronological order: load must sort by timestamp.
    newer = json.loads(json.dumps(document))
    newer["workloads"]["dynamic-screen"]["params"] = {"dies": 8}
    path_b = append_history(
        newer, history, recorded_at="2026-08-08T12:00:00Z"
    )
    path_a = append_history(
        document, history, recorded_at="2026-08-01T12:00:00Z", label="seed"
    )
    assert path_a != path_b
    (history / "foreign.json").write_text('{"schema": "other/v1"}')
    entries = load_history(history)
    assert [e["recorded_at"] for e in entries] == [
        "2026-08-01T12:00:00Z",
        "2026-08-08T12:00:00Z",
    ]
    assert all(e["schema"] == BENCH_HISTORY_SCHEMA for e in entries)
    assert entries[0]["bench"] == document
    report = render_history(entries)
    assert "dynamic-screen" in report
    assert "[seed]" in report
    # The older run's params differ from the newest entry's: marked.
    assert "(params differ)" in report
    assert render_history([]) == "BENCH history: no entries"


def test_plot_history_renders_png(tmp_path):
    """--history-plot writes a PNG; without matplotlib it hints."""
    import pytest

    try:
        import matplotlib  # noqa: F401
    except ImportError:
        with pytest.raises(RuntimeError, match="matplotlib is required"):
            plot_history([{"bench": {}}], tmp_path / "trend.png")
        pytest.skip("matplotlib not installed")
    document = {
        "schema": BENCH_ENGINES_SCHEMA,
        "workloads": {
            "dynamic-screen": {
                "params": {"dies": 4},
                "all_consistent": True,
                "best_engine": "vectorized",
                "best_speedup_vs_serial": 2.0,
                "engines": {
                    "serial": {"elapsed_s": 1.0, "speedup_vs_serial": 1.0},
                    "vectorized-fast": {
                        "elapsed_s": 0.4,
                        "speedup_vs_serial": 2.5,
                    },
                },
            }
        },
    }
    history = tmp_path / "BENCH_history"
    append_history(document, history, recorded_at="2026-08-01T12:00:00Z")
    drifted = json.loads(json.dumps(document))
    drifted["workloads"]["dynamic-screen"]["params"] = {"dies": 8}
    append_history(drifted, history, recorded_at="2026-08-08T12:00:00Z")
    out = plot_history(load_history(history), tmp_path / "trend.png")
    assert out.exists() and out.stat().st_size > 1000
    with pytest.raises(RuntimeError, match="no entries"):
        plot_history([], tmp_path / "empty.png")


def test_compare_with_baseline_param_and_consistency_guards():
    """Param drift and metric divergence are reported, not skipped."""
    baseline = {
        "workloads": {
            "w": {
                "params": {"dies": 4},
                "all_consistent": True,
                "engines": {"serial": {"elapsed_s": 1.0}},
            }
        }
    }
    drifted = json.loads(json.dumps(baseline))
    drifted["workloads"]["w"]["params"] = {"dies": 8}
    assert any(
        "params differ" in m for m in compare_with_baseline(drifted, baseline)
    )
    diverged = json.loads(json.dumps(baseline))
    diverged["workloads"]["w"]["all_consistent"] = False
    assert any(
        "diverge" in m for m in compare_with_baseline(diverged, baseline)
    )
    assert any(
        "missing" in m
        for m in compare_with_baseline({"workloads": {}}, baseline)
    )
    assert compare_with_baseline(baseline, baseline) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dies", type=int, default=32)
    parser.add_argument("--fft-points", type=int, default=4096)
    parser.add_argument("--ramp-points", type=int, default=16)
    parser.add_argument(
        "--cal-samples",
        type=int,
        default=8,
        help="calibration-ramp samples per code (calibrated-yield workload)",
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool width for the parallel configs (default: all CPUs)",
    )
    parser.add_argument(
        "--campaign-dies",
        type=int,
        default=16,
        help="die axis of the 5x3 pvt-campaign grid (default 16)",
    )
    parser.add_argument(
        "--skip-yield-screen",
        action="store_true",
        help="skip the (uncalibrated) yield-screen workload",
    )
    parser.add_argument(
        "--skip-calibrated-yield",
        action="store_true",
        help="skip the calibrated-yield workload",
    )
    parser.add_argument(
        "--skip-campaign",
        action="store_true",
        help="skip the pvt-campaign workload",
    )
    parser.add_argument(
        "--skip-sharded-campaign",
        action="store_true",
        help="skip the sharded-campaign workload",
    )
    parser.add_argument(
        "--compare-baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "fail when any workload's wall time regresses beyond the "
            "tolerance against this baseline artifact, or when engine "
            "metrics diverge"
        ),
    )
    parser.add_argument(
        "--baseline-tolerance",
        type=float,
        default=BASELINE_TOLERANCE,
        metavar="X",
        help=(
            "wall-time regression factor the baseline gate tolerates "
            f"(default {BASELINE_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_engines.json"),
        help="artifact path (default BENCH_engines.json)",
    )
    parser.add_argument(
        "--history-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "append this run to a perf-trajectory history directory "
            f"(the committed one is {HISTORY_DIR})"
        ),
    )
    parser.add_argument(
        "--history-label",
        default=None,
        metavar="TEXT",
        help="free-form annotation stored with the history entry",
    )
    parser.add_argument(
        "--history-report",
        action="store_true",
        help=(
            "render the wall-time trend from --history-dir (default: the "
            "committed history) and exit without running the benchmark"
        ),
    )
    parser.add_argument(
        "--history-plot",
        type=Path,
        default=None,
        metavar="PNG",
        help=(
            "render the wall-time trajectory from --history-dir "
            "(default: the committed history) to a PNG and exit "
            "without running the benchmark (requires matplotlib)"
        ),
    )
    args = parser.parse_args(argv)
    if args.history_report or args.history_plot is not None:
        try:
            entries = load_history(args.history_dir or HISTORY_DIR)
            if args.history_report:
                print(render_history(entries))
            if args.history_plot is not None:
                print(f"wrote {plot_history(entries, args.history_plot)}")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    document = run_engine_comparison(
        dies=args.dies,
        n_fft=args.fft_points,
        ramp_points_per_code=args.ramp_points,
        calibration_samples_per_code=args.cal_samples,
        campaign_dies=args.campaign_dies,
        seed=args.seed,
        workers=args.workers,
        include_yield_screen=not args.skip_yield_screen,
        include_calibrated_yield=not args.skip_calibrated_yield,
        include_campaign=not args.skip_campaign,
        include_sharded_campaign=not args.skip_sharded_campaign,
    )
    args.out.write_text(json.dumps(document, indent=2))
    print(f"wrote {args.out}")
    if args.history_dir is not None:
        entry_path = append_history(
            document, args.history_dir, label=args.history_label
        )
        print(f"appended history entry {entry_path}")
    _print_document(document)
    gate_passed = True
    if args.compare_baseline is not None:
        gate_passed = run_baseline_gate(
            document, args.compare_baseline, args.baseline_tolerance
        )
    return 0 if document["all_consistent"] and gate_passed else 1


if __name__ == "__main__":
    sys.exit(main())
