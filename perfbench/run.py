"""End-to-end benchmark of the ``repro`` CLI, with a traced per-layer run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gap-dispatch --seed 2026 --seconds 55 --trace 0

Each workload is a fixed sequence of real ``repro`` commands.  The
driver starts them one at a time as child processes (``python3 -m
repro ...`` with ``PYTHONPATH=src``), never passes ``--engine`` (the
CLI's default engine is what users run), and gives every repeat a fresh
work directory, ledger and cell store, so no repeat measures a warm
store.  It repeats the workload until ``--seconds`` have passed (at
least three times) and reports medians over the repeats.

Every child reads and writes bytecode under one per-run
``PYTHONPYCACHEPREFIX`` directory, so no ``__pycache__`` left in the
source tree (by a test run, say) changes the figures.  An unmeasured
warm-up repeat fills it first: the measured repeats see what an
installed user sees, compiled bytecode for ``repro``, numpy and the
standard library alike.

End-to-end metrics (``--trace 0``):

* ``report_s`` — wall time from launching each CLI process to its exit,
  by which its JSON report is on disk; summed over the workload's
  commands.
* ``cpu_s`` — user + system CPU of each CLI process tree, read from
  ``os.wait4`` on the child (it includes every worker and shard the
  child reaped), summed over the workload's commands.
* ``setup_s`` — a fresh interpreter importing ``repro.cli`` and building
  the workload's first die cold: the fixed cost every CLI call and every
  dispatch shard pays before its first cell.  Median of several probes.
* ``peak_rss_mb`` — the largest single-process peak RSS in the CLI
  process trees (``ru_maxrss`` from ``os.wait4``).
* ``ok_frac`` — 1 - failed_frac: the share of attempted cells that
  completed and matched the reference.  ``failed_frac`` counts failed
  tasks, missing cells and cells whose metrics differ; it is printed
  too, and carried by the result line's ``failed``/``attempted``.

Correctness: the per-cell (per-die) metric rows of every repeat are
compared bit for bit with ``perfbench/reference.json`` when the seed has
an entry there.  For any other seed — or when the reference was recorded
in another numeric environment and the rows differ from it, which is
then printed as a warning — the repeats must agree with each other and
with a plain run of the same cells: a single-process ``repro campaign``
for ``gap-dispatch``, a one-worker ``repro mc`` for ``calibrated-mc``.
Any failed, missing or differing cell, and every cell of a command that
exits non-zero, makes the run exit 1.

``--trace 1`` measures the untraced repeats as above, then runs the
workload once more with every command executed in-process through
``repro.cli.main(argv)`` by ``perfbench/layers.py`` (with
``REPRO_PROFILE=1``), and reports the per-layer metrics and
``trace.overhead_s`` (traced report time minus the untraced median).

The last stdout line is the JSON result; the full result document,
with the environment block and every sample, is written under
``.perfbench/results/``.  ``--write-reference`` records this run's rows
as the reference for its seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# The driver leaves no bytecode next to its own files.
sys.dont_write_bytecode = True
from layers import TARGETS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
#: Bytecode cache of every child of this run (``PYTHONPYCACHEPREFIX``).
PYCACHE = WORK / f"pycache-{os.getpid()}"

MIN_REPEATS = 3
SETUP_PROBES = 9
#: A single CLI command that runs longer than this is killed (with its
#: process group) and its cells count as failed.
COMMAND_TIMEOUT_S = 60.0

CAMPAIGN_METRICS = ("snr_db", "sndr_db", "sfdr_db", "enob_bits")
DIE_METRICS = ("sndr_db", "enob_bits", "dnl_peak_lsb", "inl_peak_lsb")

#: Dies per operating point (campaigns) or dies (mc) of each workload.
WORKLOAD_DIES = {"calibrated-mc": 16, "gap-dispatch": 4}


@dataclass
class Command:
    """One ``repro`` invocation of a workload and how to read its report."""

    label: str
    argv: list[str]
    report: Path
    kind: str  # "campaign", "mc" or "dispatch"
    expected_cells: int
    env: dict[str, str] = field(default_factory=dict)


def gap_grid(seed: int) -> list[str]:
    """``gap-dispatch``'s grid flags, all but the corner list."""
    return ["--dies", str(WORKLOAD_DIES["gap-dispatch"]), "--fft-points", "2048",
            "--seed", str(seed)]


def workload_commands(name: str, work: Path, seed: int) -> list[Command]:
    """The CLI commands of one workload repeat, writing under ``work``.

    * ``calibrated-mc`` — calibrated Monte Carlo over two pool workers:
      batch fan-out, per-die calibration solves and linearity ramps.
    * ``gap-dispatch`` — a two-shard dispatch with one first-round shard
      killed, so the gap loop re-dispatches; then a reshaped campaign
      served from the now-warm store: shard start-up, ledger merge and
      store reads dominate.
    """
    workers = str(min(2, os.cpu_count() or 1))
    seed_args = ["--seed", str(seed)]
    if name == "calibrated-mc":
        return [
            Command(
                "mc",
                ["mc", "--calibrate", "--dies", str(WORKLOAD_DIES[name]),
                 "--workers", workers,
                 *seed_args, "--json", str(work / "report.json")],
                work / "report.json", "mc", WORKLOAD_DIES[name],
            )
        ]
    if name == "gap-dispatch":
        dies = WORKLOAD_DIES[name]
        grid = gap_grid(seed)
        return [
            Command(
                "dispatch",
                ["campaign-dispatch", "--corners", "all", *grid,
                 "--shards", workers,
                 "--work-dir", str(work / "shards"),
                 "--cell-store", str(work / "cells"),
                 "--json", str(work / "dispatch.json")],
                work / "dispatch.json", "dispatch", 5 * 3 * dies,
                # Kill first-round shard 0 as soon as its ledger exists.
                env={"REPRO_FAULT_KILL_SHARD": "0"},
            ),
            Command(
                "reshaped",
                ["campaign", "--corners", "tt,ff", *grid,
                 "--cell-store", str(work / "cells"),
                 "--ledger", str(work / "reshaped.jsonl"),
                 "--json", str(work / "reshaped.json")],
                work / "reshaped.json", "campaign", 2 * 3 * dies,
            ),
        ]
    raise SystemExit(f"error: unknown workload {name!r}")


WORKLOADS = ("calibrated-mc", "gap-dispatch")


# --- running one CLI process -------------------------------------------------


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env(extra: dict[str, str], work: Path, profile: bool) -> dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_PROFILE", "REPRO_FAULT_KILL_SHARD", "PERFBENCH_TRACE_DIR",
                 "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    env["TMPDIR"] = str(work)
    # Bytecode comes from the run's own cache, never from a
    # ``__pycache__`` in the source tree or site-packages.
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    if profile:
        env["REPRO_PROFILE"] = "1"
    env.update(extra)
    return env


def run_process(argv: list[str], env: dict[str, str], log: Path) -> Measured:
    """Run one child to completion; wall, tree CPU and peak RSS via wait4."""
    with log.open("w") as out:
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            COMMAND_TIMEOUT_S, os.killpg, (process.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    try:
        # Kill anything the child left in its group (none on success).
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Measured(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=process.returncode,
    )


# --- reading reports ---------------------------------------------------------


def _canonical(row: dict) -> str:
    # json.dumps writes floats with repr: equal strings <=> equal bits.
    return json.dumps(row, sort_keys=True)


def campaign_rows(doc: dict) -> list[str]:
    return [
        _canonical(
            {
                "corner": cell["corner"],
                "temperature_c": cell["temperature_c"],
                "die_index": cell["die_index"],
                "seed": cell["seed"],
                **{name: cell[name] for name in CAMPAIGN_METRICS},
            }
        )
        for cell in doc["cells"]
    ]


def report_rows(command: Command) -> list[str]:
    """Sorted canonical metric rows of one command's report (or [])."""
    try:
        doc = json.loads(command.report.read_text())
    except (OSError, ValueError):
        return []
    if command.kind == "dispatch":
        doc = doc["campaign"]
    if command.kind == "mc":
        rows = [
            _canonical(
                {
                    "index": task["value"]["index"],
                    "corner": task["value"]["corner"],
                    "temperature_c": task["value"]["temperature_c"],
                    "seed": task["value"]["seed"],
                    **{name: task["value"][name] for name in DIE_METRICS},
                }
            )
            for task in doc["tasks"]
            if task["ok"]
        ]
    else:
        rows = campaign_rows(doc)
    return sorted(f"{command.label} {row}" for row in rows)


def row_hash(row: str) -> str:
    return hashlib.sha256(row.encode()).hexdigest()[:16]


def count_mismatched(rows: list[str], baseline: list[str]) -> int:
    """Rows not in the baseline multiset (by row hash)."""
    got = Counter(row_hash(row) for row in rows)
    return sum((got - Counter(baseline)).values())


def reshaped_mismatches(rows: list[str]) -> int:
    """Reshaped-campaign cells that differ from the dispatch's cells."""
    dispatched = {}
    for row in rows:
        label, _, body = row.partition(" ")
        if label == "dispatch":
            cell = json.loads(body)
            dispatched[(cell["corner"], cell["temperature_c"], cell["die_index"])] = body
    bad = 0
    for row in rows:
        label, _, body = row.partition(" ")
        if label == "reshaped":
            cell = json.loads(body)
            key = (cell["corner"], cell["temperature_c"], cell["die_index"])
            bad += dispatched.get(key) != body
    return bad


# --- one workload repeat -----------------------------------------------------


@dataclass
class Repeat:
    report_s: float
    cpu_s: float
    peak_rss_mb: float
    rows: list[str]
    expected: int
    missing: int
    #: Cells of commands that exited non-zero, all counted as failed.
    exit_failures: int
    exit_codes: list[int]


def run_repeat(
    workload: str, seed: int, work: Path, tracer_dir: Path | None = None
) -> Repeat:
    """One cold repeat: fresh work dir; untraced unless ``tracer_dir``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = workload_commands(workload, work, seed)
    report_s = cpu_s = peak = 0.0
    rows: list[str] = []
    missing = exit_failures = 0
    codes = []
    for command in commands:
        if tracer_dir is None:
            argv = [sys.executable, "-m", "repro", *command.argv]
        else:
            argv = [sys.executable, str(BENCH_DIR / "layers.py"),
                    str(tracer_dir), *command.argv]
        env = child_env(command.env, work, profile=tracer_dir is not None)
        measured = run_process(argv, env, work / f"{command.label}.log")
        report_s += measured.wall_s
        cpu_s += measured.cpu_s
        peak = max(peak, measured.peak_rss_mb)
        codes.append(measured.exit_code)
        if measured.exit_code != 0:
            exit_failures += command.expected_cells
            log = (work / f"{command.label}.log").read_text()[-2000:]
            print(f"{command.label} exited {measured.exit_code}:\n{log}", file=sys.stderr)
        command_rows = report_rows(command)
        missing += max(0, command.expected_cells - len(command_rows))
        rows.extend(command_rows)
    return Repeat(
        report_s=report_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak,
        rows=rows,
        expected=sum(command.expected_cells for command in commands),
        missing=missing,
        exit_failures=exit_failures,
        exit_codes=codes,
    )


# --- set-up probe ------------------------------------------------------------

SETUP_PROBE = """
import sys
import repro.cli
from repro.core.config import AdcConfig
from repro.core.die_cache import build_die
workload, seed, dies = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
config = AdcConfig.paper_default()
if workload == "calibrated-mc":
    from repro.runtime.montecarlo import YieldSpec, default_sampler
    from repro.runtime.seeding import population_generator
    first = default_sampler(config).sample(dies, population_generator(seed))[0]
    rate, point, die_seed = YieldSpec().conversion_rate, first.operating_point, first.seed
else:
    from repro.runtime.campaign import CampaignSpec
    spec = CampaignSpec(n_dies=dies, seed=seed)
    cell = spec.cells()[0]
    rate = spec.conversion_rate
    point, die_seed = cell.operating_point(config.technology), cell.die_seed
build_die(config, rate, point, die_seed)
print("ready", flush=True)
"""


def setup_probe(workload: str, seed: int, work: Path) -> float:
    """Fresh interpreter -> ``import repro.cli`` + cold first-die build."""
    env = child_env({}, work, profile=False)
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, workload, str(seed),
         str(WORKLOAD_DIES[workload])],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.close()
        code = process.wait(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


# --- the traced run ----------------------------------------------------------

#: Layer metrics of the traced run: name -> unit.
LAYER_METRICS = {
    "cli.import_s": "s",
    "core.die_build_s": "s",
    "core.die_builds": "count",
    "core.die_cache_hit_ratio": "ratio",
    "core.convert_s": "s",
    "core.samples_converted": "count",
    "core.calibrate_s": "s",
    "stage.mdac_settle_share": "ratio",
    "stage.noise_draw_share": "ratio",
    "stage.sample_acquire_share": "ratio",
    "stage.build_die_share": "ratio",
    "stage.analyze_spectrum_share": "ratio",
    "stage.analyze_linearity_share": "ratio",
    "stage.unattributed_share": "ratio",
    "signal.spectrum_s": "s",
    "signal.linearity_s": "s",
    "batch.tasks": "count",
    "batch.busy_s": "s",
    "batch.wait_s": "s",
    "batch.failed": "count",
    "ledger.records": "count",
    "ledger.record_s": "s",
    "ledger.load_s": "s",
    "store.puts": "count",
    "store.put_s": "s",
    "store.gets": "count",
    "store.get_s": "s",
    "store.hit_ratio": "ratio",
    "dispatch.launches": "count",
    "dispatch.rounds": "count",
    "dispatch.redispatched_cells": "count",
    "dispatch.shard_s": "s",
    "dispatch.useful_ratio": "ratio",
    "dispatch.merge_s": "s",
    "trace.overhead_s": "s",
}

#: stage share -> the (stage, phase) key of the REPRO_PROFILE recorder it
#: reads; phase None sums every phase of the stage.
STAGE_SHARES = {
    "stage.mdac_settle_share": ("mdac", "settle"),
    "stage.noise_draw_share": ("noise-draw", None),
    "stage.sample_acquire_share": ("sample", "acquire"),
    "stage.build_die_share": ("build", "die"),
    "stage.analyze_spectrum_share": ("analyze", "spectrum"),
    "stage.analyze_linearity_share": ("analyze", "linearity"),
}

#: Recorder stages that time the same work from outside (not partitioned).
OVERLAY_STAGES = ("dispatch", "task")

#: Span layer behind each timed layer metric.
SPAN_METRICS = {
    "core.die_build_s": "core.die_build",
    "core.convert_s": "core.convert",
    "core.calibrate_s": "core.calibrate",
    "signal.spectrum_s": "signal.spectrum",
    "signal.linearity_s": "signal.linearity",
    "ledger.record_s": "ledger.record",
    "ledger.load_s": "ledger.load",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "dispatch.merge_s": "dispatch.merge",
}


def summarize_trace(trace_dir: Path, work: Path, traced_s: float,
                    untraced_s: float) -> tuple[dict, list[dict]]:
    """Per-layer metric values and report rows from one traced repeat.

    Each row carries the metric's value, the number of calls (spans,
    recorder entries or shard launches) behind it, and its coverage:
    ``measured``, ``not exercised`` (the workload never calls the
    layer), or ``unmeasured`` when the calls ran in a process that left
    no trace file (a shard killed before its report) or the wrapped
    function no longer exists.
    """
    files = [json.loads(path.read_text()) for path in sorted(trace_dir.glob("*-*.json"))]
    layers: dict[str, list[float]] = {}
    counters: Counter = Counter()
    stage_s: Counter = Counter()
    stage_n: Counter = Counter()
    hits = misses = 0
    busy_root = 0.0
    missing_targets: set[str] = set()
    for doc in files:
        for name, span in doc["layers"].items():
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += span["count"]
            entry[1] += span["total_s"]
            entry[2] += span["self_s"]
        counters.update(doc["counters"])
        hits += doc["die_cache"]["hits"]
        misses += doc["die_cache"]["misses"]
        for stat in doc["stages"]:
            stage_s[(stat["stage"], stat["phase"])] += stat["self_s"]
            stage_n[(stat["stage"], stat["phase"])] += stat["count"]
        missing_targets.update(doc["missing_targets"])
        # Busy time of the process: what the stage shares divide by.
        if doc["role"] == "pool-worker":
            busy_root += doc["layers"].get("batch.task", {}).get("total_s", 0.0)
        else:
            busy_root += doc.get("root_s", 0.0) - doc["counters"].get("root.blocked_s", 0.0)

    def calls(layer: str) -> int:
        return int(layers.get(layer, [0])[0])

    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    imports = [doc["import_s"] for doc in files if doc["role"] == "tracer"]
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    counts["cli.import_s"] = len(imports)
    for metric, layer in SPAN_METRICS.items():
        values[metric] = layers.get(layer, [0, 0.0, 0.0])[2]
        counts[metric] = calls(layer)
    values["core.die_builds"] = misses
    values["core.die_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    counts["core.die_builds"] = counts["core.die_cache_hit_ratio"] = hits + misses
    values["core.samples_converted"] = counters["core.samples_converted"]
    counts["core.samples_converted"] = calls("core.convert")
    for metric in ("batch.tasks", "batch.busy_s", "batch.wait_s", "batch.failed"):
        values[metric] = counters[metric]
        counts[metric] = calls("batch.run")
    values["ledger.records"] = counters["ledger.records"]
    counts["ledger.records"] = calls("ledger.record")
    values["store.puts"] = counts["store.puts"] = calls("store.put")
    values["store.gets"] = counts["store.gets"] = calls("store.get")
    values["store.hit_ratio"] = (
        counters["store.hits"] / values["store.gets"] if values["store.gets"] else 0.0
    )
    counts["store.hit_ratio"] = calls("store.get")
    for metric, (want_stage, want_phase) in STAGE_SHARES.items():
        matched = [
            key for key in stage_s
            if key[0] == want_stage and want_phase in (None, key[1])
        ]
        seconds = sum(stage_s[key] for key in matched)
        values[metric] = seconds / busy_root if busy_root > 0 else 0.0
        counts[metric] = sum(stage_n[key] for key in matched)
    attributed = sum(
        seconds for (stage, _), seconds in stage_s.items() if stage not in OVERLAY_STAGES
    )
    values["stage.unattributed_share"] = (
        1.0 - attributed / busy_root if busy_root > 0 else 0.0
    )
    counts["stage.unattributed_share"] = sum(
        n for (stage, _), n in stage_n.items() if stage not in OVERLAY_STAGES
    )

    attempts: list[dict] = []
    values["dispatch.rounds"] = 0
    values["dispatch.useful_ratio"] = 0.0
    dispatch_report = work / "dispatch.json"
    if dispatch_report.exists():
        doc = json.loads(dispatch_report.read_text())
        attempts = doc["attempts"]
        values["dispatch.rounds"] = doc["rounds"]
        launched_cells = sum(a["stop"] - a["start"] for a in attempts)
        if launched_cells:
            values["dispatch.useful_ratio"] = doc["campaign"]["n_cells"] / launched_cells
    values["dispatch.launches"] = len(attempts)
    values["dispatch.redispatched_cells"] = sum(
        a["stop"] - a["start"] for a in attempts if a["round"] > 0
    )
    values["dispatch.shard_s"] = sum(a["elapsed_s"] for a in attempts)
    for metric in ("dispatch.launches", "dispatch.rounds", "dispatch.redispatched_cells",
                   "dispatch.shard_s", "dispatch.useful_ratio"):
        counts[metric] = len(attempts)
    values["trace.overhead_s"] = traced_s - untraced_s
    counts["trace.overhead_s"] = 1

    unseen = len(attempts) - sum(doc["role"] == "shard" for doc in files)
    missing_layers = {
        layer for module, path, layer in TARGETS if f"{module}.{path}" in missing_targets
    }
    rows = []
    for metric, unit in LAYER_METRICS.items():
        shard_side = not metric.startswith(("cli.", "dispatch.", "trace."))
        if SPAN_METRICS.get(metric) in missing_layers:
            coverage = "unmeasured (hook target missing)"
        elif counts[metric] == 0:
            coverage = (
                "unmeasured (worker-side)" if unseen and shard_side else "not exercised"
            )
        elif unseen and shard_side:
            coverage = f"measured; {unseen} killed shard unmeasured (worker-side)"
        else:
            coverage = "measured"
        rows.append(
            {
                "metric": metric,
                "value": values[metric],
                "unit": unit,
                "count": counts[metric],
                "coverage": coverage,
            }
        )
    summary = {
        "trace_files": dict(Counter(doc["role"] for doc in files)),
        "shards_launched": len(attempts),
        "missing_targets": sorted(missing_targets),
    }
    return summary, rows


# --- environment block -------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (no git subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    probe = (
        "import json, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "simd = numpy.show_config(mode='dicts')['SIMD Extensions']['found']\n"
        "print(json.dumps({'numpy': numpy.__version__, 'simd': simd,"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
    )
    try:
        numpy_info = json.loads(
            subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S, check=True,
            ).stdout
        )
    except (subprocess.SubprocessError, ValueError) as error:
        numpy_info = {"numpy": f"unavailable ({error})", "blas": "unavailable",
                      "simd": []}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **numpy_info,
        "num_threads": {
            name: value for name, value in sorted(os.environ.items())
            if name.endswith("_NUM_THREADS")
        },
        "git_sha": git_sha(),
        "seed": seed,
        "machine": platform.machine(),
    }


# --- statistics and output ---------------------------------------------------


def spread(values: list[float]) -> dict:
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4)
    return {
        "median": statistics.median(ordered),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


#: Environment fields that can change a metric's last bits: a reference
#: recorded under other values is not compared (the run then falls back
#: to the repeat-agreement checks and says so).
NUMERIC_ENVIRONMENT = ("python", "numpy", "blas", "simd", "machine")


def numeric_environment(env: dict) -> dict:
    return {name: env[name] for name in NUMERIC_ENVIRONMENT}


def read_reference_file() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


def load_reference(workload: str, seed: int, env: dict) -> tuple[list[str] | None, bool]:
    """The seed's reference row hashes (or None), and whether they were
    recorded in this numeric environment."""
    reference = read_reference_file()
    rows = reference.get("rows", {}).get(workload, {}).get(str(seed))
    return rows, reference.get("environment") == numeric_environment(env)


def write_reference(workload: str, seed: int, rows: list[str], env: dict) -> None:
    reference = read_reference_file()
    if reference.get("environment") != numeric_environment(env):
        reference = {"environment": numeric_environment(env), "rows": {}}
    by_seed = reference["rows"].setdefault(workload, {})
    by_seed[str(seed)] = sorted(row_hash(row) for row in rows)
    reference["rows"][workload] = dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
    text = json.dumps(reference, indent=1, sort_keys=True)
    # One line per seed's hash list keeps the file reviewable.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    REFERENCE.write_text(text + "\n")


def plain_rows(workload: str, seed: int, work: Path) -> list[str]:
    """The workload's cells from a plain run: ``gap-dispatch``'s grid as
    one single-process ``repro campaign``, ``calibrated-mc``'s dies as a
    one-worker ``repro mc``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "gap-dispatch":
        command = Command(
            "dispatch",
            ["campaign", "--corners", "all", *gap_grid(seed),
             "--json", str(work / "plain.json")],
            work / "plain.json", "campaign", 5 * 3 * WORKLOAD_DIES[workload],
        )
    else:
        command = Command(
            "mc",
            ["mc", "--calibrate", "--dies", str(WORKLOAD_DIES[workload]),
             "--workers", "1", "--seed", str(seed), "--json", str(work / "plain.json")],
            work / "plain.json", "mc", WORKLOAD_DIES[workload],
        )
    measured = run_process([sys.executable, "-m", "repro", *command.argv],
                           child_env({}, work, profile=False), work / "plain.log")
    # A plain run that fails leaves no baseline: every cell then fails.
    return report_rows(command) if measured.exit_code == 0 else []


def tally(workload: str, repeats: list[Repeat], baseline: list[str]) -> tuple[int, int]:
    """(attempted cells, failed cells) of the repeats against ``baseline``."""
    attempted = failed = 0
    for repeat in repeats:
        bad = repeat.missing + repeat.exit_failures + count_mismatched(repeat.rows, baseline)
        if workload == "gap-dispatch":
            bad += reshaped_mismatches(repeat.rows)
        attempted += repeat.expected
        failed += min(repeat.expected, bad)
    return attempted, failed


def check_repeats(workload: str, seed: int, repeats: list[Repeat], work: Path,
                  reference: list[str] | None, same_env: bool) -> tuple[int, int, str]:
    """(attempted cells, failed cells, how they were checked)."""
    if reference is not None:
        attempted, failed = tally(workload, repeats, reference)
        if same_env:
            return attempted, failed, "reference digest"
        if failed == 0:
            return attempted, failed, (
                "reference digest (recorded in another numeric environment; rows match)"
            )
        print(
            f"WARNING: {failed} of {attempted} {workload} cells differ from the seed-{seed}"
            " reference, which was recorded in another numeric environment; the"
            " digest is NOT checked, only that repeats agree with a plain run",
            file=sys.stderr, flush=True,
        )
        why = "reference from another numeric environment differs"
    else:
        why = "no reference for this seed"
    rows = plain_rows(workload, seed, work)
    if workload == "gap-dispatch":
        rows += [row for row in repeats[0].rows if row.startswith("reshaped ")]
    attempted, failed = tally(workload, repeats, [row_hash(row) for row in rows])
    return attempted, failed, f"repeats agree with a plain run ({why})"


def run_workload(workload: str, seed: int, seconds: float, trace_on: bool,
                 write_ref: bool, env: dict) -> dict:
    """Measure one workload, print its block and write its result file."""
    run_dir = WORK / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        # Unmeasured, but inside ``seconds``: fills the bytecode cache for
        # every module the workload imports, in the CLI, its pool workers
        # and shards.
        warm_up = run_repeat(workload, seed, run_dir / "warm-up")
        shutil.rmtree(run_dir / "warm-up", ignore_errors=True)
        # Set-up probes interleave with the repeats, so both sample the
        # same stretch of machine load.
        probes = 0 if trace_on else SETUP_PROBES
        setup: list[float] = []
        repeats: list[Repeat] = []
        while len(repeats) < MIN_REPEATS or time.perf_counter() - started < seconds:
            if len(setup) < probes:
                setup.append(setup_probe(workload, seed, run_dir))
            work = run_dir / f"repeat-{len(repeats)}"
            repeats.append(run_repeat(workload, seed, work))
            shutil.rmtree(work, ignore_errors=True)
        while len(setup) < probes:
            setup.append(setup_probe(workload, seed, run_dir))

        trace = trace_rows = None
        if trace_on:
            trace_dir = run_dir / "trace"
            trace_dir.mkdir()
            traced = run_repeat(workload, seed, run_dir / "traced", trace_dir)
            repeats.append(traced)
            trace, trace_rows = summarize_trace(
                trace_dir, run_dir / "traced", traced.report_s,
                statistics.median(r.report_s for r in repeats[:-1]),
            )

        reference, same_env = (
            (None, True) if write_ref else load_reference(workload, seed, env)
        )
        attempted, failed, checked = check_repeats(
            workload, seed, [warm_up, *repeats], run_dir / "check", reference, same_env
        )
        if write_ref and failed == 0:
            write_reference(workload, seed, repeats[0].rows, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = repeats[:-1] if trace_on else repeats
    samples = {
        "report_s": [r.report_s for r in untraced],
        "cpu_s": [r.cpu_s for r in untraced],
        "peak_rss_mb": [r.peak_rss_mb for r in untraced],
    }
    if setup:
        samples["setup_s"] = setup
    stats = {name: spread(values) for name, values in samples.items()}
    ok_frac = (attempted - failed) / attempted
    print(f"== {workload} (seed {seed})")
    for name, unit in (("report_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
                       ("peak_rss_mb", "MB")):
        if name in stats:
            s = stats[name]
            print(f"{name:12s} {s['median']:10.4f} {unit:3s} median of {s['n']}"
                  f"  [q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, min {s['min']:.4f},"
                  f" max {s['max']:.4f}]")
    print(f"failed_frac  {failed / attempted:10.4f}     {failed} of {attempted} "
          f"cells ({checked})")
    print(f"ok_frac      {ok_frac:10.4f}")

    if trace_on:
        print(f"traced run: trace files {trace['trace_files']}, "
              f"shards launched {trace['shards_launched']}; value is the self "
              "time for _s metrics")
        print(f"  {'metric':32s} {'value':>12s} {'unit':6s} {'calls':>6s}  coverage")
        for row in trace_rows:
            value = (
                "unmeasured" if row["coverage"].startswith("unmeasured")
                else f"{row['value']:.6g}"
            )
            print(f"  {row['metric']:32s} {value:>12s} {row['unit']:6s}"
                  f" {row['count']:>6d}  {row['coverage']}")
        metrics = {
            row["metric"]: {"value": row["value"], "unit": row["unit"]}
            for row in trace_rows
        }
    else:
        metrics = {
            "report_s": {"value": stats["report_s"]["median"], "unit": "s"},
            "cpu_s": {"value": stats["cpu_s"]["median"], "unit": "s"},
            "setup_s": {"value": stats["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": stats["peak_rss_mb"]["median"], "unit": "MB"},
            "ok_frac": {"value": ok_frac, "unit": "ratio"},
        }
    document = {
        "workload": workload,
        "environment": env,
        "checked": checked,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "exit_codes": [r.exit_codes for r in repeats],
        "samples": samples,
        "stats": stats,
        "trace": {"summary": trace, "rows": trace_rows} if trace_on else None,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace_on)}.json"
    (results / name).write_text(json.dumps(document, indent=2) + "\n")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's rows as the seed's reference")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    PYCACHE.mkdir(parents=True, exist_ok=True)
    try:
        results = {
            workload: run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                   args.write_reference, env)
            for workload in workloads
        }
    finally:
        shutil.rmtree(PYCACHE, ignore_errors=True)
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {
            f"{workload}.{name}": metric
            for workload, result in results.items()
            for name, metric in result["metrics"].items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
