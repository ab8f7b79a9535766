"""Gap-driven dispatch loop: sharded campaigns that finish themselves.

A shard killed mid-run leaves a gap in the grid, and someone has to
re-run the missing cells.  :class:`CampaignDispatcher` is that someone.
It plans shards from a :class:`~repro.runtime.campaign.CampaignSpec`,
launches each as a forked child running
:func:`~repro.runtime.campaign.run_campaign` over a cell range, all
writing into one shared content-addressed cell store, then loops:
project the spec over the store, read the missing cell indices,
coalesce them into contiguous ranges
(:func:`repro.runtime.shards.coalesce_cell_ranges`) and re-dispatch
*only those ranges* — until the projection is complete or the retry
budget is exhausted.

Design rules, in order:

1. **The store is the source of truth.**  The dispatcher never trusts
   a shard's exit code to decide what work remains — a shard that
   died after completing 5 of 6 cells contributed 5 cells, and only
   the store knows.  Every round looks up every grid cell by key; the
   retry unit is a gap range, not a shard.  A corrupt entry is a gap
   like a missing one: its range is re-dispatched and the shard
   rewrites the entry.
2. **Resumable at the dispatcher level.**  The store is projected
   *before* any work is launched, so a crashed dispatcher recovers the
   same way a crashed shard does: re-run the same command, only the
   gaps execute.  A re-dispatched range needs no resume flag — the
   cells it already stored are served from the store.  Campaigns that
   share a store share the cells they have in common and nothing else:
   the store key separates them.
3. **Deterministic decisions.**  Retry order, range planning and the
   backoff jitter derive from the campaign fingerprint and the round
   index alone — no wall clock and no ``random`` in any decision path
   (``repro lint`` stays clean; the only clock reads are the timeout/
   wait *measurements*, which decide nothing about the results).
4. **Failure is bounded.**  Each cell may be dispatched at most
   ``1 + max_retries`` times; a range that keeps dying exhausts the
   budget and the report says so instead of looping forever.  A shard
   that outlives ``timeout_s`` is killed and its range re-enters the
   gap pool.

Fault injection for tests and the CI gate: ``REPRO_FAULT_KILL_SHARD``
(``"<range-position>"`` or ``"<range-position>:<after-cells>"``) makes
the CLI ask the dispatcher to SIGKILL the given first-round shard once
the store holds the given number of its range's cells — a
deterministic stand-in for the preempted worker the loop exists to
survive.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from hashlib import sha256
from multiprocessing.connection import wait
from multiprocessing.process import BaseProcess
from pathlib import Path

from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.profiling import active
from repro.runtime.campaign import (
    CampaignReport,
    CampaignSpec,
    CellMetrics,
    export_ledger,
    run_campaign,
)
from repro.runtime.cell_store import CellStore
from repro.runtime.shards import coalesce_cell_ranges
from repro.schemas import DISPATCH_REPORT_SCHEMA

#: Fraction of the base delay the deterministic jitter may add.
JITTER_SPREAD = 0.25

#: Environment hook the CLI turns into ``fault_kill`` (see module doc).
FAULT_KILL_ENV = "REPRO_FAULT_KILL_SHARD"


def backoff_jitter(
    fingerprint_digest: str, round_index: int
) -> float:
    """Deterministic jitter fraction in ``[0, 1)`` for one retry round.

    Derived from the campaign fingerprint digest and the round index
    via SHA-256 — the same campaign backs off the same way on every
    machine and every re-run, while different campaigns desynchronize
    against shared infrastructure.  No RNG object is constructed and
    no clock is read.
    """
    payload = f"{fingerprint_digest}:{round_index}".encode()
    return int.from_bytes(sha256(payload).digest()[:8], "big") / 2.0**64


def backoff_delay_s(
    base_s: float,
    cap_s: float,
    round_index: int,
    fingerprint_digest: str,
) -> float:
    """Exponential backoff with deterministic jitter for retry ``round_index``.

    ``base * 2**round_index`` capped at ``cap_s``, stretched by up to
    ``JITTER_SPREAD`` of itself by :func:`backoff_jitter`.  Round 0 is
    the first *retry* round; the initial dispatch never waits.
    """
    if base_s <= 0.0:
        return 0.0
    raw = min(cap_s, base_s * (2.0**round_index))
    return raw * (1.0 + JITTER_SPREAD * backoff_jitter(
        fingerprint_digest, round_index
    ))


@dataclass(frozen=True)
class DispatchAttempt:
    """One shard process launched for one cell range.

    Attributes:
        start: first grid cell of the dispatched range.
        stop: one past the last grid cell of the range.
        round: dispatch round (0 = the initial wave).
        attempt: highest per-cell dispatch count this launch represents
            (1-based; budgeted against ``1 + max_retries``).
        exit_code: the shard's exit code (0 = its cells were measured,
            1 = a cell failed or the shard raised; negative = killed
            by that signal, e.g. -9 after a timeout or injected fault).
        timed_out: True when the dispatcher killed the shard for
            exceeding ``timeout_s``.
        fault_injected: True when the test/CI fault hook killed it.
        elapsed_s: wall seconds from launch to reap.
    """

    start: int
    stop: int
    round: int
    attempt: int
    exit_code: int | None
    timed_out: bool
    fault_injected: bool
    elapsed_s: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class DispatchReport:
    """The full history of one dispatch run, plus the projected campaign.

    Attributes:
        spec: the campaign grid and bench settings.
        shards: planned first-wave shard count (also the concurrency
            cap for every later wave).
        max_retries: re-dispatches allowed per cell beyond the first.
        timeout_s: per-shard kill deadline (None = none).
        rounds: dispatch rounds actually run.
        attempts: every launched shard, in the order their exits were
            observed.
        backoffs_s: the delay slept before each retry round.
        resumed_cells: cells already in the store before any
            shard was launched (dispatcher resume).
        complete: the projected grid has no missing cells.
        exhausted: the retry budget ran out with cells still missing.
        missing_cells: grid indices still absent from the store.
        report: the projected :class:`CampaignReport` (the sign-off
            document; bit-identical to a single-process run when
            complete).
        elapsed_s: dispatcher wall time end to end.
    """

    spec: CampaignSpec
    shards: int
    max_retries: int
    timeout_s: float | None
    rounds: int
    attempts: tuple[DispatchAttempt, ...]
    backoffs_s: tuple[float, ...]
    resumed_cells: int
    complete: bool
    exhausted: bool
    missing_cells: tuple[int, ...]
    report: CampaignReport
    elapsed_s: float

    @property
    def redispatched_ranges(self) -> tuple[tuple[int, int], ...]:
        """Ranges launched after the initial wave, in launch order."""
        return tuple(
            (attempt.start, attempt.stop)
            for attempt in self.attempts
            if attempt.round > 0
        )

    def to_dict(self) -> dict:
        return {
            "schema": DISPATCH_REPORT_SCHEMA,
            "shards": self.shards,
            "max_retries": self.max_retries,
            "timeout_s": self.timeout_s,
            "rounds": self.rounds,
            "n_attempts": len(self.attempts),
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "redispatched_ranges": [
                list(cell_range)
                for cell_range in self.redispatched_ranges
            ],
            "backoffs_s": list(self.backoffs_s),
            "resumed_cells": self.resumed_cells,
            "complete": self.complete,
            "exhausted": self.exhausted,
            "missing_cells": list(self.missing_cells),
            "elapsed_s": self.elapsed_s,
            "campaign": self.report.to_dict(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        # An exhausted dispatch can end with zero cells; the campaign
        # report cannot render a worst cell then.
        if self.report.cells:
            lines = [self.report.render(), ""]
        else:
            lines = ["dispatch completed no cells", ""]
        for attempt in self.attempts:
            notes = []
            if attempt.timed_out:
                notes.append("timed out")
            if attempt.fault_injected:
                notes.append("fault-killed")
            note = f" ({', '.join(notes)})" if notes else ""
            lines.append(
                f"  round {attempt.round}: cells "
                f"[{attempt.start}, {attempt.stop}) attempt "
                f"{attempt.attempt} -> exit {attempt.exit_code}"
                f"{note}, {attempt.elapsed_s:.2f} s"
            )
        if self.complete:
            status = "complete"
        elif self.exhausted:
            status = (
                f"EXHAUSTED with {len(self.missing_cells)} cell(s) "
                "missing"
            )
        else:
            status = f"INCOMPLETE ({len(self.missing_cells)} missing)"
        resumed = (
            f" {self.resumed_cells} cell(s) resumed from the store,"
            if self.resumed_cells
            else ""
        )
        lines.append(
            f"dispatch: {status}, {self.shards} shard(s), "
            f"{self.rounds} round(s), {len(self.attempts)} "
            f"dispatch(es),{resumed} {self.elapsed_s:.2f} s"
        )
        return "\n".join(lines)


@dataclass
class _Launched:
    """Bookkeeping for one running shard.

    ``process`` is a forked child running
    :func:`~repro.runtime.campaign.run_campaign` over a cell range.
    """

    start: int
    stop: int
    attempt: int
    process: BaseProcess
    started_monotonic: float
    deadline_monotonic: float | None
    fault_after_cells: int | None = None
    timed_out: bool = False
    fault_injected: bool = False


class CampaignDispatcher:
    """Run a sharded campaign to completion through gap re-dispatch.

    Each shard is a forked child running
    :func:`~repro.runtime.campaign.run_campaign` over a cell range: a
    separate OS process (killable, with its own exit code and fds 1
    and 2 on ``/dev/null``) that starts from the dispatcher's
    already-imported interpreter instead of a fresh one.

    Args:
        spec: the campaign grid and bench settings.
        config: converter configuration (paper default when omitted);
            the forked shards inherit it.
        shards: first-wave shard count and per-wave concurrency cap
            (clamped to the grid size).
        cell_store: root of the content-addressed cell store every
            shard writes into — the dispatch record and the unit of
            dispatcher resume.  May be shared with other campaigns.
        max_retries: re-dispatches allowed per cell beyond its first
            launch before the budget is exhausted.
        timeout_s: kill a shard exceeding this wall time; its range
            re-enters the gap pool.
        backoff_base_s: base of the exponential retry backoff (0
            disables waiting; the jitter stays deterministic either
            way).
        backoff_cap_s: ceiling on the un-jittered backoff delay.
        poll_interval_s: cadence of the fault-hook and timeout checks
            (a shard's exit is observed at once).
        workers: worker processes per shard.
        cell_chunk: cells per batch task inside each shard
            (``1`` makes the store checkpoint per cell — what the
            fault-injection tests and CI gate use).
        fsync: the shards' cell-store fsync policy (also used for
            ``out_ledger``).
        out_ledger: when given, export the projected cells as a
            whole-grid ledger there after the loop ends
            (:func:`~repro.runtime.campaign.export_ledger`) — a
            header-only file when no cell completed.
        fault_kill: ``(range_position, after_cells)`` — SIGKILL the
            first-round shard at that launch position once the store
            holds ``after_cells`` of its range's cells (and, so the
            fault always leaves a gap to recover, before it holds the
            whole range).  Test/CI hook; the CLI fills it from
            ``REPRO_FAULT_KILL_SHARD``.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        config: AdcConfig | None = None,
        *,
        shards: int,
        cell_store: str | Path,
        max_retries: int = 2,
        timeout_s: float | None = None,
        backoff_base_s: float = 0.0,
        backoff_cap_s: float = 60.0,
        poll_interval_s: float = 0.05,
        workers: int = 1,
        cell_chunk: int | None = None,
        fsync: bool = True,
        out_ledger: str | Path | None = None,
        fault_kill: tuple[int, int] | None = None,
    ):
        if shards < 1:
            raise ConfigurationError(
                f"dispatcher needs >= 1 shard, got {shards}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {timeout_s}"
            )
        self.spec = spec
        self.config = config or AdcConfig.paper_default()
        self.shards = min(shards, spec.n_cells)
        self.cell_store = Path(cell_store)
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.poll_interval_s = poll_interval_s
        self.workers = workers
        self.cell_chunk = cell_chunk
        self.fsync = fsync
        self.out_ledger = out_ledger
        self.fault_kill = fault_kill
        self._cells = spec.cells()
        self._store = CellStore(self.cell_store).bind(spec, self.config)
        self._fingerprint = spec.fingerprint(self.config)
        self._fingerprint_digest = sha256(
            json.dumps(self._fingerprint, sort_keys=True).encode()
        ).hexdigest()

    # --- planning --------------------------------------------------------

    def plan_ranges(
        self, missing: tuple[int, ...]
    ) -> tuple[tuple[int, int], ...]:
        """The cell ranges one round dispatches for these missing cells.

        A full grid splits exactly like :meth:`CampaignSpec.shards`
        (contiguous, disjoint, balanced to within one cell); partial
        gaps coalesce into contiguous ranges, and the widest ranges
        split in half until the round has up to ``shards`` units of
        work (never splitting below one cell).  Pure function of the
        inputs — no clock, no RNG.
        """
        if not missing:
            return ()
        if len(missing) == self.spec.n_cells:
            return tuple(
                shard.cell_range for shard in self.spec.shards(self.shards)
            )
        ranges = list(coalesce_cell_ranges(missing))
        while len(ranges) < self.shards:
            widest = max(
                range(len(ranges)),
                key=lambda i: (ranges[i][1] - ranges[i][0], -i),
            )
            start, stop = ranges[widest]
            if stop - start < 2:
                break
            mid = (start + stop) // 2
            ranges[widest : widest + 1] = [(start, mid), (mid, stop)]
        return tuple(sorted(ranges))

    def _run_shard(self, start: int, stop: int) -> None:
        """The forked shard's body: measure ``[start, stop)`` into the store.

        Output goes to ``/dev/null`` (fds 1 and 2 and the Python
        streams over them).  The exit code mirrors ``repro campaign``:
        0, or 1 when a cell failed — or, through ``multiprocessing``,
        when the shard raised.
        """
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        os.close(devnull)
        sys.stdout = sys.stderr = open(os.devnull, "w")
        report = run_campaign(
            self.spec,
            config=self.config,
            cell_range=(start, stop),
            cell_store=self.cell_store,
            workers=self.workers,
            cell_chunk=self.cell_chunk,
            fsync=self.fsync,
        )
        sys.exit(1 if report.failures else 0)

    # --- the store projection (the source of truth) ---------------------

    def _gather(self) -> dict[int, CellMetrics]:
        """Project the spec over the store: the cells present, by index.

        One lookup per grid cell.  A missing, unreadable or mismatched
        entry is a gap — its range is re-dispatched and the shard
        rewrites the entry.
        """
        records: dict[int, CellMetrics] = {}
        for cell in self._cells:
            metrics = self._store.get(cell)
            if metrics is not None:
                records[cell.index] = metrics
        return records

    def _missing(
        self, records: dict[int, CellMetrics]
    ) -> tuple[int, ...]:
        return tuple(
            index
            for index in range(self.spec.n_cells)
            if index not in records
        )

    def _stored_count(self, start: int, stop: int) -> int:
        """Cells of ``[start, stop)`` whose store entry exists.

        The fault hook's trigger only: a stat per cell, so polling
        neither reads entries nor moves the store's hit/miss counters.
        """
        return sum(
            self._store.entry_path(cell).exists()
            for cell in self._cells[start:stop]
        )

    # --- the loop --------------------------------------------------------

    def run(self) -> DispatchReport:
        """Dispatch until the store holds the grid or retries run out."""
        t_start = time.monotonic()
        records = self._gather()
        resumed_cells = len(records)
        attempts: list[DispatchAttempt] = []
        backoffs: list[float] = []
        dispatch_count: dict[int, int] = {}
        fault = self.fault_kill
        rounds = 0
        exhausted = False
        while True:
            missing = self._missing(records)
            if not missing:
                break
            ranges = self.plan_ranges(missing)
            wave = []
            for start, stop in ranges:
                attempt_no = 1 + max(
                    dispatch_count.get(index, 0)
                    for index in range(start, stop)
                )
                wave.append((start, stop, attempt_no))
            if any(
                attempt_no > 1 + self.max_retries
                for _, _, attempt_no in wave
            ):
                exhausted = True
                break
            if rounds > 0:
                delay = backoff_delay_s(
                    self.backoff_base_s,
                    self.backoff_cap_s,
                    rounds - 1,
                    self._fingerprint_digest,
                )
                backoffs.append(delay)
                if delay > 0.0:
                    recorder = active()
                    if recorder is not None:
                        recorder.add("dispatch", "backoff", delay)
                    time.sleep(delay)
            attempts.extend(
                self._run_wave(wave, rounds, fault if rounds == 0 else None)
            )
            fault = None
            for start, stop, _ in wave:
                for index in range(start, stop):
                    dispatch_count[index] = (
                        dispatch_count.get(index, 0) + 1
                    )
            rounds += 1
            records = self._gather()
        missing = self._missing(records)
        report = CampaignReport.from_records(self.spec, records)
        if self.out_ledger is not None:
            export_ledger(
                self.out_ledger,
                self._fingerprint,
                report.cells,
                fsync=self.fsync,
            )
        return DispatchReport(
            spec=self.spec,
            shards=self.shards,
            max_retries=self.max_retries,
            timeout_s=self.timeout_s,
            rounds=rounds,
            attempts=tuple(attempts),
            backoffs_s=tuple(backoffs),
            resumed_cells=resumed_cells,
            complete=not missing,
            exhausted=exhausted,
            missing_cells=missing,
            report=report,
            elapsed_s=time.monotonic() - t_start,
        )

    def _run_wave(
        self,
        wave: list[tuple[int, int, int]],
        round_index: int,
        fault: tuple[int, int] | None,
    ) -> list[DispatchAttempt]:
        """Launch one round's ranges (at most ``shards`` concurrent)."""
        wave_start = time.monotonic()
        context = multiprocessing.get_context("fork")
        pending = list(wave)
        position = 0
        running: list[_Launched] = []
        attempts: list[DispatchAttempt] = []
        while pending or running:
            while pending and len(running) < self.shards:
                start, stop, attempt_no = pending.pop(0)
                process = context.Process(
                    target=self._run_shard,
                    args=(start, stop),
                )
                now = time.monotonic()
                process.start()
                launched = _Launched(
                    start=start,
                    stop=stop,
                    attempt=attempt_no,
                    process=process,
                    started_monotonic=now,
                    deadline_monotonic=(
                        now + self.timeout_s
                        if self.timeout_s is not None
                        else None
                    ),
                )
                if fault is not None and position == fault[0]:
                    launched.fault_after_cells = fault[1]
                position += 1
                running.append(launched)
            still_running: list[_Launched] = []
            for launched in running:
                code = launched.process.exitcode
                if code is not None:
                    attempts.append(
                        DispatchAttempt(
                            start=launched.start,
                            stop=launched.stop,
                            round=round_index,
                            attempt=launched.attempt,
                            exit_code=code,
                            timed_out=launched.timed_out,
                            fault_injected=launched.fault_injected,
                            elapsed_s=(
                                time.monotonic()
                                - launched.started_monotonic
                            ),
                        )
                    )
                    launched.process.close()
                    continue
                # The fault fires only while the shard still has cells
                # left to store: a kill after the last entry leaves no
                # gap, which would silently defeat what the hook tests.
                if (
                    launched.fault_after_cells is not None
                    and launched.fault_after_cells
                    <= self._stored_count(launched.start, launched.stop)
                    < launched.stop - launched.start
                ):
                    launched.fault_injected = True
                    launched.fault_after_cells = None
                    launched.process.kill()
                elif (
                    launched.deadline_monotonic is not None
                    and time.monotonic() > launched.deadline_monotonic
                ):
                    launched.timed_out = True
                    launched.process.kill()
                still_running.append(launched)
            running = still_running
            if running:
                # Wakes as soon as a shard exits; otherwise the fault
                # and timeout checks run once per poll interval.
                wait(
                    [launched.process.sentinel for launched in running],
                    timeout=self.poll_interval_s,
                )
        recorder = active()
        if recorder is not None:
            recorder.add(
                "dispatch",
                "shard-wait",
                time.monotonic() - wave_start,
                count=len(wave),
            )
        return attempts


def parse_fault_kill(value: str | None) -> tuple[int, int] | None:
    """Parse the ``REPRO_FAULT_KILL_SHARD`` hook value.

    ``"1"`` kills first-round shard 1 at its first poll; ``"1:3"``
    waits until the store holds 3 of its range's cells.  Either way the
    kill only fires while the shard still has cells left to store — a
    shard that outruns the poller simply completes.  None/empty: no
    fault.
    """
    if not value:
        return None
    position_text, _, after_text = value.partition(":")
    try:
        position = int(position_text)
        after_cells = int(after_text) if after_text else 0
        if position < 0 or after_cells < 0:
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"{FAULT_KILL_ENV} must be POSITION[:AFTER_CELLS] with "
            f"non-negative integers, got {value!r}"
        ) from None
    return (position, after_cells)


__all__ = [
    "FAULT_KILL_ENV",
    "JITTER_SPREAD",
    "CampaignDispatcher",
    "DispatchAttempt",
    "DispatchReport",
    "backoff_delay_s",
    "backoff_jitter",
    "parse_fault_kill",
]
