"""Corner-batched PVT sign-off campaigns, checkpointed in the cell store.

An IP-block sign-off is a grid: every process corner x every
temperature extreme x a die population, each cell a full dynamic
characterization.  The serial shape (the legacy ``ext-corners`` loop)
pays one :class:`~repro.evaluation.testbench.DynamicTestbench` — and
all its per-die Python dispatch — per cell.  This module makes the grid
a first-class batch workload:

* **Planning** — :class:`CampaignSpec` enumerates the (points x dies)
  grid via :func:`repro.technology.corners.pvt_grid`; each
  :class:`CampaignCell` is one (corner, temperature, die) triple with a
  ``SeedSequence``-derived die seed.
* **Execution** — cell chunks dispatch through
  :class:`~repro.runtime.batch.BatchRunner` (composable with
  ``workers``); each chunk converts as a single
  :class:`~repro.core.adc_array.AdcArray` pass, mixing corners and
  temperatures freely inside one ``(cells, samples)`` block.  Each
  cell's noise streams derive from its die seed alone
  (:class:`repro.streams.DieStreams`), so a cell's codes are bit-exact
  with the serial :class:`~repro.evaluation.testbench.DynamicTestbench`
  on the same (point, seed), regardless of chunking or worker count.
* **Checkpointing** — completed cells go to the content-addressed cell
  store (:mod:`repro.runtime.cell_store`) as each chunk finishes;
  re-running an interrupted campaign over the same store recomputes
  nothing already stored, and its report is identical to a
  straight-through run.  A JSONL ledger (:func:`export_ledger`) is a
  one-shot export of a finished run's cells, never read back.
* **Aggregation** — the grid collapses to a min/typ/max sign-off
  datasheet via :func:`repro.evaluation.datasheet.signoff_datasheet`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle: shards builds on this module
    from repro.runtime.cell_store import CellStore
    from repro.runtime.shards import CampaignShard

from repro.core.adc_array import AdcArray
from repro.core.config import FINGERPRINT_EXCLUDED, AdcConfig
from repro.errors import ConfigurationError
from repro.evaluation.datasheet import Datasheet, signoff_datasheet
from repro.evaluation.reporting import format_table
from repro.profiling import profile_step
from repro.runtime.batch import (
    BatchResult,
    BatchRunner,
    ProgressCallback,
    TaskOutcome,
    flatten_chunk_batch,
    json_safe,
)
from repro.runtime.seeding import derive_seeds
from repro.schemas import CAMPAIGN_LEDGER_SCHEMA
from repro.signal.generators import SineGenerator
from repro.signal.spectrum import SpectrumAnalyzer
from repro.technology.corners import Corner, OperatingPoint, pvt_grid
from repro.technology.montecarlo import ProcessSample

#: Default cells per chunk: the same cache-residency
#: trade-off as the Monte Carlo die chunk (the records are the same
#: shape — D rows x S samples; 8 measured best at sign-off record
#: lengths of 2048-4096 samples on the benchmark workloads).
_DEFAULT_CELL_CHUNK = 8

#: The industrial sign-off temperature set.
SIGNOFF_TEMPERATURES_C = (-40.0, 27.0, 125.0)


@dataclass(frozen=True)
class CampaignSpec:
    """The (corners x temperatures x dies) grid and its bench settings.

    A spec fully determines the campaign's cells (:meth:`cells`, in the
    shared :func:`~repro.technology.corners.pvt_grid` order) and its
    physics identity (:meth:`fingerprint` — what the cell store keys
    cells by).  Execution choices — chunking, workers — live outside
    the spec because they cannot change any cell's metrics.  Under
    ``repro profile`` a cell chunk's measurement appears as a
    ``task/measure-cell-chunk`` entry.

    Attributes:
        corners: process corners, grid-outermost.
        temperatures_c: junction temperatures [Celsius].
        n_dies: dies measured at every operating point.
        seed: root seed the per-die seeds derive from
            (``SeedSequence.spawn`` via :mod:`repro.runtime.seeding`,
            so die *d* is independent of the grid shape).
        die_seeds: explicit per-die seeds; overrides ``seed`` (the
            legacy single-die corner table pins ``(1,)``).
        supply_scale: shared supply multiplier for every point.
        conversion_rate: f_CR every cell is clocked at [Hz].
        input_frequency: test-tone target frequency [Hz].
        n_samples: coherent FFT record length per cell.
        amplitude_fraction: stimulus amplitude relative to full scale.
        precision: ``"exact"`` (default; cell metrics bit-exact with
            :class:`~repro.evaluation.testbench.DynamicTestbench`) or
            ``"fast"`` — the float32 + fused-draw tier.  Part of the
            fingerprint: fast cells never share store entries with
            exact ones.
    """

    corners: tuple[Corner, ...] = tuple(Corner)
    temperatures_c: tuple[float, ...] = SIGNOFF_TEMPERATURES_C
    n_dies: int = 1
    seed: int = 2026
    die_seeds: tuple[int, ...] | None = None
    supply_scale: float = 1.0
    conversion_rate: float = 110e6
    input_frequency: float = 10e6
    n_samples: int = 4096
    amplitude_fraction: float = 0.995
    precision: str = "exact"

    def __post_init__(self) -> None:
        if self.precision not in ("exact", "fast"):
            raise ConfigurationError(
                f"precision must be 'exact' or 'fast', got '{self.precision}'"
            )
        if not self.corners:
            raise ConfigurationError("campaign needs at least one corner")
        if not self.temperatures_c:
            raise ConfigurationError(
                "campaign needs at least one temperature"
            )
        if self.n_dies < 1:
            raise ConfigurationError("campaign needs at least one die")
        if self.die_seeds is not None and len(self.die_seeds) != self.n_dies:
            raise ConfigurationError(
                f"die_seeds must have one entry per die ({self.n_dies}), "
                f"got {len(self.die_seeds)}"
            )
        if self.conversion_rate <= 0 or self.input_frequency <= 0:
            raise ConfigurationError("rate and frequency must be positive")
        if self.n_samples < 256:
            raise ConfigurationError("campaign needs >= 256 samples per cell")
        if not 0 < self.amplitude_fraction <= 1:
            raise ConfigurationError("amplitude fraction must be in (0, 1]")

    @property
    def n_points(self) -> int:
        return len(self.corners) * len(self.temperatures_c)

    @property
    def n_cells(self) -> int:
        return self.n_points * self.n_dies

    def resolved_die_seeds(self) -> tuple[int, ...]:
        """The per-die seeds (explicit, or spawned from the root)."""
        if self.die_seeds is not None:
            return self.die_seeds
        return tuple(derive_seeds(self.seed, self.n_dies))

    def points(self, technology=None) -> list[OperatingPoint]:
        """The corner-major operating-point enumeration of the grid."""
        return pvt_grid(
            technology=technology,
            corners=self.corners,
            temperatures_c=self.temperatures_c,
            supply_scale=self.supply_scale,
        )

    def cells(self) -> list[CampaignCell]:
        """The flattened grid, point-major then die-major.

        Cell order derives from :meth:`points` — the same
        :func:`~repro.technology.corners.pvt_grid` enumeration the
        stacked planning constructors
        (:meth:`~repro.technology.montecarlo.ProcessSampleArray.from_grid`)
        use — so every grid consumer shares one order authority.
        """
        seeds = self.resolved_die_seeds()
        return [
            CampaignCell(
                index=point_index * self.n_dies + die_index,
                corner=point.corner,
                temperature_c=point.temperature_c,
                die_index=die_index,
                die_seed=die_seed,
                supply_scale=self.supply_scale,
            )
            for point_index, point in enumerate(self.points())
            for die_index, die_seed in enumerate(seeds)
        ]

    def fingerprint(self, config: AdcConfig) -> dict:
        """Everything that determines a cell's metrics, JSON-ready.

        The cell store keys cells by it (and a ledger export carries it
        in its header), so a campaign with a different grid, bench
        setting or converter configuration never reuses incompatible
        cells.  Chunking and worker count are deliberately absent —
        they do not change the results, so a campaign may resume on a
        different execution configuration.
        """
        spec = dataclasses.asdict(self)
        spec["die_seeds"] = list(self.resolved_die_seeds())
        del spec["seed"]
        config_dict = dataclasses.asdict(config)
        # FINGERPRINT_EXCLUDED is the single authority on which config
        # fields are execution heuristics rather than physics; each
        # entry carries its justification next to the dataclass.
        for excluded in FINGERPRINT_EXCLUDED:
            config_dict.pop(excluded, None)
        return {
            "spec": json_safe(spec),
            "config": json_safe(config_dict),
        }

    def shard(self, index: int, count: int) -> "CampaignShard":
        """Shard ``index`` of ``count`` over this grid's cells.

        The grid splits into ``count`` contiguous, disjoint, covering
        cell ranges (balanced to within one cell, earlier shards take
        the extras).  Every shard shares the parent spec — and with it
        the per-cell seeds — so running all shards into one cell store
        and projecting the grid over it reproduces the single-process
        campaign bit for bit.
        """
        from repro.runtime.shards import CampaignShard

        if count < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {count}"
            )
        if not 0 <= index < count:
            raise ConfigurationError(
                f"shard index must be in [0, {count}), got {index}"
            )
        if count > self.n_cells:
            raise ConfigurationError(
                f"cannot split {self.n_cells} cell(s) into {count} "
                "shards (each shard needs at least one cell)"
            )
        base, extra = divmod(self.n_cells, count)
        start = index * base + min(index, extra)
        stop = start + base + (1 if index < extra else 0)
        return CampaignShard(
            spec=self, index=index, count=count, start=start, stop=stop
        )

    def shards(self, count: int) -> "tuple[CampaignShard, ...]":
        """All ``count`` shards of the grid, in cell order."""
        return tuple(self.shard(index, count) for index in range(count))


@dataclass(frozen=True)
class CampaignCell:
    """One (corner, temperature, die) grid cell.

    Attributes:
        index: position in the flattened grid (point-major).
        corner: the cell's process corner.
        temperature_c: the cell's junction temperature [Celsius].
        die_index: die position within the cell's operating point.
        die_seed: the die's mismatch/noise seed (replays the cell).
        supply_scale: supply multiplier of the cell's point.
    """

    index: int
    corner: Corner
    temperature_c: float
    die_index: int
    die_seed: int
    supply_scale: float = 1.0

    @property
    def cell_id(self) -> str:
        return (
            f"{self.corner.value}/{self.temperature_c:g}C/"
            f"die{self.die_index}"
        )

    def operating_point(self, technology) -> OperatingPoint:
        return OperatingPoint(
            technology=technology,
            corner=self.corner,
            temperature_c=self.temperature_c,
            supply_scale=self.supply_scale,
        )

    def process_sample(self, technology) -> ProcessSample:
        """The cell as a die realization for :class:`AdcArray`."""
        return ProcessSample(
            operating_point=self.operating_point(technology),
            seed=self.die_seed,
            index=self.index,
        )


@dataclass(frozen=True)
class CellMetrics:
    """Measured dynamic metrics of one campaign cell.

    Chunk-independent by the per-die stream contract: the same cell
    yields the same record from the serial testbench and from any cell
    chunk it lands in.
    """

    index: int
    corner: str
    temperature_c: float
    die_index: int
    seed: int
    snr_db: float
    sndr_db: float
    sfdr_db: float
    enob_bits: float

    @property
    def cell_id(self) -> str:
        return f"{self.corner}/{self.temperature_c:g}C/die{self.die_index}"

    def to_metrics(self) -> dict[str, float]:
        """Numeric summary fields (feeds ``BatchResult.summary``)."""
        return {
            "snr_db": self.snr_db,
            "sndr_db": self.sndr_db,
            "sfdr_db": self.sfdr_db,
            "enob_bits": self.enob_bits,
        }

    def to_record(self) -> dict:
        """JSON-ready record (a ledger line, a report's ``cells`` entry)."""
        return json_safe(dataclasses.asdict(self))


@dataclass(frozen=True)
class CellChunkTask:
    """One worker's task: a cell chunk as one AdcArray pass."""

    cells: tuple[CampaignCell, ...]
    config: AdcConfig
    spec: CampaignSpec

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigurationError("cell chunk must not be empty")


def _cell_metrics(cell: CampaignCell, metrics) -> CellMetrics:
    return CellMetrics(
        index=cell.index,
        corner=cell.corner.value,
        temperature_c=cell.temperature_c,
        die_index=cell.die_index,
        seed=cell.die_seed,
        snr_db=metrics.snr_db,
        sndr_db=metrics.sndr_db,
        sfdr_db=metrics.sfdr_db,
        enob_bits=metrics.enob_bits,
    )


@profile_step("task", "measure-cell-chunk")
def measure_cell_chunk(task: CellChunkTask) -> tuple[CellMetrics, ...]:
    """Measure a cell chunk in one die-batched pass.

    The chunk's cells — mixed corners, temperatures and dies — convert
    as a single :class:`~repro.core.adc_array.AdcArray` of
    ``(cells, samples)`` blocks, then one batched FFT produces the
    per-cell metrics.  Cell-for-cell bit-exact with
    :meth:`~repro.evaluation.testbench.DynamicTestbench.measure` on the
    cell's (point, seed): each cell draws only from its own
    seed-derived streams, and the tone/analyzer settings mirror the
    testbench exactly.  Module-level and dependent only on ``task``, so
    it can run in any worker of any partition.
    """
    spec = task.spec
    config = task.config
    samples = [cell.process_sample(config.technology) for cell in task.cells]
    adc = AdcArray(
        config, spec.conversion_rate, samples, precision=spec.precision
    )
    tone = SineGenerator.coherent(
        spec.input_frequency,
        spec.conversion_rate,
        spec.n_samples,
        amplitude=spec.amplitude_fraction * config.vref,
    )
    capture = adc.convert(tone, spec.n_samples)
    analyzer = SpectrumAnalyzer(full_scale=config.n_codes / 2.0)
    spectra = analyzer.analyze_batch(capture.codes, spec.conversion_rate)
    return tuple(
        _cell_metrics(cell, metrics)
        for cell, metrics in zip(task.cells, spectra)
    )


def write_atomic(path: Path, text: str, fsync: bool = True) -> None:
    """Replace ``path`` with ``text`` in one atomic step.

    Creates the parent directory, writes a pid-suffixed temp file
    beside ``path`` and ``os.replace``s it over ``path``, so a reader
    sees the old file or the new one, never a torn mix.  With ``fsync``
    the temp file is fsynced before the replace and the directory after
    it, so a file that is visible survives a power loss.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def export_ledger(
    path: str | Path,
    fingerprint: dict,
    cells: Iterable[CellMetrics],
    cell_range: tuple[int, int] | None = None,
    fsync: bool = True,
) -> None:
    """Export completed cells as a JSONL campaign ledger, written once.

    Line 1 is a header carrying the schema tag, the campaign
    fingerprint (:meth:`CampaignSpec.fingerprint`) and — for a run over
    a cell range — that range as ``shard``; every further line is one
    cell's record, in the order given.  The ledger is an export for
    outside readers, not a checkpoint: the cell store is what an
    interrupted campaign resumes from.  The file is written through
    :func:`write_atomic`, so an export with no cells still leaves its
    header.
    """
    header: dict = {
        "schema": CAMPAIGN_LEDGER_SCHEMA,
        "fingerprint": fingerprint,
    }
    if cell_range is not None:
        header["shard"] = {
            "start": int(cell_range[0]),
            "stop": int(cell_range[1]),
        }
    lines = [json.dumps(header)]
    lines.extend(json.dumps(cell.to_record()) for cell in cells)
    write_atomic(Path(path), "\n".join(lines) + "\n", fsync)


@dataclass(frozen=True)
class CampaignReport:
    """A sign-off campaign run: per-cell metrics plus the rollup.

    Attributes:
        spec: the grid and bench settings.
        cells: completed cells, in grid order (store-served cells
            merged with freshly measured ones).
        batch: the underlying batch result of the *fresh* cells.
        cell_range: the shard's ``[start, stop)`` cell range; None for
            a whole-grid run.  Completeness is judged against this
            range, so a shard report can be complete without covering
            the grid.
        cached_cells: how many cells came from the content-addressed
            cell store (disjoint from the fresh batch).
    """

    spec: CampaignSpec
    cells: tuple[CellMetrics, ...]
    batch: BatchResult
    cell_range: tuple[int, int] | None = None
    cached_cells: int = 0

    @classmethod
    def from_records(
        cls,
        spec: CampaignSpec,
        records: "dict[int, CellMetrics]",
    ) -> "CampaignReport":
        """A report assembled from already-measured cells.

        The exit of the gap-driven dispatcher
        (:class:`repro.runtime.dispatcher.CampaignDispatcher`), which
        reunites cells its shards measured into the shared store.  The
        batch is empty (nothing ran here) and every cell counts as
        served from the store; completeness is judged against the whole
        grid.
        """
        cells = tuple(records[index] for index in sorted(records))
        return cls(
            spec=spec,
            cells=cells,
            batch=BatchResult(
                outcomes=(), workers=1, chunk_size=1, elapsed_s=0.0
            ),
            cached_cells=len(cells),
        )

    @property
    def n_cells(self) -> int:
        """Cells this report is responsible for (shard-aware)."""
        if self.cell_range is not None:
            return self.cell_range[1] - self.cell_range[0]
        return self.spec.n_cells

    @property
    def expected_indices(self) -> range:
        """The grid indices this report must cover to be complete."""
        if self.cell_range is not None:
            return range(self.cell_range[0], self.cell_range[1])
        return range(self.spec.n_cells)

    def missing_cell_indices(self) -> tuple[int, ...]:
        """Expected grid indices with no completed cell, sorted."""
        present = {cell.index for cell in self.cells}
        return tuple(
            index for index in self.expected_indices
            if index not in present
        )

    @property
    def complete(self) -> bool:
        return not self.missing_cell_indices() and not self.batch.failures

    @property
    def failures(self) -> tuple[TaskOutcome, ...]:
        return self.batch.failures

    def worst_cell(self) -> CellMetrics:
        """The grid's worst cell by SNDR — the sign-off limiter."""
        if not self.cells:
            raise ConfigurationError("campaign measured no cells")
        return min(self.cells, key=lambda cell: cell.sndr_db)

    def signoff(self) -> Datasheet:
        """Min/typ/max electrical characteristics over the whole grid."""
        if not self.cells:
            raise ConfigurationError("campaign measured no cells")
        fin_mhz = self.spec.input_frequency / 1e6
        conditions = (
            f"{len(self.spec.corners)} corners x "
            f"{len(self.spec.temperatures_c)} temperatures x "
            f"{self.spec.n_dies} dies, f_in = {fin_mhz:.0f} MHz"
        )
        return signoff_datasheet(
            {
                f"SNR (f_in={fin_mhz:.0f}MHz)": (
                    "dB",
                    [c.snr_db for c in self.cells],
                ),
                f"SNDR (f_in={fin_mhz:.0f}MHz)": (
                    "dB",
                    [c.sndr_db for c in self.cells],
                ),
                f"SFDR (f_in={fin_mhz:.0f}MHz)": (
                    "dB",
                    [c.sfdr_db for c in self.cells],
                ),
                "ENOB": ("bit", [c.enob_bits for c in self.cells]),
            },
            n_population=len(self.cells),
            conversion_rate=self.spec.conversion_rate,
            conditions=conditions,
            population="cells",
        )

    def corner_rows(self) -> list[tuple]:
        """Per-point rollup rows: worst die at every (corner, T)."""
        rows = []
        for corner in self.spec.corners:
            for temperature in self.spec.temperatures_c:
                group = [
                    cell
                    for cell in self.cells
                    if cell.corner == corner.value
                    and cell.temperature_c == float(temperature)
                ]
                if not group:
                    continue
                worst = min(group, key=lambda cell: cell.sndr_db)
                rows.append(
                    (
                        corner.value.upper(),
                        f"{temperature:g}",
                        f"{min(c.snr_db for c in group):.1f}",
                        f"{worst.sndr_db:.1f}",
                        f"{min(c.enob_bits for c in group):.2f}",
                    )
                )
        return rows

    def render(self) -> str:
        """Full textual sign-off report."""
        lines = [
            format_table(
                ("corner", "T [C]", "SNR [dB]", "SNDR [dB]", "ENOB"),
                self.corner_rows(),
                title=(
                    f"--- PVT campaign: {len(self.cells)}/{self.n_cells} "
                    f"cells at "
                    f"{self.spec.conversion_rate / 1e6:.0f} MS/s "
                    f"(worst die per point) ---"
                ),
            ),
            "",
            self.signoff().render(),
            "",
        ]
        worst = self.worst_cell()
        lines.append(
            f"worst cell: {worst.cell_id} at {worst.sndr_db:.1f} dB SNDR "
            f"({worst.enob_bits:.2f} ENOB)"
        )
        for failure in self.batch.failures:
            lines.append(
                f"cell {failure.index} CRASHED: "
                f"{failure.error_type}: {failure.error}"
            )
        missing = self.missing_cell_indices()
        if missing:
            listed = ", ".join(str(index) for index in missing)
            lines.append(
                f"INCOMPLETE: {len(missing)} cell(s) missing "
                f"(indices {listed})"
            )
        cached = (
            f" {self.cached_cells} cell(s) from cell store,"
            if self.cached_cells
            else ""
        )
        shard = (
            f" cells [{self.cell_range[0]}, {self.cell_range[1]}) of "
            f"{self.spec.n_cells},"
            if self.cell_range is not None
            else ""
        )
        tier = (
            " fast-precision," if self.spec.precision == "fast" else ""
        )
        lines.append(
            f"campaign:{tier}{shard}{cached} {self.batch.workers} "
            f"worker(s), "
            f"{self.batch.elapsed_s:.2f} s"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": CAMPAIGN_LEDGER_SCHEMA,
            "spec": json_safe(dataclasses.asdict(self.spec)),
            "n_cells": self.n_cells,
            "n_complete": len(self.cells),
            "cell_range": (
                list(self.cell_range)
                if self.cell_range is not None
                else None
            ),
            "missing_cells": list(self.missing_cell_indices()),
            "cached_cells": self.cached_cells,
            "n_failures": len(self.batch.failures),
            "elapsed_s": self.batch.elapsed_s,
            "workers": self.batch.workers,
            "cells": [cell.to_record() for cell in self.cells],
            "signoff": {
                line.parameter: {
                    "unit": line.unit,
                    "min": line.minimum,
                    "typ": line.typical,
                    "max": line.maximum,
                }
                for line in self.signoff().lines
            }
            if self.cells
            else {},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _chunk_cells(
    cells: Sequence[CampaignCell], cell_chunk: int
) -> list[tuple[CampaignCell, ...]]:
    return [
        tuple(cells[low : low + cell_chunk])
        for low in range(0, len(cells), cell_chunk)
    ]


def run_campaign(
    spec: CampaignSpec | None = None,
    config: AdcConfig | None = None,
    ledger_path: str | Path | None = None,
    cell_chunk: int | None = None,
    workers: int | None = 1,
    progress: ProgressCallback | None = None,
    cell_range: tuple[int, int] | None = None,
    cell_store: "CellStore | str | Path | None" = None,
    fsync: bool = True,
) -> CampaignReport:
    """Run a PVT sign-off campaign (resuming from ``cell_store``).

    Args:
        spec: the grid and bench settings (default sign-off grid).
        config: converter configuration (paper default when omitted).
        ledger_path: export the report's cells there as a JSONL ledger
            (:func:`export_ledger`) once the run ends.  An export, not
            a checkpoint: only ``cell_store`` resumes a campaign.
        cell_chunk: cells per batch task, each converted as one
            :class:`~repro.core.adc_array.AdcArray` pass (None splits
            evenly across the workers, bounded by a cache-friendly
            default); 1 checkpoints and isolates failures per cell.
            Per-cell metrics are bit-exact for any chunking and worker
            count.
        workers: worker processes (1 = serial, None = all CPUs).
        progress: progress callback (per cell chunk).
        cell_range: run only grid cells ``[start, stop)`` — a shard of
            the campaign (usually via
            :meth:`CampaignSpec.shard` and
            :func:`repro.runtime.shards.run_campaign_shard`).  The
            ledger header records the range, and the report's
            completeness is judged against it.
        cell_store: content-addressed cell-result store (a
            :class:`~repro.runtime.cell_store.CellStore` or its root
            directory) — the campaign's checkpoint.  Cells whose
            physics identity — config fingerprint, PVT point, die seed,
            bench settings — already has an entry are served from the
            store with zero recomputation; fresh results are written
            back as each chunk finishes, so re-running an interrupted
            campaign over the same store computes only the gaps.
        fsync: fsync cell-store writes and the ledger export (default);
            ``False`` trades the power-loss guarantee for speed.

    Returns:
        The :class:`CampaignReport`; crashed cells land in
        ``report.failures`` (and are absent from the store, so a
        re-run retries them).
    """
    spec = spec or CampaignSpec()
    config = config or AdcConfig.paper_default()
    if cell_chunk is not None and cell_chunk < 1:
        raise ConfigurationError(
            f"cell_chunk must be >= 1 or None, got {cell_chunk}"
        )
    if cell_range is not None:
        start, stop = cell_range
        if not 0 <= start < stop <= spec.n_cells:
            raise ConfigurationError(
                f"cell_range [{start}, {stop}) is not a non-empty "
                f"subrange of the campaign grid [0, {spec.n_cells})"
            )
        cell_range = (int(start), int(stop))

    cells = spec.cells()
    if cell_range is not None:
        cells = cells[cell_range[0] : cell_range[1]]
    store = None
    cached: dict[int, CellMetrics] = {}
    if cell_store is not None:
        from repro.runtime.cell_store import CellStore

        store = (
            cell_store
            if isinstance(cell_store, CellStore)
            else CellStore(cell_store)
        ).bind(spec, config, fsync=fsync)
        for cell in cells:
            metrics = store.get(cell)
            if metrics is not None:
                cached[cell.index] = metrics
    pending = [cell for cell in cells if cell.index not in cached]

    def checkpoint(update) -> None:
        outcome = update.latest
        if store is not None and outcome is not None and outcome.ok:
            for metrics in outcome.value:
                store.put(cell_by_index[metrics.index], metrics)
        if progress is not None:
            progress(update)

    cell_by_index = {cell.index: cell for cell in cells}

    runner = BatchRunner(workers=workers, progress=checkpoint)
    if not pending:
        batch = BatchResult(
            outcomes=(), workers=1, chunk_size=1, elapsed_s=0.0
        )
    else:
        if cell_chunk is None:
            per_worker = -(-len(pending) // runner.resolve_workers(len(pending)))
            cell_chunk = max(1, min(per_worker, _DEFAULT_CELL_CHUNK))
        chunks = _chunk_cells(pending, cell_chunk)
        tasks = [
            CellChunkTask(cells=chunk, config=config, spec=spec)
            for chunk in chunks
        ]
        batch = flatten_chunk_batch(
            runner.run(measure_cell_chunk, tasks),
            chunks,
            index_of=lambda cell: cell.index,
            seed_of=lambda cell: cell.die_seed,
        )
    merged = dict(cached)
    for outcome in batch.outcomes:
        if outcome.ok:
            merged[outcome.index] = outcome.value
    report = CampaignReport(
        spec=spec,
        cells=tuple(merged[index] for index in sorted(merged)),
        batch=batch,
        cell_range=cell_range,
        cached_cells=len(cached),
    )
    if ledger_path is not None:
        export_ledger(
            ledger_path,
            spec.fingerprint(config),
            report.cells,
            cell_range=cell_range,
            fsync=fsync,
        )
    return report
