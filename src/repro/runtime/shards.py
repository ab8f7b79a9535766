"""Sharded campaigns: split one sign-off grid across processes.

A shard is a contiguous ``[start, stop)`` slice of a campaign's cell
enumeration, planned by :meth:`CampaignSpec.shard` so every shard
shares the parent spec — and with it the per-cell die seeds and the
campaign fingerprint.  Each shard runs :func:`run_campaign` against its
own ledger (the header records the parent fingerprint plus the shard's
cell range), in its own process or on its own machine; nothing
coordinates at runtime.  Afterwards :func:`merge_campaign_ledgers`
turns the shard ledgers back into one :class:`CampaignReport`:

* every ledger must carry the *same* campaign fingerprint — a shard of
  a different grid, bench setting or converter configuration is
  rejected, not mixed in;
* overlapping cells are tolerated only when the records are identical
  (two shards that legitimately recomputed the same cell agree bit for
  bit by the chunk-invariance contract); conflicting records are an
  error naming the cell and both ledgers;
* gaps are not an error — the merged report is simply incomplete and
  lists the missing cell indices, so a scheduler can re-dispatch them.

Because per-cell metrics are bit-exact across chunkings and worker
counts, the merged report's cells are bit-identical to the
single-process campaign over the same grid.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.runtime.campaign import (
    CampaignCell,
    CampaignLedger,
    CampaignReport,
    CampaignSpec,
    CellMetrics,
    run_campaign,
)
from repro.technology.corners import Corner


@dataclass(frozen=True)
class CampaignShard:
    """Shard ``index`` of ``count``: cells ``[start, stop)`` of a grid.

    Built by :meth:`CampaignSpec.shard`; carries the parent spec so the
    shard's cells keep their grid indices and die seeds.
    """

    spec: CampaignSpec
    index: int
    count: int
    start: int
    stop: int

    @property
    def cell_range(self) -> tuple[int, int]:
        return (self.start, self.stop)

    @property
    def n_cells(self) -> int:
        return self.stop - self.start

    def cells(self) -> list[CampaignCell]:
        """The shard's slice of the parent grid, in grid order."""
        return self.spec.cells()[self.start : self.stop]


def run_campaign_shard(
    shard: CampaignShard,
    config: AdcConfig | None = None,
    **kwargs,
) -> CampaignReport:
    """Run one shard — :func:`run_campaign` over the shard's cell range.

    All :func:`run_campaign` keyword arguments pass through (ledger,
    resume, cell chunk, workers, cell store, ...).  The returned report
    covers only the shard's cells; merge the shard ledgers with
    :func:`merge_campaign_ledgers` for the campaign-wide report.
    """
    return run_campaign(
        spec=shard.spec,
        config=config,
        cell_range=shard.cell_range,
        **kwargs,
    )


def spec_from_fingerprint(fingerprint: dict) -> CampaignSpec:
    """Reconstruct the campaign spec a fingerprint was taken from.

    The reconstruction round-trips: its :meth:`CampaignSpec.fingerprint`
    spec part equals the input's (the root ``seed`` is not recoverable —
    fingerprints store the resolved per-die seeds instead — so the
    rebuilt spec pins ``die_seeds`` explicitly).

    Raises:
        ConfigurationError: when the fingerprint lacks a readable spec.
    """
    try:
        spec = fingerprint["spec"]
        return CampaignSpec(
            corners=tuple(Corner(value) for value in spec["corners"]),
            temperatures_c=tuple(
                float(value) for value in spec["temperatures_c"]
            ),
            n_dies=int(spec["n_dies"]),
            die_seeds=tuple(int(value) for value in spec["die_seeds"]),
            supply_scale=float(spec["supply_scale"]),
            conversion_rate=float(spec["conversion_rate"]),
            input_frequency=float(spec["input_frequency"]),
            n_samples=int(spec["n_samples"]),
            amplitude_fraction=float(spec["amplitude_fraction"]),
            precision=str(spec["precision"]),
        )
    except (KeyError, TypeError, ValueError):
        raise ConfigurationError(
            "fingerprint does not carry a readable campaign spec; "
            "cannot reconstruct the campaign"
        ) from None


def coalesce_cell_ranges(
    indices: Iterable[int],
) -> tuple[tuple[int, int], ...]:
    """Collapse cell indices into minimal contiguous ``[start, stop)`` runs.

    The dispatcher's retry unit: ``missing_cell_indices()`` comes back
    as individual cells, but a re-dispatched shard takes a contiguous
    ``--cell-range`` — so adjacent gaps fuse into one range and each
    isolated cell becomes a singleton range.  Input order and
    duplicates do not matter; the output is sorted and disjoint.

    >>> coalesce_cell_ranges([3, 4, 5, 9, 11, 12])
    ((3, 6), (9, 10), (11, 13))
    """
    unique = sorted(set(int(index) for index in indices))
    for index in unique:
        if index < 0:
            raise ConfigurationError(
                f"cell indices must be >= 0, got {index}"
            )
    ranges: list[tuple[int, int]] = []
    for index in unique:
        if ranges and index == ranges[-1][1]:
            ranges[-1] = (ranges[-1][0], index + 1)
        else:
            ranges.append((index, index + 1))
    return tuple(ranges)


def merge_campaign_ledgers(
    paths: Sequence[str | Path] | Iterable[str | Path],
    out_ledger: str | Path | None = None,
    fsync: bool = True,
) -> CampaignReport:
    """Merge shard ledgers into one campaign-wide report.

    Args:
        paths: the shard ledger files (any order; whole-grid ledgers
            merge too).
        out_ledger: when given, also write the merged cells as a fresh
            whole-grid ledger there — resumable by the unsharded
            campaign.
        fsync: fsync policy for the ``out_ledger`` write (default on,
            matching :class:`CampaignLedger`); the dispatcher passes
            ``False`` for its internal merges, where the shard ledgers
            already carry the durability and a tmpfs merge should not
            pay per-batch fsyncs.

    Returns:
        A :class:`CampaignReport` over the union of the shards' cells
        (every cell counted as resumed).  Gaps leave the report incomplete
        (``report.missing_cell_indices()`` lists them); cells
        bit-identical to the single-process run.

    Raises:
        ConfigurationError: no ledgers, a ledger from a different
            campaign, conflicting records for one cell, or any
            per-ledger validation failure
            (:meth:`CampaignLedger.read`).
    """
    paths = [Path(path) for path in paths]
    if not paths:
        raise ConfigurationError("no shard ledgers to merge")
    first_path = paths[0]
    fingerprint: dict | None = None
    merged: dict[int, CellMetrics] = {}
    source: dict[int, Path] = {}
    for path in paths:
        contents = CampaignLedger(path).read()
        if fingerprint is None:
            fingerprint = contents.fingerprint
        elif contents.fingerprint != fingerprint:
            raise ConfigurationError(
                f"shard ledger {path} was written by a different "
                f"campaign than {first_path}; refusing to merge"
            )
        for index, metrics in contents.records.items():
            held = merged.get(index)
            if held is None:
                merged[index] = metrics
                source[index] = path
            elif held != metrics:
                raise ConfigurationError(
                    f"shard ledgers disagree on cell {index}: "
                    f"{source[index]} and {path} hold conflicting "
                    "records"
                )
    assert fingerprint is not None
    spec = spec_from_fingerprint(fingerprint)
    if out_ledger is not None:
        ledger = CampaignLedger(out_ledger, fsync=fsync)
        ledger.start(fingerprint)
        ledger.record(merged[index] for index in sorted(merged))
    return CampaignReport.from_records(spec, merged)


__all__ = [
    "CampaignShard",
    "coalesce_cell_ranges",
    "merge_campaign_ledgers",
    "run_campaign_shard",
    "spec_from_fingerprint",
]
