"""Sharded campaigns: split one sign-off grid across processes.

A shard is a contiguous ``[start, stop)`` slice of a campaign's cell
enumeration, planned by :meth:`CampaignSpec.shard` so every shard
shares the parent spec — and with it the per-cell die seeds and the
campaign fingerprint.  Each shard runs :func:`run_campaign` over its
cell range, in its own process or on its own machine; nothing
coordinates at runtime.  Shards that write into one content-addressed
cell store (:mod:`repro.runtime.cell_store`) need no merge step: the
store keys each cell by its physics identity, so a whole-grid
``run_campaign(..., cell_store=...)`` over the store serves every cell
the shards completed and computes only the gaps — and the gap-driven
dispatcher (:mod:`repro.runtime.dispatcher`) reads the missing keys
directly.

Because per-cell metrics are bit-exact across chunkings and worker
counts, the projected report's cells are bit-identical to the
single-process campaign over the same grid.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.runtime.campaign import (
    CampaignCell,
    CampaignReport,
    CampaignSpec,
    run_campaign,
)


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

    All :func:`run_campaign` keyword arguments pass through (cell
    store, ledger export, cell chunk, workers, ...).  The returned report
    covers only the shard's cells; run the whole grid over the shared
    cell store for the campaign-wide report.
    """
    return run_campaign(
        spec=shard.spec,
        config=config,
        cell_range=shard.cell_range,
        **kwargs,
    )


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


__all__ = [
    "CampaignShard",
    "coalesce_cell_ranges",
    "run_campaign_shard",
]
