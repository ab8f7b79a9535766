"""Tests for sharded campaigns and the cell store they share.

The load-bearing contracts:

* **Shard-store equivalence** — running every shard of a grid into one
  cell store and projecting the grid over it reproduces the
  single-process campaign's per-cell metrics bit for bit.
* **Gaps are missing keys** — a partial store leaves exactly the cells
  no shard stored missing; overlapping shards store each cell once.
* **Cell-store reuse** — a campaign sharing cells with an earlier run
  (same physics identity) resumes them from the content-addressed
  store with zero recomputation, across grid shapes; a damaged entry
  is a miss that the next run rewrites, and every write is fsynced
  unless the campaign opts out.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.cell_store import CellStore
from repro.runtime.dispatcher import CampaignDispatcher
from repro.runtime.shards import run_campaign_shard
from repro.technology.corners import Corner

SMALL = dict(
    corners=(Corner.TT, Corner.SS),
    temperatures_c=(27.0, 125.0),
    n_dies=2,
    seed=99,
    n_samples=512,
)


@pytest.fixture(scope="module")
def small_spec():
    return CampaignSpec(**SMALL)


@pytest.fixture(scope="module")
def single_report(small_spec):
    return run_campaign(small_spec)


@pytest.fixture(scope="module")
def shard_store(small_spec, tmp_path_factory):
    """Both shards of the small grid run into one shared cell store."""
    store = tmp_path_factory.mktemp("shards") / "cells"
    for shard in small_spec.shards(2):
        report = run_campaign_shard(shard, cell_store=store)
        assert report.complete
    return store


class TestShardPlanning:
    def test_shards_partition_the_grid(self, small_spec):
        shards = small_spec.shards(3)
        covered = []
        for shard in shards:
            covered.extend(range(shard.start, shard.stop))
        assert covered == list(range(small_spec.n_cells))

    def test_uneven_split_balances_within_one(self, small_spec):
        assert small_spec.n_cells == 8
        sizes = [shard.n_cells for shard in small_spec.shards(3)]
        assert sizes == [3, 3, 2]

    def test_shard_cells_keep_grid_indices_and_seeds(self, small_spec):
        parent = small_spec.cells()
        shard = small_spec.shard(1, 2)
        assert shard.cells() == parent[shard.start : shard.stop]

    def test_shard_validation(self, small_spec):
        with pytest.raises(ConfigurationError, match="shard count"):
            small_spec.shard(0, 0)
        with pytest.raises(ConfigurationError, match="shard index"):
            small_spec.shard(2, 2)
        with pytest.raises(ConfigurationError, match="shard index"):
            small_spec.shard(-1, 2)
        with pytest.raises(
            ConfigurationError, match="at least one cell"
        ):
            small_spec.shards(small_spec.n_cells + 1)

    def test_cell_range_validation(self, small_spec):
        with pytest.raises(ConfigurationError, match="cell_range"):
            run_campaign(small_spec, cell_range=(4, 4))
        with pytest.raises(ConfigurationError, match="cell_range"):
            run_campaign(
                small_spec, cell_range=(0, small_spec.n_cells + 1)
            )


class TestShardMerge:
    """Shards merge through the store: a projection, not a ledger merge."""

    def test_merge_is_bit_identical_to_single_run(
        self, shard_store, small_spec, single_report
    ):
        merged = run_campaign(small_spec, cell_store=shard_store)
        assert merged.complete
        assert merged.cached_cells == merged.n_cells
        assert merged.batch.n_tasks == 0
        assert merged.cells == single_report.cells
        assert (
            merged.to_dict()["signoff"]
            == single_report.to_dict()["signoff"]
        )

    def test_out_ledger_exports_the_merged_grid(
        self,
        shard_store,
        small_spec,
        single_report,
        paper_config,
        read_ledger,
        tmp_path,
    ):
        # A complete store launches nothing; --out-ledger exports it.
        out = tmp_path / "merged.jsonl"
        dispatch = CampaignDispatcher(
            small_spec, shards=2, cell_store=shard_store, out_ledger=out
        ).run()
        assert dispatch.complete
        assert dispatch.attempts == ()
        assert dispatch.report.cached_cells == small_spec.n_cells
        header, records = read_ledger(out)
        assert header["fingerprint"] == small_spec.fingerprint(paper_config)
        assert "shard" not in header
        assert records == [cell.to_record() for cell in single_report.cells]

    def test_gap_reports_missing_cells(
        self, small_spec, single_report, tmp_path
    ):
        store = tmp_path / "cells"
        run_campaign_shard(small_spec.shard(0, 2), cell_store=store)
        # The one gap range is killed at its first poll and may not be
        # retried: the report is exactly what the store holds.
        dispatch = CampaignDispatcher(
            small_spec,
            shards=1,
            cell_store=store,
            max_retries=0,
            poll_interval_s=0.01,
            fault_kill=(0, 0),
        ).run()
        assert dispatch.exhausted
        missing = tuple(range(4, small_spec.n_cells))
        assert dispatch.missing_cells == missing
        assert [(a.start, a.stop) for a in dispatch.attempts] == [(4, 8)]
        assert dispatch.report.cells == single_report.cells[:4]
        assert dispatch.report.missing_cell_indices() == missing
        rendered = dispatch.report.render()
        assert "INCOMPLETE: 4 cell(s) missing" in rendered
        assert "4, 5, 6, 7" in rendered
        document = dispatch.to_dict()
        assert document["missing_cells"] == list(missing)
        assert document["campaign"]["missing_cells"] == list(missing)

    def test_identical_overlap_merges_cleanly(
        self, small_spec, single_report, tmp_path
    ):
        store = tmp_path / "cells"
        run_campaign(small_spec, cell_range=(0, 5), cell_store=store)
        overlap = run_campaign(
            small_spec, cell_range=(3, 8), cell_store=store
        )
        assert overlap.cached_cells == 2
        assert CellStore(store).stats().n_entries == small_spec.n_cells
        merged = run_campaign(small_spec, cell_store=store)
        assert merged.cached_cells == small_spec.n_cells
        assert merged.cells == single_report.cells


class TestCellStore:
    def test_second_campaign_recomputes_nothing(
        self, small_spec, single_report, tmp_path
    ):
        store = tmp_path / "store"
        first = run_campaign(small_spec, cell_store=store)
        assert first.cached_cells == 0
        warm = run_campaign(small_spec, cell_store=store)
        assert warm.cached_cells == small_spec.n_cells
        assert warm.batch.n_tasks == 0
        assert warm.cells == single_report.cells

    def test_one_corner_campaign_reuses_shared_cells(
        self, small_spec, single_report, tmp_path
    ):
        """ISSUE acceptance: warm store, one-corner grid, 0 recomputed."""
        store = tmp_path / "store"
        run_campaign(small_spec, cell_store=store)
        one_corner = CampaignSpec(**{**SMALL, "corners": (Corner.SS,)})
        report = run_campaign(one_corner, cell_store=store)
        assert report.cached_cells == one_corner.n_cells
        assert report.batch.n_tasks == 0
        # The reused metrics are the single-run SS cells, re-indexed
        # into the smaller grid.
        ss_metrics = [
            (c.seed, c.temperature_c, c.snr_db, c.sndr_db, c.enob_bits)
            for c in single_report.cells
            if c.corner == "ss"
        ]
        got = [
            (c.seed, c.temperature_c, c.snr_db, c.sndr_db, c.enob_bits)
            for c in report.cells
        ]
        assert got == ss_metrics

    def test_bench_settings_are_part_of_the_key(
        self, small_spec, tmp_path
    ):
        store = tmp_path / "store"
        run_campaign(small_spec, cell_store=store)
        longer = CampaignSpec(**{**SMALL, "n_samples": 1024})
        report = run_campaign(longer, cell_store=store)
        assert report.cached_cells == 0

    def test_corrupt_entry_is_a_miss(self, small_spec, tmp_path):
        store = tmp_path / "store"
        run_campaign(small_spec, cell_store=store)
        for path in store.rglob("*.json"):
            path.write_text("not json")
        report = run_campaign(small_spec, cell_store=store)
        assert report.cached_cells == 0
        assert report.complete
        # The miss rewrote every damaged entry.
        healed = run_campaign(small_spec, cell_store=store)
        assert healed.cached_cells == small_spec.n_cells
        assert healed.cells == report.cells

    def test_non_object_entry_is_a_miss(self, paper_config, tmp_path):
        tiny = CampaignSpec(
            **{**SMALL, "corners": (Corner.TT,), "temperatures_c": (27.0,)}
        )
        store = tmp_path / "store"
        run_campaign(tiny, cell_store=store)
        for path in store.rglob("*.json"):
            path.write_text("[]")
        bound = CellStore(store).bind(tiny, paper_config)
        assert bound.get(tiny.cells()[0]) is None
        assert run_campaign(tiny, cell_store=store).cached_cells == 0
        assert run_campaign(tiny, cell_store=store).cached_cells == 2

    def test_fsync_switch_covers_store_writes(
        self, small_spec, tmp_path, monkeypatch
    ):
        tiny = CampaignSpec(
            **{**SMALL, "corners": (Corner.TT,), "temperatures_c": (27.0,)}
        )
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        run_campaign(
            tiny,
            cell_store=tmp_path / "durable",
            ledger_path=tmp_path / "durable.jsonl",
        )
        # One fsync for each entry file and one for its prefix dir,
        # plus the same pair for the ledger export.
        assert len(calls) == 2 * tiny.n_cells + 2
        calls.clear()
        run_campaign(
            tiny,
            cell_store=tmp_path / "fast",
            ledger_path=tmp_path / "fast.jsonl",
            fsync=False,
        )
        assert calls == []
        assert CellStore(tmp_path / "fast").stats().n_entries == tiny.n_cells
        durable = (tmp_path / "durable.jsonl").read_text()
        assert (tmp_path / "fast.jsonl").read_text() == durable

    def test_ledger_export_matches_the_store(
        self, small_spec, paper_config, read_ledger, tmp_path
    ):
        """Fresh and store-served cells export the same ledger."""
        ledger = tmp_path / "run.jsonl"
        store = tmp_path / "store"
        fresh = run_campaign(small_spec, ledger_path=ledger, cell_store=store)
        assert fresh.cached_cells == 0
        exported = ledger.read_text()
        header, records = read_ledger(ledger)
        assert header["fingerprint"] == small_spec.fingerprint(paper_config)
        assert records == [cell.to_record() for cell in fresh.cells]
        served = run_campaign(small_spec, ledger_path=ledger, cell_store=store)
        assert served.cached_cells == small_spec.n_cells
        assert ledger.read_text() == exported

    def test_store_composes_with_shards(self, small_spec, tmp_path):
        """Shard 0 warms the store; shard 1's cells still miss."""
        store = tmp_path / "store"
        first = run_campaign_shard(
            small_spec.shard(0, 2), cell_store=store
        )
        assert first.cached_cells == 0
        again = run_campaign_shard(
            small_spec.shard(0, 2), cell_store=store
        )
        assert again.cached_cells == again.n_cells
        other = run_campaign_shard(
            small_spec.shard(1, 2), cell_store=store
        )
        assert other.cached_cells == 0
        assert other.complete

    def test_bound_store_counts_hits_and_misses(
        self, small_spec, paper_config, tmp_path
    ):
        bound = CellStore(tmp_path / "store").bind(
            small_spec, paper_config
        )
        cells = small_spec.cells()
        assert bound.get(cells[0]) is None
        assert bound.misses == 1


class TestShardCli:
    def test_shard_run_and_merge_end_to_end(self, capsys, tmp_path):
        from repro.cli import main

        base = [
            "campaign",
            "--corners",
            "tt,ss",
            "--temps",
            "27",
            "--dies",
            "2",
            "--fft-points",
            "512",
        ]
        store = ["--cell-store", str(tmp_path / "store")]
        for index in (0, 1):
            assert main(base + store + ["--shard", f"{index}/2"]) == 0
        # The whole-grid run over the shards' store is the merge.
        merged = tmp_path / "merged.json"
        assert main(base + store + ["--json", str(merged)]) == 0
        assert "PVT campaign: 4/4 cells" in capsys.readouterr().out
        single = tmp_path / "single.json"
        assert main(base + ["--json", str(single)]) == 0
        document = json.loads(merged.read_text())
        reference = json.loads(single.read_text())
        assert document["cached_cells"] == document["n_cells"] == 4
        assert document["missing_cells"] == []
        assert document["cells"] == reference["cells"]
        assert document["signoff"] == reference["signoff"]
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_campaign_merge_is_not_a_subcommand(self, capsys):
        from repro.cli import main

        assert main(["campaign-merge", "shard-0.jsonl"]) == 2
        assert "campaign-merge" in capsys.readouterr().err

    def test_shard_flag_validation(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--shard", "2"]) == 2
        assert "INDEX/COUNT" in capsys.readouterr().err
        assert main(["campaign", "--shard", "5/2"]) == 2
        assert "shard index" in capsys.readouterr().err

    def test_shard_render_names_the_range(self, small_spec):
        report = run_campaign_shard(small_spec.shard(0, 2))
        assert "cells [0, 4) of 8" in report.render()
