"""Tests for the gap-driven dispatcher and the cell-store hygiene CLI.

The load-bearing contracts:

* **Convergence** — a dispatch whose shards all complete, and one whose
  shard is SIGKILLed mid-run, both end with the projected grid complete
  and bit-identical to the single-process campaign.
* **The store is the source of truth** — a killed shard's stored cells
  are kept; only the actual gaps (missing or corrupt entries) are
  re-dispatched, as coalesced contiguous ranges.  A dispatch writes no
  ledger unless asked to export one.
* **Determinism of decisions** — range planning and backoff jitter are
  pure functions of the campaign fingerprint and round index.
* **Bounded failure** — the per-cell retry budget turns a persistent
  failure into an exhausted, incomplete report (CLI exit 1), never an
  endless loop.
* **Store hygiene** — stats/verify/prune sweep correctly, quarantine
  preserves damaged entries, and entries vanishing mid-sweep degrade
  to misses, never tracebacks.
"""

import json
import os
import sys
import time

import pytest

from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.runtime.campaign import (
    CAMPAIGN_LEDGER_SCHEMA,
    CampaignSpec,
    measure_cell_chunk,
    run_campaign,
)
from repro.runtime.cell_store import QUARANTINE_DIR, CellStore
from repro.runtime.dispatcher import (
    CampaignDispatcher,
    backoff_delay_s,
    backoff_jitter,
    parse_fault_kill,
)
from repro.runtime.shards import coalesce_cell_ranges
from repro.technology.corners import Corner

SMALL = dict(
    corners=(Corner.TT, Corner.SS),
    temperatures_c=(27.0, 125.0),
    n_dies=2,
    seed=99,
    n_samples=512,
)


#: The cell measurement ``run_campaign`` looks up at call time; forked
#: shards inherit a monkeypatch of it.
MEASURE = "repro.runtime.campaign.measure_cell_chunk"


def _block(task, *seed):
    """A cell measurement that never finishes on its own."""
    time.sleep(60.0)


@pytest.fixture(scope="module")
def small_spec():
    return CampaignSpec(**SMALL)


@pytest.fixture(scope="module")
def single_report(small_spec):
    return run_campaign(small_spec)


class TestCoalesce:
    def test_empty(self):
        assert coalesce_cell_ranges([]) == ()

    def test_singleton(self):
        assert coalesce_cell_ranges([4]) == ((4, 5),)

    def test_adjacent_runs_fuse(self):
        assert coalesce_cell_ranges([3, 4, 5, 9, 11, 12]) == (
            (3, 6),
            (9, 10),
            (11, 13),
        )

    def test_order_and_duplicates_ignored(self):
        assert coalesce_cell_ranges([5, 3, 4, 4, 3]) == ((3, 6),)

    def test_full_grid(self):
        assert coalesce_cell_ranges(range(8)) == ((0, 8),)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            coalesce_cell_ranges([2, -1])


class TestBackoff:
    def test_jitter_deterministic_and_bounded(self):
        first = backoff_jitter("abc123", 0)
        assert first == backoff_jitter("abc123", 0)
        assert 0.0 <= first < 1.0
        # Different rounds and different campaigns decorrelate.
        assert first != backoff_jitter("abc123", 1)
        assert first != backoff_jitter("def456", 0)

    def test_delay_grows_exponentially_and_caps(self):
        delays = [
            backoff_delay_s(0.5, 60.0, r, "abc123") for r in range(4)
        ]
        # Un-jittered base doubles per round; jitter adds at most 25 %.
        for round_index, delay in enumerate(delays):
            raw = 0.5 * 2**round_index
            assert raw <= delay <= raw * 1.25
        capped = backoff_delay_s(0.5, 1.0, 10, "abc123")
        assert capped <= 1.25

    def test_zero_base_disables_waiting(self):
        assert backoff_delay_s(0.0, 60.0, 3, "abc123") == 0.0


class TestPlanRanges:
    def test_full_grid_matches_shard_planning(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=3, cell_store=tmp_path
        )
        planned = dispatcher.plan_ranges(tuple(range(small_spec.n_cells)))
        assert planned == tuple(
            shard.cell_range for shard in small_spec.shards(3)
        )

    def test_partial_gap_splits_widest_range(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=3, cell_store=tmp_path
        )
        # One wide gap plus one singleton: the wide one splits until
        # three units of work exist.
        planned = dispatcher.plan_ranges((1, 2, 3, 4, 7))
        assert planned == ((1, 3), (3, 5), (7, 8))

    def test_never_splits_below_one_cell(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=4, cell_store=tmp_path
        )
        assert dispatcher.plan_ranges((5,)) == ((5, 6),)

    def test_empty_missing_plans_nothing(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=2, cell_store=tmp_path
        )
        assert dispatcher.plan_ranges(()) == ()


class TestFaultParsing:
    def test_absent(self):
        assert parse_fault_kill(None) is None
        assert parse_fault_kill("") is None

    def test_position_only(self):
        assert parse_fault_kill("1") == (1, 0)

    def test_position_and_cells(self):
        assert parse_fault_kill("2:3") == (2, 3)

    @pytest.mark.parametrize("bad", ["x", "1:y", "-1", "1:-2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="POSITION"):
            parse_fault_kill(bad)


class TestDispatcherValidation:
    def test_bad_shards(self, small_spec, tmp_path):
        with pytest.raises(ConfigurationError, match="shard"):
            CampaignDispatcher(small_spec, shards=0, cell_store=tmp_path)

    def test_bad_retries(self, small_spec, tmp_path):
        with pytest.raises(ConfigurationError, match="max_retries"):
            CampaignDispatcher(
                small_spec, shards=2, cell_store=tmp_path, max_retries=-1
            )

    def test_bad_timeout(self, small_spec, tmp_path):
        with pytest.raises(ConfigurationError, match="timeout"):
            CampaignDispatcher(
                small_spec, shards=2, cell_store=tmp_path, timeout_s=0.0
            )

    def test_shards_clamped_to_grid(self, small_spec, tmp_path):
        dispatcher = CampaignDispatcher(
            small_spec, shards=99, cell_store=tmp_path
        )
        assert dispatcher.shards == small_spec.n_cells


class TestDispatchEndToEnd:
    @pytest.fixture(scope="class")
    def dispatched(self, small_spec, tmp_path_factory):
        work = tmp_path_factory.mktemp("dispatch")
        export = tmp_path_factory.mktemp("export") / "merged.jsonl"
        dispatcher = CampaignDispatcher(
            small_spec,
            shards=3,
            cell_store=work / "cells",
            cell_chunk=1,
            out_ledger=export,
        )
        return work, export, dispatcher.run()

    def test_completes_in_one_round(self, dispatched):
        _, _, report = dispatched
        assert report.complete and not report.exhausted
        assert report.rounds == 1
        assert len(report.attempts) == 3
        assert report.redispatched_ranges == ()
        assert all(a.exit_code == 0 for a in report.attempts)

    def test_bit_identical_to_single_process(self, dispatched, single_report):
        _, _, report = dispatched
        assert report.report.cells == single_report.cells

    def test_out_ledger_export(self, dispatched, small_spec, paper_config, read_ledger):
        _, export, report = dispatched
        header, records = read_ledger(export)
        assert header == {
            "schema": CAMPAIGN_LEDGER_SCHEMA,
            "fingerprint": small_spec.fingerprint(paper_config),
        }
        assert records == [cell.to_record() for cell in report.report.cells]

    def test_store_is_the_only_record(self, dispatched, small_spec):
        work, _, _ = dispatched
        assert not list(work.rglob("*.jsonl"))
        stats = CellStore(work / "cells").stats()
        assert stats.n_entries == small_spec.n_cells

    def test_report_document(self, dispatched):
        _, _, report = dispatched
        document = json.loads(report.to_json())
        assert document["schema"] == "repro.dispatch-report/v2"
        assert "unreadable_ledgers" not in document
        assert document["complete"] is True
        assert document["missing_cells"] == []
        assert len(document["attempts"]) == 3
        assert all("ledger" not in a for a in document["attempts"])
        assert document["campaign"]["n_complete"] == 8

    def test_rerun_resumes_and_launches_nothing(self, dispatched, small_spec):
        work, _, _ = dispatched
        rerun = CampaignDispatcher(
            small_spec, shards=3, cell_store=work / "cells"
        ).run()
        assert rerun.complete
        assert rerun.rounds == 0
        assert rerun.attempts == ()
        assert rerun.resumed_cells == small_spec.n_cells


class TestDispatchRecovery:
    def test_killed_shard_recovers_through_gap_redispatch(
        self, small_spec, tmp_path, single_report
    ):
        dispatcher = CampaignDispatcher(
            small_spec,
            shards=3,
            cell_store=tmp_path,
            cell_chunk=1,
            backoff_base_s=0.01,
            poll_interval_s=0.01,
            fault_kill=(1, 1),
        )
        report = dispatcher.run()
        assert report.complete
        assert report.rounds >= 2
        killed = [a for a in report.attempts if a.fault_injected]
        assert len(killed) == 1
        assert killed[0].exit_code == -9
        assert report.redispatched_ranges
        # Re-dispatched ranges stay inside the killed shard's range.
        start, stop = killed[0].start, killed[0].stop
        for low, high in report.redispatched_ranges:
            assert start <= low < high <= stop
        # One backoff per retry round, following the deterministic
        # schedule.
        assert len(report.backoffs_s) == report.rounds - 1
        expected = backoff_delay_s(
            0.01, 60.0, 0, dispatcher._fingerprint_digest
        )
        assert report.backoffs_s[0] == expected
        # And the recovered grid is still the single-process grid.
        assert report.report.cells == single_report.cells

    def test_retry_exhaustion_is_bounded_and_reported(
        self, small_spec, tmp_path
    ):
        dispatcher = CampaignDispatcher(
            small_spec,
            shards=3,
            cell_store=tmp_path,
            cell_chunk=1,
            max_retries=0,
            poll_interval_s=0.01,
            fault_kill=(0, 0),
        )
        report = dispatcher.run()
        assert not report.complete
        assert report.exhausted
        assert report.rounds == 1
        assert report.missing_cells
        # The surviving shards' cells are kept: the merge, not the
        # failure, decides what remains.
        assert len(report.report.cells) == (
            small_spec.n_cells - len(report.missing_cells)
        )
        assert "EXHAUSTED" in report.render()

    def test_timeout_kills_and_flags(self, small_spec, tmp_path, monkeypatch):
        # Every cell blocks, so no shard can finish inside the timeout
        # (the forked shards inherit the patch).
        monkeypatch.setattr(MEASURE, _block)
        dispatcher = CampaignDispatcher(
            small_spec,
            shards=2,
            cell_store=tmp_path,
            max_retries=0,
            timeout_s=0.05,
        )
        report = dispatcher.run()
        assert not report.complete
        assert report.exhausted
        assert all(a.timed_out for a in report.attempts)
        assert all(a.exit_code == -9 for a in report.attempts)
        # Zero completed cells must still render.
        assert "EXHAUSTED" in report.render()

    def test_resume_from_externally_run_shards(self, small_spec, tmp_path):
        # Shards run by hand (no dispatcher) write into the store; the
        # dispatcher picks them up and only runs what is missing —
        # here, nothing.
        for start, stop in ((0, 4), (4, 8)):
            run_campaign(
                small_spec,
                cell_range=(start, stop),
                cell_store=tmp_path / "cells",
            )
        report = CampaignDispatcher(
            small_spec, shards=2, cell_store=tmp_path / "cells"
        ).run()
        assert report.complete
        assert report.attempts == ()
        assert report.resumed_cells == small_spec.n_cells

    def test_corrupt_store_entry_is_redispatched_and_rewritten(
        self, small_spec, single_report, tmp_path
    ):
        store = CellStore(tmp_path / "cells")
        run_campaign(small_spec, cell_store=store)
        bound = store.bind(small_spec, AdcConfig.paper_default())
        victim = bound.entry_path(small_spec.cells()[5])
        victim.write_text("not json")
        report = CampaignDispatcher(
            small_spec, shards=2, cell_store=store.root, cell_chunk=1
        ).run()
        assert report.complete
        assert report.resumed_cells == small_spec.n_cells - 1
        assert [(a.start, a.stop) for a in report.attempts] == [(5, 6)]
        assert report.report.cells == single_report.cells
        # The shard rewrote the damaged entry.
        assert store.verify().clean
        assert bound.get(small_spec.cells()[5]) == single_report.cells[5]

    def test_two_campaigns_share_one_store(
        self, small_spec, single_report, tmp_path
    ):
        # Same seed and dies, one corner in common: the SS cells carry
        # the same physics identity in both grids.
        other_spec = CampaignSpec(
            **{**SMALL, "corners": (Corner.SS, Corner.FF)}
        )
        store = tmp_path / "cells"
        first = CampaignDispatcher(
            small_spec, shards=2, cell_store=store
        ).run()
        second = CampaignDispatcher(
            other_spec, shards=2, cell_store=store
        ).run()
        assert first.complete and second.complete
        assert first.report.cells == single_report.cells
        assert second.report.cells == run_campaign(other_spec).cells
        shared = sum(c.corner == "ss" for c in second.report.cells)
        assert second.resumed_cells == shared == 4
        launched = sum(a.stop - a.start for a in second.attempts)
        assert launched == other_spec.n_cells - shared
        # The first campaign's projection is untouched by the second.
        again = CampaignDispatcher(
            small_spec, shards=2, cell_store=store
        ).run()
        assert again.attempts == ()
        assert again.report.cells == single_report.cells


class TestForkedShards:
    """The shard process contract: each shard is a forked child."""

    def test_non_default_config_completes(self, tmp_path):
        spec = CampaignSpec(
            corners=(Corner.TT,),
            temperatures_c=(27.0,),
            n_dies=2,
            n_samples=512,
            seed=3,
        )
        config = AdcConfig.paper_default().with_fixed_bias()
        report = CampaignDispatcher(
            spec,
            config,
            shards=1,
            cell_store=tmp_path,
            max_retries=1,
        ).run()
        assert report.complete and not report.exhausted
        assert report.rounds == 1
        assert [(a.start, a.stop, a.exit_code) for a in report.attempts] == [
            (0, 2, 0)
        ]
        assert report.report.cells == run_campaign(spec, config=config).cells

    def test_shard_runs_its_own_pool(self, small_spec, tmp_path, single_report):
        # A forked shard may fork pool workers of its own.
        report = CampaignDispatcher(
            small_spec, shards=2, cell_store=tmp_path, workers=2
        ).run()
        assert report.complete and report.rounds == 1
        assert report.report.cells == single_report.cells

    def test_attempt_elapsed_is_per_shard(self, small_spec, tmp_path):
        report = CampaignDispatcher(
            small_spec,
            shards=2,
            cell_store=tmp_path,
            cell_chunk=1,
            poll_interval_s=0.01,
            fault_kill=(0, 1),
        ).run()
        assert report.complete
        first_round = [a for a in report.attempts if a.round == 0]
        (killed,) = [a for a in first_round if a.fault_injected]
        (survivor,) = [a for a in first_round if not a.fault_injected]
        assert killed.exit_code == -9 and survivor.exit_code == 0
        assert killed.elapsed_s < survivor.elapsed_s

    def test_failing_cells_exit_one_and_stay_a_gap(
        self, small_spec, tmp_path, monkeypatch
    ):
        def fail_from_cell_4(task, *seed):
            if task.cells[0].index >= 4:
                raise RuntimeError("injected cell failure")
            return measure_cell_chunk(task, *seed)

        monkeypatch.setattr(MEASURE, fail_from_cell_4)
        report = CampaignDispatcher(
            small_spec,
            shards=2,
            cell_store=tmp_path,
            cell_chunk=1,
            max_retries=1,
        ).run()
        assert not report.complete and report.exhausted
        assert report.missing_cells == (4, 5, 6, 7)
        assert sorted(
            (a.round, a.start, a.stop, a.exit_code) for a in report.attempts
        ) == [(0, 0, 4, 0), (0, 4, 8, 1), (1, 4, 6, 1), (1, 6, 8, 1)]

    def test_raising_shard_exits_nonzero(
        self, small_spec, tmp_path, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise RuntimeError("injected shard crash")

        monkeypatch.setattr("repro.runtime.dispatcher.run_campaign", explode)
        report = CampaignDispatcher(
            small_spec,
            shards=2,
            cell_store=tmp_path,
            max_retries=1,
            timeout_s=30.0,
        ).run()
        assert report.exhausted
        assert report.missing_cells == tuple(range(small_spec.n_cells))
        assert len(report.attempts) == 4
        assert all(a.exit_code == 1 for a in report.attempts)
        assert not any(a.timed_out for a in report.attempts)

    def test_shard_output_never_reaches_the_parent(
        self, small_spec, tmp_path, monkeypatch, capfd
    ):
        def noisy(task, *seed):
            print("shard-noise: stdout")
            print("shard-noise: stderr", file=sys.stderr)
            os.write(1, b"shard-noise: fd 1\n")
            os.write(2, b"shard-noise: fd 2\n")
            return measure_cell_chunk(task, *seed)

        monkeypatch.setattr(MEASURE, noisy)
        report = CampaignDispatcher(
            small_spec, shards=2, cell_store=tmp_path
        ).run()
        assert report.complete
        out, err = capfd.readouterr()
        assert "shard-noise" not in out
        assert "shard-noise" not in err


class TestDispatchCli:
    def test_fault_injected_cli_run(
        self, small_spec, tmp_path, monkeypatch, capsys, single_report
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_KILL_SHARD", "1:1")
        json_path = tmp_path / "dispatch.json"
        code = main(
            [
                "campaign-dispatch",
                "--corners",
                "tt,ss",
                "--temps",
                "27,125",
                "--dies",
                "2",
                "--seed",
                "99",
                "--fft-points",
                "512",
                "--shards",
                "3",
                "--cell-chunk",
                "1",
                "--poll",
                "0.01",
                "--work-dir",
                str(tmp_path / "work"),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dispatch: complete" in out
        document = json.loads(json_path.read_text())
        assert document["schema"] == "repro.dispatch-report/v2"
        assert any(a["fault_injected"] for a in document["attempts"])
        assert document["campaign"]["cells"] == [
            cell.to_record() for cell in single_report.cells
        ]
        # Without --cell-store the store lives in the work dir, and no
        # ledger is written there.
        work = tmp_path / "work"
        assert CellStore(work / "cells").stats().n_entries == 8
        assert not list(work.rglob("*.jsonl"))

    def test_exhausted_cli_exit_code(self, tmp_path, monkeypatch):
        from repro.cli import main

        # With no cells required the fault fires at the killed shard's
        # first poll, long before it can store its two cells.
        monkeypatch.setenv("REPRO_FAULT_KILL_SHARD", "0")
        code = main(
            [
                "campaign-dispatch",
                "--corners",
                "tt",
                "--temps",
                "27",
                "--dies",
                "4",
                "--seed",
                "99",
                "--fft-points",
                "512",
                "--shards",
                "2",
                "--cell-chunk",
                "1",
                "--poll",
                "0.01",
                "--max-retries",
                "0",
                "--work-dir",
                str(tmp_path / "work"),
            ]
        )
        assert code == 1

    def test_exhausted_dispatch_exports_header_only(
        self, tmp_path, monkeypatch, capsys, read_ledger, paper_config
    ):
        """An empty dispatch still writes the export it reports."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_KILL_SHARD", "0")
        export = tmp_path / "work" / "export.jsonl"
        code = main(
            [
                "campaign-dispatch",
                "--corners",
                "tt",
                "--temps",
                "27",
                "--dies",
                "2",
                "--fft-points",
                "512",
                "--shards",
                "1",
                "--cell-chunk",
                "1",
                "--max-retries",
                "0",
                "--poll",
                "0.01",
                "--work-dir",
                str(tmp_path / "work"),
                "--out-ledger",
                str(export),
            ]
        )
        assert code == 1
        assert f"wrote {export}" in capsys.readouterr().out
        header, records = read_ledger(export)
        spec = CampaignSpec(
            corners=(Corner.TT,), temperatures_c=(27.0,), n_dies=2, n_samples=512
        )
        assert header == {
            "schema": CAMPAIGN_LEDGER_SCHEMA,
            "fingerprint": spec.fingerprint(paper_config),
        }
        assert records == []

    def test_campaign_cell_range_flag(self, tmp_path, capsys, read_ledger):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--corners",
                "tt,ss",
                "--temps",
                "27,125",
                "--dies",
                "2",
                "--seed",
                "99",
                "--fft-points",
                "512",
                "--cell-range",
                "3:6",
                "--ledger",
                str(tmp_path / "range.jsonl"),
            ]
        )
        assert code == 0
        header, records = read_ledger(tmp_path / "range.jsonl")
        assert header["shard"] == {"start": 3, "stop": 6}
        assert [record["index"] for record in records] == [3, 4, 5]

    def test_cell_range_and_shard_conflict(self, capsys):
        from repro.cli import main

        code = main(
            ["campaign", "--shard", "0/2", "--cell-range", "0:2"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestMergeFsync:
    def test_out_ledger_without_fsync(
        self, small_spec, tmp_path, monkeypatch, read_ledger
    ):
        for shard in small_spec.shards(2):
            run_campaign(
                small_spec,
                cell_range=shard.cell_range,
                cell_store=tmp_path / "cells",
            )
        calls = []
        monkeypatch.setattr(os, "fsync", calls.append)
        merged = tmp_path / "merged.jsonl"
        report = CampaignDispatcher(
            small_spec,
            shards=2,
            cell_store=tmp_path / "cells",
            fsync=False,
            out_ledger=merged,
        ).run()
        assert report.complete
        assert calls == []
        _, records = read_ledger(merged)
        assert records == [cell.to_record() for cell in report.report.cells]


class TestCellStoreHygiene:
    @pytest.fixture()
    def populated(self, small_spec, tmp_path):
        store = CellStore(tmp_path / "cells")
        run_campaign(small_spec, cell_store=store)
        return store

    def test_stats_counts_and_groups(self, populated, small_spec):
        stats = populated.stats()
        assert stats.n_entries == small_spec.n_cells
        assert stats.total_bytes > 0
        assert stats.n_unreadable == 0
        assert stats.n_quarantined == 0
        assert sum(stats.campaigns.values()) == small_spec.n_cells
        assert len(stats.campaigns) == 1

    def test_stats_on_missing_root(self, tmp_path):
        stats = CellStore(tmp_path / "absent").stats()
        assert stats.n_entries == 0
        assert stats.campaigns == {}

    def test_verify_clean(self, populated):
        report = populated.verify()
        assert report.clean
        assert report.n_ok == report.n_entries

    def test_verify_reports_and_quarantines_corruption(self, populated):
        victim = populated.entry_paths()[0]
        victim.write_text("{not json")
        report = populated.verify()
        assert not report.clean
        assert report.problems[0].path == str(victim)
        assert not report.problems[0].quarantined
        fixed = populated.verify(fix=True)
        assert fixed.problems[0].quarantined
        assert not victim.exists()
        quarantined = populated.root / QUARANTINE_DIR / victim.name
        assert quarantined.read_text() == "{not json"
        # The quarantined entry is out of the sweep and the counters.
        after = populated.verify()
        assert after.clean
        assert populated.stats().n_quarantined == 1

    def test_verify_catches_key_and_metric_damage(self, populated):
        paths = populated.entry_paths()
        entry = json.loads(paths[0].read_text())
        entry["metrics"]["snr_db"] = "broken"
        paths[0].write_text(json.dumps(entry))
        other = json.loads(paths[1].read_text())
        other["key"] = "0" * 64
        paths[1].write_text(json.dumps(other))
        report = populated.verify()
        reasons = {p.path: p.reason for p in report.problems}
        assert "non-numeric" in reasons[str(paths[0])]
        assert "does not match" in reasons[str(paths[1])]

    def test_corrupt_entry_is_a_cache_miss(self, populated, small_spec):
        # A damaged entry must degrade to recomputation, not an error.
        for path in populated.entry_paths():
            path.write_text("{not json")
        report = run_campaign(small_spec, cell_store=populated)
        assert report.complete
        assert report.cached_cells == 0

    def test_deleted_entry_is_a_cache_miss(self, populated, small_spec):
        # TOCTOU: entries vanishing under a reader degrade to misses.
        for path in populated.entry_paths():
            path.unlink()
        report = run_campaign(small_spec, cell_store=populated)
        assert report.complete
        assert report.cached_cells == 0

    def test_prune_needs_a_criterion(self, populated):
        with pytest.raises(ConfigurationError, match="criterion"):
            populated.prune()
        with pytest.raises(ConfigurationError, match="now"):
            populated.prune(max_age_s=1.0)

    def test_prune_by_age_with_pinned_now(self, populated, small_spec):
        mtime = populated.entry_paths()[0].stat().st_mtime
        kept = populated.prune(max_age_s=100.0, now=mtime + 50.0)
        assert kept.removed == ()
        assert kept.n_kept == small_spec.n_cells
        dropped = populated.prune(max_age_s=10.0, now=mtime + 50.0)
        assert len(dropped.removed) == small_spec.n_cells
        assert populated.entry_paths() == []

    def test_prune_by_fingerprint_targets_one_campaign(
        self, populated, small_spec, tmp_path
    ):
        # The campaign base is config + bench settings, so a different
        # stimulus amplitude is a different campaign; a different seed
        # alone would share the base.
        other = CampaignSpec(**{**SMALL, "amplitude_fraction": 0.9})
        run_campaign(other, cell_store=populated)
        stats = populated.stats()
        assert len(stats.campaigns) == 2
        target = min(stats.campaigns)
        report = populated.prune(fingerprint=target)
        assert len(report.removed) == stats.campaigns[target]
        remaining = populated.stats()
        assert target not in remaining.campaigns
        assert len(remaining.campaigns) == 1

    def test_prune_dry_run_touches_nothing(self, populated, small_spec):
        mtime = populated.entry_paths()[0].stat().st_mtime
        report = populated.prune(
            max_age_s=10.0, now=mtime + 50.0, dry_run=True
        )
        assert len(report.removed) == small_spec.n_cells
        assert len(populated.entry_paths()) == small_spec.n_cells


class TestCellStoreCli:
    @pytest.fixture()
    def store_root(self, small_spec, tmp_path):
        run_campaign(small_spec, cell_store=tmp_path / "cells")
        return tmp_path / "cells"

    def test_stats_json(self, store_root, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "stats.json"
        code = main(
            ["cell-store", "stats", str(store_root), "--json", str(json_path)]
        )
        assert code == 0
        document = json.loads(json_path.read_text())
        assert document["schema"] == "repro.cell-store-report/v1"
        assert document["action"] == "stats"
        assert document["n_entries"] == 8

    def test_verify_exit_codes(self, store_root, capsys):
        from repro.cli import main

        assert main(["cell-store", "verify", str(store_root)]) == 0
        victim = CellStore(store_root).entry_paths()[0]
        victim.write_text("{not json")
        assert main(["cell-store", "verify", str(store_root), "--fix"]) == 1
        assert "quarantined" in capsys.readouterr().out
        assert main(["cell-store", "verify", str(store_root)]) == 0

    def test_prune_requires_criterion(self, store_root, capsys):
        from repro.cli import main

        assert main(["cell-store", "prune", str(store_root)]) == 2
        assert "criterion" not in capsys.readouterr().out

    def test_prune_by_age(self, store_root, capsys):
        from repro.cli import main

        code = main(
            [
                "cell-store",
                "prune",
                str(store_root),
                "--max-age-days",
                "30",
            ]
        )
        assert code == 0
        assert "removed 0" in capsys.readouterr().out
