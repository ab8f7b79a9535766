"""Tests for the corner-batched PVT campaign engine.

The load-bearing contracts:

* **Corner-batched equivalence** — every (corner, temperature, die)
  cell of a (points x dies) batch is bit-exact with the serial
  :class:`DynamicTestbench` on the same operating point and die seed,
  regardless of cell chunking and worker count (the chunk x worker
  matrix lives in ``tests/test_chunk_equivalence.py``).
* **Resume determinism** — a campaign interrupted mid-grid and re-run
  over the cell store it filled produces the identical sign-off report
  to a straight-through run, recomputing nothing already checkpointed.
"""

import json

import numpy as np
import pytest

from repro.core.adc_array import AdcArray
from repro.errors import ConfigurationError
from repro.evaluation.testbench import DynamicTestbench
from repro.runtime.campaign import (
    CAMPAIGN_LEDGER_SCHEMA,
    CampaignSpec,
    run_campaign,
)
from repro.signal.generators import SineGenerator
from repro.technology.corners import Corner, OperatingPointArray, pvt_grid
from repro.technology.montecarlo import ProcessSampleArray


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
def campaign_report(small_spec):
    return run_campaign(small_spec)


class TestGridPlanning:
    def test_pvt_grid_is_corner_major(self, technology):
        points = pvt_grid(
            technology=technology,
            corners=(Corner.TT, Corner.FF),
            temperatures_c=(-40.0, 125.0),
        )
        assert [(p.corner, p.temperature_c) for p in points] == [
            (Corner.TT, -40.0),
            (Corner.TT, 125.0),
            (Corner.FF, -40.0),
            (Corner.FF, 125.0),
        ]

    def test_pvt_grid_rejects_empty_axes(self, technology):
        with pytest.raises(ConfigurationError):
            pvt_grid(technology=technology, corners=())
        with pytest.raises(ConfigurationError):
            pvt_grid(technology=technology, temperatures_c=())

    def test_operating_point_array_from_grid(self, technology):
        points = OperatingPointArray.from_grid(
            technology=technology,
            corners=(Corner.SS,),
            temperatures_c=(27.0, 125.0),
        )
        assert len(points) == 2
        assert points.corners == (Corner.SS, Corner.SS)
        assert points.temperature_k.shape == (2, 1)

    def test_sample_array_from_grid_is_point_major(self, technology):
        points = pvt_grid(
            technology=technology,
            corners=(Corner.TT, Corner.SS),
            temperatures_c=(27.0,),
        )
        stacked = ProcessSampleArray.from_grid(points, [7, 8])
        assert len(stacked) == 4
        assert [s.seed for s in stacked] == [7, 8, 7, 8]
        assert [s.operating_point.corner for s in stacked] == [
            Corner.TT,
            Corner.TT,
            Corner.SS,
            Corner.SS,
        ]
        assert [s.index for s in stacked] == [0, 1, 2, 3]

    def test_cells_match_stacked_grid_population(
        self, small_spec, paper_config
    ):
        """CampaignSpec and the stacked constructors share one order."""
        points = small_spec.points(paper_config.technology)
        stacked = ProcessSampleArray.from_grid(
            points, list(small_spec.resolved_die_seeds())
        )
        assert len(stacked) == small_spec.n_cells
        for cell, sample in zip(small_spec.cells(), stacked):
            assert cell.index == sample.index
            assert cell.die_seed == sample.seed
            assert (
                cell.operating_point(paper_config.technology)
                == sample.operating_point
            )

    def test_spec_cells_cover_grid(self, small_spec):
        cells = small_spec.cells()
        assert len(cells) == small_spec.n_cells == 8
        assert [c.index for c in cells] == list(range(8))
        seeds = small_spec.resolved_die_seeds()
        assert {c.die_seed for c in cells} == set(seeds)

    def test_explicit_die_seeds(self):
        spec = CampaignSpec(**{**SMALL, "die_seeds": (1, 2)})
        assert spec.resolved_die_seeds() == (1, 2)
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "die_seeds": (1,)})

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "corners": ()})
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "n_dies": 0})
        with pytest.raises(ConfigurationError):
            CampaignSpec(**{**SMALL, "n_samples": 64})


class TestCornerBatchedEquivalence:
    """ISSUE acceptance: vectorized (points x dies) == serial testbench."""

    def test_grid_codes_bitwise_equal_per_cell(self, paper_config):
        """The raw output codes of a mixed-PVT batch match per cell."""
        points = pvt_grid(
            technology=paper_config.technology,
            corners=(Corner.TT, Corner.SS),
            temperatures_c=(-40.0, 125.0),
        )
        stacked = ProcessSampleArray.from_grid(points, [3, 11])
        array = AdcArray(paper_config, 110e6, stacked)
        tone = SineGenerator.coherent(10e6, 110e6, 256, amplitude=0.995)
        batch = array.convert(tone, 256)
        for cell, sample in enumerate(stacked):
            bench = DynamicTestbench(
                paper_config,
                n_samples=256,
                die_seed=sample.seed,
                operating_point=sample.operating_point,
            )
            solo = bench.build(110e6).convert(tone, 256)
            assert np.array_equal(batch.codes[cell], solo.codes)

    def test_campaign_metrics_match_serial_testbench(
        self, small_spec, campaign_report, paper_config
    ):
        """Every campaign cell reproduces DynamicTestbench.measure."""
        assert campaign_report.complete
        for cell in campaign_report.cells:
            plan = small_spec.cells()[cell.index]
            bench = DynamicTestbench(
                paper_config,
                n_samples=small_spec.n_samples,
                die_seed=plan.die_seed,
                operating_point=plan.operating_point(
                    paper_config.technology
                ),
            )
            solo = bench.measure(
                small_spec.conversion_rate, small_spec.input_frequency
            )
            # Codes are bit-exact; the metrics pass through a batched
            # FFT, so association order may differ by ulps.
            assert cell.sndr_db == pytest.approx(solo.sndr_db, rel=1e-9)
            assert cell.snr_db == pytest.approx(solo.snr_db, rel=1e-9)
            assert cell.sfdr_db == pytest.approx(solo.sfdr_db, rel=1e-9)
            assert cell.enob_bits == pytest.approx(solo.enob_bits, rel=1e-9)

    def test_cell_chunk_invariance(self, small_spec, campaign_report):
        for chunk in (1, 3):
            report = run_campaign(small_spec, cell_chunk=chunk)
            for a, b in zip(campaign_report.cells, report.cells):
                assert b.sndr_db == pytest.approx(a.sndr_db, rel=1e-12)

    def test_worker_invariance(self, small_spec, campaign_report):
        report = run_campaign(small_spec, cell_chunk=2, workers=2)
        for a, b in zip(campaign_report.cells, report.cells):
            assert b.sndr_db == pytest.approx(a.sndr_db, rel=1e-12)

    def test_engine_validation(self, small_spec):
        """One execution path: no engine to pick, only a chunk size."""
        with pytest.raises(TypeError, match="engine"):
            run_campaign(small_spec, engine="pool")
        with pytest.raises(ConfigurationError):
            run_campaign(small_spec, cell_chunk=0)


class TestLedgerResume:
    """Interrupt mid-grid, re-run over the store, identical report."""

    @staticmethod
    def _tables(report):
        """The deterministic slice of a report (no wall times)."""
        return (
            [c for c in report.cells],
            report.corner_rows(),
            report.signoff().render(),
        )

    def test_resume_after_interrupt_is_identical(
        self, small_spec, campaign_report, tmp_path
    ):
        store = tmp_path / "cells"

        class Interrupt(Exception):
            pass

        seen = 0

        def bomb(update):
            nonlocal seen
            seen += 1
            if seen == 2:  # two chunks checkpointed, then the "kill"
                raise Interrupt()

        with pytest.raises(Interrupt):
            run_campaign(
                small_spec,
                cell_chunk=2,
                cell_store=store,
                progress=bomb,
            )
        checkpointed = len(list(store.rglob("*.json")))
        assert 0 < checkpointed < small_spec.n_cells

        resumed = run_campaign(
            small_spec,
            cell_chunk=3,  # different chunking on purpose
            cell_store=store,
        )
        assert resumed.cached_cells == checkpointed
        assert resumed.complete
        assert self._tables(resumed) == self._tables(campaign_report)
        # Only the remaining cells were dispatched...
        assert resumed.batch.n_tasks == small_spec.n_cells - checkpointed
        # ...and the store now holds the full grid for the next re-run.
        fully = run_campaign(small_spec, cell_chunk=1, cell_store=store)
        assert fully.cached_cells == small_spec.n_cells
        assert fully.batch.n_tasks == 0
        assert self._tables(fully) == self._tables(campaign_report)

    def test_partial_resume_merges_by_grid_index(self, small_spec, tmp_path):
        """A re-run merges by grid index, not task position."""
        store = tmp_path / "cells"

        class Interrupt(Exception):
            pass

        def bomb(update):
            if update.done == 3:  # three cells checkpointed, then die
                raise Interrupt()

        with pytest.raises(Interrupt):
            run_campaign(small_spec, cell_chunk=1, cell_store=store, progress=bomb)
        resumed = run_campaign(small_spec, cell_chunk=1, cell_store=store)
        assert resumed.cached_cells == 3
        assert resumed.batch.n_tasks == small_spec.n_cells - 3
        assert resumed.complete
        assert [c.index for c in resumed.cells] == list(
            range(small_spec.n_cells)
        )
        straight = run_campaign(small_spec, cell_chunk=1)
        assert self._tables(resumed) == self._tables(straight)
        # Fresh outcomes carry grid indices and die seeds.
        fresh_indices = {o.index for o in resumed.batch.outcomes}
        assert fresh_indices == set(range(3, small_spec.n_cells))
        assert all(o.seed is not None for o in resumed.batch.outcomes)

    def test_fresh_run_truncates_stale_ledger(
        self, small_spec, paper_config, read_ledger, tmp_path
    ):
        """Each run replaces the export whole, never appends to it."""
        ledger = tmp_path / "run.jsonl"
        run_campaign(small_spec, ledger_path=ledger)
        report = run_campaign(small_spec, ledger_path=ledger)
        header, records = read_ledger(ledger)
        assert header == {
            "schema": CAMPAIGN_LEDGER_SCHEMA,
            "fingerprint": small_spec.fingerprint(paper_config),
        }
        assert records == [cell.to_record() for cell in report.cells]
        assert [path.name for path in tmp_path.iterdir()] == ["run.jsonl"]


class TestLedgerValidation:
    """The export holds exactly the report: header, range and records."""

    def test_shard_header_roundtrip(
        self, small_spec, paper_config, read_ledger, tmp_path
    ):
        ledger = tmp_path / "nested" / "shard.jsonl"
        report = run_campaign(small_spec, cell_range=(0, 4), ledger_path=ledger)
        header, records = read_ledger(ledger)
        assert header["shard"] == {"start": 0, "stop": 4}
        assert header["fingerprint"] == small_spec.fingerprint(paper_config)
        assert [record["index"] for record in records] == [0, 1, 2, 3]
        assert records == [cell.to_record() for cell in report.cells]


class TestReport:
    def test_report_document(self, campaign_report, small_spec):
        document = json.loads(campaign_report.to_json())
        assert "engine" not in document
        assert document["n_cells"] == small_spec.n_cells
        assert len(document["cells"]) == small_spec.n_cells
        assert set(document["signoff"]) == {
            "SNR (f_in=10MHz)",
            "SNDR (f_in=10MHz)",
            "SFDR (f_in=10MHz)",
            "ENOB",
        }
        sndr = document["signoff"]["SNDR (f_in=10MHz)"]
        assert sndr["min"] <= sndr["typ"] <= sndr["max"]

    def test_render_names_worst_cell(self, campaign_report):
        text = campaign_report.render()
        assert "worst cell:" in text
        assert "Electrical characteristics" in text

    def test_signoff_ranges_cover_cells(self, campaign_report):
        sndrs = [c.sndr_db for c in campaign_report.cells]
        by_name = {
            line.parameter: line
            for line in campaign_report.signoff().lines
        }
        line = by_name["SNDR (f_in=10MHz)"]
        assert line.minimum == pytest.approx(min(sndrs))
        assert line.maximum == pytest.approx(max(sndrs))


class TestCampaignCli:
    def test_parser_defaults(self):
        from repro.cli import build_campaign_parser

        args = build_campaign_parser().parse_args([])
        assert args.corners == "all"
        assert args.dies == 1
        assert args.ledger is None and args.cell_store is None

    def test_cli_run_and_resume(self, capsys, read_ledger, tmp_path):
        from repro.cli import main

        ledger = tmp_path / "run.jsonl"
        out = tmp_path / "campaign.json"
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
            "--ledger",
            str(ledger),
            "--cell-store",
            str(tmp_path / "cells"),
        ]
        assert main(base + ["--json", str(out)]) == 0
        first = capsys.readouterr().out
        assert "PVT campaign" in first
        document = json.loads(out.read_text())
        assert document["n_cells"] == 4
        assert "resumed_cells" not in document
        assert read_ledger(ledger)[1] == document["cells"]
        # Re-running the command over the same store is the resume.
        ledger.unlink()
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "4 cell(s) from cell store" in second
        assert read_ledger(ledger)[1] == document["cells"]

    def test_cli_resume_requires_ledger(self, capsys):
        """There is no --resume, with or without --ledger: it exits 2."""
        from repro.cli import main

        for extra in ([], ["--ledger", "x.jsonl"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["campaign", *extra, "--resume"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --resume" in err

    def test_cli_rejects_unknown_corner(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--corners", "zz"]) == 2
        assert "unknown corner" in capsys.readouterr().err
