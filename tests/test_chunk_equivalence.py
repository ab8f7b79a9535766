"""The chunk path against the per-die reference objects.

Every yield die and campaign cell runs through a chunk task
(:func:`~repro.runtime.montecarlo.measure_die_chunk`,
:func:`~repro.runtime.campaign.measure_cell_chunk`).  These tests pin
those rows to references built one die at a time from the objects the
chunk path must reproduce:

* a yield die: :class:`PipelineAdc` (+ :class:`GainCalibration` when
  calibrated), :class:`SpectrumAnalyzer` on the tone capture and
  :func:`ramp_linearity` on the linearity ramp;
* a campaign cell: :meth:`DynamicTestbench.measure` on the cell's
  operating point and die seed.

Codes are bit-exact, so the linearity figures must be equal; spectral
figures pass through a batched FFT, so they agree to ~1e-9 relative.
"""

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.calibration import GainCalibration, GainCalibrationArray
from repro.errors import CalibrationError
from repro.evaluation.testbench import DynamicTestbench
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.montecarlo import (
    YieldSpec,
    default_sampler,
    run_yield_analysis,
)
from repro.runtime.seeding import population_generator
from repro.signal.generators import SineGenerator
from repro.signal.linearity import ramp_linearity
from repro.signal.spectrum import SpectrumAnalyzer
from repro.technology.corners import Corner

#: The yield screen under test (small enough for tier-1).
YIELD = dict(n_dies=3, seed=77, n_fft=512, calibration_samples_per_code=4)

#: The campaign grid under test: 2 corners x 2 temperatures x 2 dies.
CAMPAIGN = CampaignSpec(
    corners=(Corner.TT, Corner.SS),
    temperatures_c=(27.0, 125.0),
    n_dies=2,
    seed=99,
    n_samples=512,
)

#: Chunk sizes: one item per task, a ragged split, the default.
CHUNKS = (1, 3, None)


def _reference_die(config, die, calibrate: bool) -> tuple:
    """One die measured alone, the way the legacy serial loop did."""
    spec = YieldSpec()
    adc = PipelineAdc(
        config,
        spec.conversion_rate,
        operating_point=die.operating_point,
        seed=die.seed,
    )
    calibration = None
    if calibrate:
        calibration = GainCalibration(
            adc, samples_per_code=YIELD["calibration_samples_per_code"]
        )
        calibration.calibrate()

    def codes(result):
        if calibration is None:
            return result.codes
        return calibration.reconstruct(result.stage_codes, result.flash_codes)

    n_fft = YIELD["n_fft"]
    tone = SineGenerator.coherent(
        spec.input_frequency, spec.conversion_rate, n_fft, amplitude=0.995
    )
    spectrum = SpectrumAnalyzer().analyze(
        codes(adc.convert(tone, n_fft)), spec.conversion_rate
    )
    ramp = np.linspace(-1.02, 1.02, config.n_codes * 16)
    linearity = ramp_linearity(codes(adc.convert_samples(ramp)), config.n_codes)
    return (
        die.index,
        die.seed,
        spectrum.sndr_db,
        spectrum.enob_bits,
        max(abs(linearity.dnl_min), abs(linearity.dnl_max)),
        max(abs(linearity.inl_min), abs(linearity.inl_max)),
    )


@pytest.fixture(scope="module", params=(False, True), ids=("raw", "cal"))
def die_reference(request, paper_config):
    calibrate = request.param
    dies = default_sampler(paper_config).sample(
        YIELD["n_dies"], population_generator(YIELD["seed"])
    )
    return calibrate, [_reference_die(paper_config, die, calibrate) for die in dies]


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("die_chunk", CHUNKS)
def test_yield_rows_match_per_die_reference(
    paper_config, die_reference, die_chunk, workers
):
    calibrate, reference = die_reference
    report = run_yield_analysis(
        config=paper_config,
        calibrate=calibrate,
        die_chunk=die_chunk,
        workers=workers,
        **YIELD,
    )
    assert report.calibrated is calibrate
    assert len(report.dies) == len(reference)
    for die, expected in zip(report.dies, reference):
        index, seed, sndr, enob, dnl, inl = expected
        assert (die.index, die.seed, die.calibrated) == (index, seed, calibrate)
        assert die.sndr_db == pytest.approx(sndr, rel=1e-9)
        assert die.enob_bits == pytest.approx(enob, rel=1e-9)
        assert (die.dnl_peak_lsb, die.inl_peak_lsb) == (dnl, inl)


@pytest.fixture(scope="module")
def cell_reference(paper_config):
    rows = []
    for cell in CAMPAIGN.cells():
        metrics = DynamicTestbench(
            paper_config,
            n_samples=CAMPAIGN.n_samples,
            amplitude_fraction=CAMPAIGN.amplitude_fraction,
            die_seed=cell.die_seed,
            operating_point=cell.operating_point(paper_config.technology),
        ).measure(CAMPAIGN.conversion_rate, CAMPAIGN.input_frequency)
        rows.append((cell, metrics))
    return rows


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("cell_chunk", CHUNKS)
def test_campaign_cells_match_testbench_reference(
    paper_config, cell_reference, cell_chunk, workers
):
    report = run_campaign(
        CAMPAIGN, config=paper_config, cell_chunk=cell_chunk, workers=workers
    )
    assert report.complete
    assert len(report.cells) == len(cell_reference)
    for measured, (cell, expected) in zip(report.cells, cell_reference):
        assert (measured.index, measured.seed) == (cell.index, cell.die_seed)
        assert (measured.corner, measured.temperature_c) == (
            cell.corner.value,
            cell.temperature_c,
        )
        for name in ("snr_db", "sndr_db", "sfdr_db", "enob_bits"):
            assert getattr(measured, name) == pytest.approx(
                getattr(expected, name), rel=1e-9
            ), name


def test_rank_deficient_die_is_named(paper_config, monkeypatch):
    """A die whose capture cannot fit every weight fails by name."""
    dies = default_sampler(paper_config).sample(2, np.random.default_rng(3))
    array = AdcArray(paper_config, 110e6, dies)
    broken = array.dies[1]
    capture = broken.convert_samples

    def stuck_first_stage(*args, **kwargs):
        result = capture(*args, **kwargs)
        result.stage_codes[:, 0] = 0  # stage 1 never decides: rank drops
        return result

    monkeypatch.setattr(broken, "convert_samples", stuck_first_stage)
    calibration = GainCalibrationArray(array, samples_per_code=4)
    with pytest.raises(CalibrationError, match="rank-deficient on die 1"):
        calibration.calibrate()
