"""Monte Carlo yield analysis on the batch runtime.

Dies are grouped into chunks and each chunk is one batch task
(:func:`measure_die_chunk`): one :class:`~repro.core.adc_array.AdcArray`
converts the chunk, then batched FFTs and batched code-density
histograms produce the per-die metrics.  With ``workers > 1`` the pool
fans the chunks out across processes.

Per-die noise streams are derived from the die seed alone
(:mod:`repro.streams`), so a die's output codes are bit-exact with a
lone :class:`~repro.core.adc.PipelineAdc` of the same die, for any
worker count and die chunk; the derived SNDR/ENOB metrics agree to
floating-point association in the batched FFT (documented tolerance
~1e-9 dB).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.calibration import GainCalibrationArray
from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.evaluation.reporting import format_table
from repro.profiling import profile_step
from repro.runtime.batch import (
    BatchResult,
    BatchRunner,
    ProgressCallback,
    flatten_chunk_batch,
    json_safe,
)
from repro.runtime.seeding import population_generator
from repro.signal.generators import SineGenerator
from repro.signal.linearity import ramp_linearity
from repro.signal.spectrum import SpectrumAnalyzer
from repro.technology.montecarlo import MonteCarloSampler, ProcessSample

#: Default ramp over-range (fraction of full scale) and oversampling,
#: matching the legacy yield example.
_RAMP_OVERDRIVE = 1.02

#: Default die-chunk size when the pool does not split the dies more
#: finely.  The (dies, samples) tone block grows peak memory with the
#: chunk (16 calibrated dies on 2 workers: 58.1 / 59.2 / 62.3 MB peak
#: RSS at chunks 1 / 2 / 8) while wall time stays flat, because the
#: long calibration and ramp records convert one die row at a time at
#: any chunk size.
_DEFAULT_DIE_CHUNK = 2


@dataclass(frozen=True)
class YieldSpec:
    """Datasheet spec a die is screened against.

    Attributes:
        min_enob: minimum effective number of bits.
        max_dnl_lsb: maximum |DNL| in LSB.
        max_inl_lsb: maximum |INL| in LSB; None skips the INL screen
            (the default, matching the legacy spec shape).
        conversion_rate: sample rate the screen runs at [Hz].
        input_frequency: test-tone frequency [Hz].
    """

    min_enob: float = 10.0
    max_dnl_lsb: float = 1.5
    max_inl_lsb: float | None = None
    conversion_rate: float = 110e6
    input_frequency: float = 10e6

    def __post_init__(self) -> None:
        if self.conversion_rate <= 0:
            raise ConfigurationError("conversion_rate must be positive")
        if self.input_frequency <= 0:
            raise ConfigurationError("input_frequency must be positive")

    def passes(
        self,
        enob_bits: float,
        dnl_peak_lsb: float,
        inl_peak_lsb: float | None = None,
    ) -> bool:
        if self.max_inl_lsb is not None and inl_peak_lsb is not None:
            if inl_peak_lsb > self.max_inl_lsb:
                return False
        return enob_bits >= self.min_enob and dnl_peak_lsb <= self.max_dnl_lsb


@dataclass(frozen=True)
class DieMetrics:
    """Measured figures of merit for one die.

    Attributes:
        index: die position in the batch.
        corner: process corner name ("tt", "ff", ...).
        temperature_c: junction temperature [Celsius].
        supply_scale: supply multiplier drawn for the die.
        cap_scale: absolute capacitance multiplier drawn for the die.
        seed: the die's local-mismatch seed (replays the die alone).
        sndr_db: measured SNDR [dB].
        enob_bits: effective number of bits.
        dnl_peak_lsb: worst-case |DNL| [LSB].
        inl_peak_lsb: worst-case |INL| [LSB].
        passed: verdict against the screening spec.
        calibrated: whether the screened codes went through foreground
            gain calibration.
    """

    index: int
    corner: str
    temperature_c: float
    supply_scale: float
    cap_scale: float
    seed: int
    sndr_db: float
    enob_bits: float
    dnl_peak_lsb: float
    inl_peak_lsb: float
    passed: bool
    calibrated: bool = False

    def to_metrics(self) -> dict[str, float]:
        """Numeric summary fields (feeds ``BatchResult.summary``)."""
        return {
            "sndr_db": self.sndr_db,
            "enob_bits": self.enob_bits,
            "dnl_peak_lsb": self.dnl_peak_lsb,
            "inl_peak_lsb": self.inl_peak_lsb,
        }


def _die_metrics(
    die: ProcessSample,
    spec: YieldSpec,
    spectrum,
    linearity,
    calibrated: bool = False,
) -> DieMetrics:
    """Assemble one die's record from its measured spectrum and ramp."""
    dnl_peak = max(abs(linearity.dnl_min), abs(linearity.dnl_max))
    inl_peak = max(abs(linearity.inl_min), abs(linearity.inl_max))
    point = die.operating_point
    return DieMetrics(
        index=die.index,
        corner=point.corner.value,
        temperature_c=point.temperature_c,
        supply_scale=point.supply_scale,
        cap_scale=point.cap_scale,
        seed=die.seed,
        sndr_db=spectrum.sndr_db,
        enob_bits=spectrum.enob_bits,
        dnl_peak_lsb=dnl_peak,
        inl_peak_lsb=inl_peak,
        passed=spec.passes(spectrum.enob_bits, dnl_peak, inl_peak),
        calibrated=calibrated,
    )


@dataclass(frozen=True)
class DieChunkTask:
    """Everything one worker needs to measure a chunk of dies at once.

    Attributes:
        samples: the chunk's die realizations, in batch order.
        config: converter configuration.
        spec: measurement conditions and screen limits.
        n_fft: coherent capture length for the spectral measurement.
        ramp_points_per_code: ramp samples per output code.
        calibrate: foreground-calibrate the whole chunk in one batched
            capture and screen the calibrated reconstruction.
        calibration_samples_per_code: calibration-ramp density when
            ``calibrate`` is set.
        precision: ``"exact"`` (bit-exact per die with a lone
            :class:`~repro.core.adc.PipelineAdc`) or ``"fast"`` (float32
            + fused draws, statistically gated).
    """

    samples: tuple[ProcessSample, ...]
    config: AdcConfig
    spec: YieldSpec = field(default_factory=YieldSpec)
    n_fft: int = 4096
    ramp_points_per_code: int = 16
    calibrate: bool = False
    calibration_samples_per_code: int = 8
    precision: str = "exact"

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigurationError("die chunk must not be empty")
        if self.precision not in ("exact", "fast"):
            raise ConfigurationError(
                f"precision must be 'exact' or 'fast', got '{self.precision}'"
            )
        if self.n_fft <= 0:
            raise ConfigurationError("n_fft must be positive")
        if self.ramp_points_per_code < 16:
            # histogram_linearity needs >= 16 hits per code for a
            # defined DNL; fail at task construction, not per die.
            raise ConfigurationError(
                "ramp_points_per_code must be >= 16 for a valid "
                f"code-density histogram, got {self.ramp_points_per_code}"
            )
        if self.calibrate and self.calibration_samples_per_code < 4:
            raise ConfigurationError(
                "calibration_samples_per_code must be >= 4, got "
                f"{self.calibration_samples_per_code}"
            )


@profile_step("task", "measure-die-chunk")
def measure_die_chunk(task: DieChunkTask) -> tuple[DieMetrics, ...]:
    """Measure a chunk of dies in one die-batched pass.

    One :class:`~repro.core.adc_array.AdcArray` converts the whole
    chunk — tone capture and linearity ramp — then batched FFTs and
    batched code-density histograms produce the per-die metrics.  Each
    die's output codes are bit-exact with a lone
    :class:`~repro.core.adc.PipelineAdc` of the same die, because every
    die draws from its own seed-derived noise streams regardless of the
    chunking.  Module-level and dependent only on ``task``, so it can
    run in any worker process of any batch partition.  With
    ``task.calibrate`` every die is foreground-calibrated first
    (:class:`~repro.core.calibration.GainCalibrationArray`, die-for-die
    identical with :class:`~repro.core.calibration.GainCalibration`) and
    the screens measure the calibrated reconstruction.
    """
    spec = task.spec
    adc = AdcArray(
        task.config,
        spec.conversion_rate,
        task.samples,
        precision=task.precision,
    )
    calibration = None
    if task.calibrate:
        calibration = GainCalibrationArray(
            adc, samples_per_code=task.calibration_samples_per_code
        )
        calibration.calibrate()
    tone = SineGenerator.coherent(
        spec.input_frequency, spec.conversion_rate, task.n_fft, amplitude=0.995
    )
    capture = adc.convert(tone, task.n_fft)
    tone_codes = (
        calibration.reconstruct(capture.stage_codes, capture.flash_codes)
        if calibration
        else capture.codes
    )
    spectra = SpectrumAnalyzer().analyze_batch(tone_codes, spec.conversion_rate)
    n_codes = task.config.n_codes
    ramp = np.linspace(
        -_RAMP_OVERDRIVE, _RAMP_OVERDRIVE, n_codes * task.ramp_points_per_code
    )
    # The long ramp record is converted die by die in either tier: at
    # 16+ samples per code the (dies, samples) working set would thrash
    # the cache, while the per-die rows are bit-exact with the blocked
    # path (each die draws only from its own seed-derived stream, and
    # the stage arithmetic is elementwise).  The code-density
    # histograms are then built in one batched bincount pass.
    fast = task.precision == "fast"

    def ramp_row(index: int, die: PipelineAdc) -> np.ndarray:
        result = die.convert_samples(ramp, fast=fast)
        if calibration is None:
            return result.codes
        return calibration.reconstruct_die(
            index, result.stage_codes, result.flash_codes
        )

    ramp_codes = np.stack(
        [ramp_row(index, die) for index, die in enumerate(adc.dies)]
    )
    linearities = ramp_linearity(ramp_codes, n_codes)
    return tuple(
        _die_metrics(die, spec, spectrum, linearity, calibrated=task.calibrate)
        for die, spectrum, linearity in zip(task.samples, spectra, linearities)
    )


@dataclass(frozen=True)
class YieldReport:
    """A Monte Carlo yield run: per-die metrics, spec verdicts, failures.

    Attributes:
        batch: the underlying batch result (per-die outcomes, timing).
        spec: the screen the dies were measured against.
        calibrated: whether the dies were foreground-calibrated before
            screening (extension beyond the paper).
        precision: the tier the dies were measured at (``"fast"`` is
            statistically — not bitwise — equivalent to ``"exact"``).
    """

    batch: BatchResult
    spec: YieldSpec
    calibrated: bool = False
    precision: str = "exact"

    @property
    def dies(self) -> list[DieMetrics]:
        """Successfully measured dies, in batch order."""
        return self.batch.values

    @property
    def n_dies(self) -> int:
        return self.batch.n_tasks

    @property
    def n_pass(self) -> int:
        return sum(1 for die in self.dies if die.passed)

    @property
    def yield_fraction(self) -> float:
        """Pass fraction over all *dispatched* dies (crashes count as fails)."""
        return self.n_pass / self.n_dies if self.n_dies else 0.0

    def enobs(self) -> np.ndarray:
        return np.array([die.enob_bits for die in self.dies])

    def dnl_peaks(self) -> np.ndarray:
        return np.array([die.dnl_peak_lsb for die in self.dies])

    def inl_peaks(self) -> np.ndarray:
        return np.array([die.inl_peak_lsb for die in self.dies])

    def render(self) -> str:
        """Full textual report: per-die table, distributions, yield."""
        rows = [
            (
                die.index,
                die.corner.upper(),
                f"{die.temperature_c:.0f}",
                f"{die.cap_scale:.2f}",
                f"{die.sndr_db:.1f}",
                f"{die.enob_bits:.2f}",
                f"{die.dnl_peak_lsb:.2f}",
                f"{die.inl_peak_lsb:.2f}",
                "pass" if die.passed else "FAIL",
            )
            for die in self.dies
        ]
        reconstruction = "calibrated" if self.calibrated else "uncalibrated"
        lines = [
            format_table(
                (
                    "die",
                    "corner",
                    "T [C]",
                    "C scale",
                    "SNDR [dB]",
                    "ENOB",
                    "|DNL| [LSB]",
                    "|INL| [LSB]",
                    "spec",
                ),
                rows,
                title=(
                    f"--- {self.n_dies} Monte Carlo dies at "
                    f"{self.spec.conversion_rate / 1e6:.0f} MS/s "
                    f"({reconstruction}) ---"
                ),
            ),
            "",
        ]
        enobs = self.enobs()
        dnls = self.dnl_peaks()
        inls = self.inl_peaks()
        if enobs.size:
            lines.append(
                f"ENOB: median {np.median(enobs):.2f}, "
                f"min {enobs.min():.2f}, max {enobs.max():.2f}"
            )
            lines.append(
                f"|DNL|: median {np.median(dnls):.2f} LSB, "
                f"worst {dnls.max():.2f} LSB"
            )
            lines.append(
                f"|INL|: median {np.median(inls):.2f} LSB, "
                f"worst {inls.max():.2f} LSB"
            )
        limits = (
            f"yield against ENOB >= {self.spec.min_enob} and "
            f"|DNL| <= {self.spec.max_dnl_lsb} LSB"
        )
        if self.spec.max_inl_lsb is not None:
            limits += f" and |INL| <= {self.spec.max_inl_lsb} LSB"
        lines.append(
            f"{limits}: {self.n_pass}/{self.n_dies} "
            f"({100 * self.yield_fraction:.0f}%)"
        )
        for failure in self.batch.failures:
            lines.append(
                f"die {failure.index} CRASHED: "
                f"{failure.error_type}: {failure.error}"
            )
        calibration = " foreground-calibrated," if self.calibrated else ""
        tier = " fast-precision," if self.precision == "fast" else ""
        lines.append(
            f"batch:{calibration}{tier} "
            f"{self.batch.workers} worker(s), "
            f"chunk size {self.batch.chunk_size}, {self.batch.elapsed_s:.2f} s"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        document = self.batch.to_dict()
        document["calibrated"] = self.calibrated
        document["precision"] = self.precision
        document["spec"] = json_safe(self.spec)
        document["yield"] = {
            "n_dies": self.n_dies,
            "n_pass": self.n_pass,
            "n_crashed": len(self.batch.failures),
            "fraction": self.yield_fraction,
        }
        return document

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def default_sampler(config: AdcConfig) -> MonteCarloSampler:
    """The yield-example sampler: industrial temp range, +-5% supply."""
    return MonteCarloSampler(
        technology=config.technology,
        temperature_range_c=(-40.0, 85.0),
        supply_tolerance=0.05,
    )


def _chunk_dies(
    dies: list[ProcessSample], die_chunk: int
) -> list[tuple[ProcessSample, ...]]:
    """Consecutive die chunks, one batch task each."""
    return [
        tuple(dies[low : low + die_chunk])
        for low in range(0, len(dies), die_chunk)
    ]


def run_yield_analysis(
    n_dies: int = 24,
    seed: int = 2026,
    config: AdcConfig | None = None,
    spec: YieldSpec | None = None,
    sampler: MonteCarloSampler | None = None,
    n_fft: int = 4096,
    ramp_points_per_code: int = 16,
    seed_strategy: str = "stream",
    calibrate: bool = False,
    calibration_samples_per_code: int = 8,
    precision: str = "exact",
    die_chunk: int | None = None,
    workers: int | None = 1,
    progress: ProgressCallback | None = None,
) -> YieldReport:
    """Run a Monte Carlo yield analysis across the batch runtime.

    Args:
        n_dies: number of die realizations.
        seed: master seed for the PVT/mismatch draws; a given
            ``(seed, n_dies)`` pair reproduces the identical die set
            regardless of ``workers`` and ``die_chunk``.
        config: converter configuration (paper default when omitted).
        spec: screening spec and measurement conditions.
        sampler: die sampler (industrial-range default when omitted).
        n_fft: coherent capture length per die.
        ramp_points_per_code: ramp density for the DNL screen.
        calibrate: foreground-calibrate every die first and screen the
            calibrated reconstruction.
        calibration_samples_per_code: calibration-ramp density.
        precision: ``"exact"`` (default, bit-exact per die) or
            ``"fast"`` — the float32 + fused-draw tier, statistically
            equivalent within the documented ENOB/SNDR tolerance.
        seed_strategy: ``"stream"`` draws dies from one sequential
            generator (bit-compatible with the legacy serial loops);
            ``"spawn"`` derives each die from its own
            ``SeedSequence.spawn`` child, so die *i* is identical no
            matter how large the batch is (sharding-stable).
        die_chunk: dies per batch task (None splits evenly across the
            workers, bounded by a memory-friendly default); 1 makes
            every die its own task, the failure-isolation unit.
        workers: worker processes (1 = serial, None = all CPUs); the
            pool fans out die chunks.
        progress: progress callback (per die chunk).
    """
    config = config or AdcConfig.paper_default()
    spec = spec or YieldSpec()
    sampler = sampler or default_sampler(config)
    if seed_strategy == "stream":
        dies = sampler.sample(n_dies, population_generator(seed))
    elif seed_strategy == "spawn":
        dies = sampler.sample_spawned(n_dies, seed)
    else:
        raise ConfigurationError(
            f"seed_strategy must be 'stream' or 'spawn', got '{seed_strategy}'"
        )
    if die_chunk is not None and die_chunk < 1:
        raise ConfigurationError(
            f"die_chunk must be >= 1 or None, got {die_chunk}"
        )
    runner = BatchRunner(workers=workers, progress=progress)
    if die_chunk is None:
        per_worker = -(-n_dies // runner.resolve_workers(n_dies))
        die_chunk = max(1, min(per_worker, _DEFAULT_DIE_CHUNK))
    chunks = _chunk_dies(dies, die_chunk)
    tasks = [
        DieChunkTask(
            samples=chunk,
            config=config,
            spec=spec,
            n_fft=n_fft,
            ramp_points_per_code=ramp_points_per_code,
            calibrate=calibrate,
            calibration_samples_per_code=calibration_samples_per_code,
            precision=precision,
        )
        for chunk in chunks
    ]
    batch = flatten_chunk_batch(
        runner.run(measure_die_chunk, tasks),
        chunks,
        index_of=lambda die: die.index,
        seed_of=lambda die: die.seed,
    )
    return YieldReport(
        batch=batch,
        spec=spec,
        calibrated=calibrate,
        precision=precision,
    )
