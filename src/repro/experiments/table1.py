"""Table I — key data of the converter, plus the Fig. 7 area budget.

The full characterization run: dynamic metrics at the nominal point
(110 MS/s, 10 MHz, 2 V_pp), static linearity by code density, power,
area, and the resulting eq.-(2) figure of merit.
"""

from __future__ import annotations

from repro.core.config import AdcConfig
from repro.core.floorplan import Floorplan
from repro.evaluation.fom import paper_figure_of_merit
from repro.evaluation.testbench import (
    DynamicTestbench,
    PowerTestbench,
    StaticTestbench,
)
from repro.experiments.registry import ClaimCheck, ExperimentResult, register

#: Paper Table I values.
PAPER = {
    "snr_db": 67.1,
    "sndr_db": 64.2,
    "sfdr_db": 69.4,
    "enob_bits": 10.4,
    "power_w": 97e-3,
    "area_m2": 0.86e-6,
    "dnl_lsb": 1.2,
    "inl_lsb_neg": -1.5,
    "inl_lsb_pos": 1.0,
}


@register("table1")
def run(quick: bool = False) -> ExperimentResult:
    """Characterize the nominal die and compare against Table I."""
    config = AdcConfig.paper_default()
    dynamic = DynamicTestbench(
        config, n_samples=4096 if quick else 8192, die_seed=1
    )
    metrics = dynamic.measure(110e6, 10e6)
    static = StaticTestbench(
        config, samples_per_code=20 if quick else 40, die_seed=1
    )
    linearity = static.measure(110e6)
    power = PowerTestbench(config).measure(110e6).total
    area = Floorplan(config).total_area
    fom = paper_figure_of_merit(metrics.enob_bits, 110e6, area, power)
    paper_fom = paper_figure_of_merit(
        PAPER["enob_bits"], 110e6, PAPER["area_m2"], PAPER["power_w"]
    )

    rows = (
        ("Technology", "0.18um digital CMOS", "0.18um digital CMOS (model)"),
        (
            "Nominal supply voltage",
            "1.8 V",
            f"{config.technology.supply_voltage:.1f} V",
        ),
        ("Resolution", "12 bit", f"{config.resolution} bit"),
        ("Full-scale analog input", "2 Vp-p", f"{2 * config.vref:.0f} Vp-p"),
        ("Area", "0.86 mm^2", f"{area * 1e6:.2f} mm^2"),
        ("Analog power consumption", "97 mW", f"{power * 1e3:.1f} mW"),
        (
            "DNL",
            "+-1.2 LSB",
            f"{linearity.dnl_min:+.2f}/{linearity.dnl_max:+.2f} LSB",
        ),
        (
            "INL",
            "-1.5/+1 LSB",
            f"{linearity.inl_min:+.2f}/{linearity.inl_max:+.2f} LSB",
        ),
        ("SNR (fin=10MHz)", "67.1 dB", f"{metrics.snr_db:.1f} dB"),
        ("SNDR (fin=10MHz)", "64.2 dB", f"{metrics.sndr_db:.1f} dB"),
        ("SFDR (fin=10MHz)", "69.4 dB", f"{metrics.sfdr_db:.1f} dB"),
        ("ENOB (fin=10MHz)", "10.4 bit", f"{metrics.enob_bits:.2f} bit"),
        ("FM (eq. 2)", f"{paper_fom:.0f}", f"{fom:.0f}"),
    )

    claims = (
        ClaimCheck(
            claim="SNR 67.1 dB at 110 MS/s, 10 MHz input",
            passed=abs(metrics.snr_db - PAPER["snr_db"]) <= 1.5,
            detail=f"measured {metrics.snr_db:.1f} dB",
        ),
        ClaimCheck(
            claim="SNDR 64.2 dB",
            passed=abs(metrics.sndr_db - PAPER["sndr_db"]) <= 1.5,
            detail=f"measured {metrics.sndr_db:.1f} dB",
        ),
        ClaimCheck(
            claim="SFDR 69.4 dB",
            passed=abs(metrics.sfdr_db - PAPER["sfdr_db"]) <= 3.0,
            detail=f"measured {metrics.sfdr_db:.1f} dB",
        ),
        ClaimCheck(
            claim="ENOB 10.4 bit",
            passed=abs(metrics.enob_bits - PAPER["enob_bits"]) <= 0.3,
            detail=f"measured {metrics.enob_bits:.2f} bit",
        ),
        ClaimCheck(
            claim="analog power 97 mW at 110 MS/s",
            passed=abs(power - PAPER["power_w"]) <= 0.06 * PAPER["power_w"],
            detail=f"measured {power * 1e3:.1f} mW",
        ),
        ClaimCheck(
            claim="silicon area 0.86 mm^2",
            passed=abs(area - PAPER["area_m2"]) <= 0.10 * PAPER["area_m2"],
            detail=f"modeled {area * 1e6:.2f} mm^2",
        ),
        ClaimCheck(
            claim="DNL within +-1.2 LSB, no missing codes, monotonic",
            passed=(
                max(abs(linearity.dnl_min), abs(linearity.dnl_max)) <= 1.3
                and linearity.monotonic
            ),
            detail=linearity.summary(),
        ),
        ClaimCheck(
            claim="INL near -1.5/+1 LSB",
            passed=(
                -2.0 <= linearity.inl_min <= -0.5
                and 0.5 <= linearity.inl_max <= 2.0
            ),
            detail=f"{linearity.inl_min:+.2f}/{linearity.inl_max:+.2f} LSB",
        ),
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Key data for the 12b pipeline ADC (110 MS/s)",
        headers=("parameter", "paper", "this reproduction"),
        rows=rows,
        claims=claims,
        notes=(
            "One die (seed 1) is characterized, matching the single-die "
            "nature of Table I; 'repro mc' measures the across-die "
            "bands.",
        ),
    )


@register("fig7")
def run_floorplan(quick: bool = False) -> ExperimentResult:
    """Fig. 7: the die area budget behind the 0.86 mm^2."""
    del quick
    config = AdcConfig.paper_default()
    plan = Floorplan(config)
    blocks = plan.blocks()
    rows = tuple(
        (block.name, f"{block.area * 1e6:.3f}") for block in blocks
    ) + (("total", f"{plan.total_area_mm2:.3f}"),)
    chain = blocks[0].area
    claims = (
        ClaimCheck(
            claim="total converter area is 0.86 mm^2",
            passed=abs(plan.total_area_mm2 - 0.86) <= 0.09,
            detail=f"modeled {plan.total_area_mm2:.3f} mm^2",
        ),
        ClaimCheck(
            claim="the pipeline chain dominates the die (Fig. 7 layout)",
            passed=chain > 0.5 * plan.total_area,
            detail=(
                f"chain {chain * 1e6:.3f} mm^2 of "
                f"{plan.total_area_mm2:.3f} mm^2"
            ),
        ),
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="Die area budget (block level)",
        headers=("block", "area [mm^2]"),
        rows=rows,
        claims=claims,
    )
