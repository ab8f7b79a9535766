"""Shared fixtures for the test suite.

Expensive artifacts (full-converter captures) are session-scoped so the
many tests that inspect them share one simulation.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.config import AdcConfig
from repro.signal.generators import SineGenerator
from repro.signal.spectrum import SpectrumAnalyzer
from repro.technology.corners import OperatingPoint
from repro.technology.process import Technology


@pytest.fixture(scope="session")
def technology() -> Technology:
    return Technology()


@pytest.fixture(scope="session")
def operating_point(technology) -> OperatingPoint:
    return OperatingPoint(technology=technology)


@pytest.fixture(scope="session")
def paper_config() -> AdcConfig:
    return AdcConfig.paper_default()


@pytest.fixture(scope="session")
def ideal_config() -> AdcConfig:
    return AdcConfig.ideal()


@pytest.fixture(scope="session")
def paper_adc(paper_config) -> PipelineAdc:
    """The canonical die at the nominal rate."""
    return PipelineAdc(paper_config, conversion_rate=110e6, seed=1)


@pytest.fixture(scope="session")
def ideal_adc(ideal_config) -> PipelineAdc:
    return PipelineAdc(ideal_config, conversion_rate=110e6, seed=0)


@pytest.fixture(scope="session")
def nominal_capture(paper_adc):
    """One shared 4096-point capture at 110 MS/s, f_in ~ 10 MHz."""
    tone = SineGenerator.coherent(10e6, 110e6, 4096, amplitude=0.995)
    return paper_adc.convert(tone, 4096)


@pytest.fixture(scope="session")
def nominal_metrics(nominal_capture):
    return SpectrumAnalyzer().analyze(nominal_capture.codes, 110e6)


def _read_ledger(path: Path) -> tuple[dict, list[dict]]:
    lines = Path(path).read_text().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


@pytest.fixture(scope="session")
def read_ledger():
    """Parse a ledger export into its ``(header, records)``."""
    return _read_ledger


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
