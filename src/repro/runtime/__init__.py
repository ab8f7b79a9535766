"""Batch-execution runtime: parallel dispatch of independent simulations.

The runtime is the scaling layer every fan-out workload goes through:

* :class:`BatchRunner` — worker-pool execution with chunked dispatch,
  progress callbacks and failure isolation.
* :mod:`repro.runtime.blas` — one BLAS thread per batch task (the pool
  and the shards already supply the parallelism).
* :mod:`repro.runtime.seeding` — ``SeedSequence``-spawned per-task
  seeds, invariant to chunking and worker count.
* :mod:`repro.runtime.montecarlo` — the Monte Carlo yield workload
  (die measurement tasks, yield reports) built on the runner.
* :mod:`repro.runtime.campaign` — corner-batched PVT sign-off
  campaigns, built on the runner and the die-batched
  :class:`~repro.core.adc_array.AdcArray`; the content-addressed
  :mod:`repro.runtime.cell_store` is their checkpoint (an interrupted
  campaign re-run over its store computes only the gaps) and
  :func:`export_ledger` writes a finished run's cells as a JSONL
  ledger.
* :mod:`repro.runtime.profiling` — opt-in per-stage wall-time
  instrumentation (the ``repro profile`` workloads and reports; the
  timing primitive itself lives in the leaf :mod:`repro.profiling`).
"""

from repro.runtime.batch import (
    BatchProgress,
    BatchResult,
    BatchRunner,
    TaskOutcome,
)
from repro.runtime.campaign import (
    CampaignCell,
    CampaignReport,
    CampaignSpec,
    CellMetrics,
    export_ledger,
    run_campaign,
)
from repro.runtime.montecarlo import (
    DieMetrics,
    YieldReport,
    YieldSpec,
    run_yield_analysis,
)
from repro.runtime.profiling import (
    ProfileRecorder,
    ProfileReport,
    profile_step,
    profile_workload,
    profiled,
)
from repro.runtime.seeding import derive_seeds, spawn_sequences

__all__ = [
    "BatchProgress",
    "BatchResult",
    "BatchRunner",
    "CampaignCell",
    "CampaignReport",
    "CampaignSpec",
    "CellMetrics",
    "DieMetrics",
    "ProfileRecorder",
    "ProfileReport",
    "TaskOutcome",
    "YieldReport",
    "YieldSpec",
    "derive_seeds",
    "export_ledger",
    "profile_step",
    "profile_workload",
    "profiled",
    "run_campaign",
    "run_yield_analysis",
    "spawn_sequences",
]
