"""The single source of truth for JSON artifact schema tags.

Every JSON document the package emits — batch results, campaign
ledgers, profile reports, benchmark artifacts, lint reports — carries a
``"schema"`` field so downstream consumers (CI artifact readers, the
cell store, the bench-history trend renderer) can detect format drift.
Each tag is the string ``repro.<family>/v<N>``; bumping ``N`` is the
contract for a breaking document change.

This module is the only place a tag literal may be written.  Everything
else imports the constant, and the ``repro lint`` schema-registry
checker (invariant ``schema-single-source``) statically rejects any
``repro.*/vN`` string literal outside this file — so a family can
neither drift apart across emitters nor be defined at two versions at
once.

The module deliberately has zero dependencies (stdlib or internal), so
any layer — including the leaf :mod:`repro.profiling` — can import it
cycle-free.
"""

from __future__ import annotations

#: Serialized :class:`repro.runtime.batch.BatchResult` documents
#: (``repro mc --json``, experiment batches).
BATCH_RESULT_SCHEMA = "repro.batch-result/v1"

#: JSONL ledger exports and campaign reports
#: (:mod:`repro.runtime.campaign`).  v2 added the optional ``shard``
#: header (a campaign's cell range) and the report's shard/cache
#: fields.  v3: the ledger is an export only, never read back (the
#: cell store is the checkpoint); its header and record lines are
#: unchanged, and the report document lost ``resumed_cells``.
CAMPAIGN_LEDGER_SCHEMA = "repro.campaign-ledger/v3"

#: Content-addressed cell-result store entries
#: (:mod:`repro.runtime.cell_store`): one completed campaign cell,
#: keyed by (config fingerprint, PVT point, die seed, bench settings).
#: Still v1: the optional ``base`` field (the campaign-base digest the
#: hygiene tooling prunes by) is additive — v1 readers ignore it and
#: entries without it stay valid.
CELL_STORE_SCHEMA = "repro.cell-store/v1"

#: Cell-store hygiene documents (``repro cell-store
#: stats|verify|prune --json``): one store sweep — entry counts and
#: sizes per campaign base, integrity problems (with quarantine
#: outcomes), or prune decisions.
CELL_STORE_REPORT_SCHEMA = "repro.cell-store-report/v1"

#: Dispatch reports (``repro campaign-dispatch --json``): the full
#: retry history of a gap-driven sharded campaign — per-range attempts
#: with exit codes, backoff delays, and the merged campaign document.
#: v2 dropped the per-attempt ``ledger`` path and the report's
#: ``unreadable_ledgers`` list (the cell store is the only record).
DISPATCH_REPORT_SCHEMA = "repro.dispatch-report/v2"

#: Raw per-stage profile documents
#: (:meth:`repro.profiling.ProfileRecorder.to_dict`).
PROFILE_SCHEMA = "repro.profile/v1"

#: Per-stage profile reports (``repro profile --json``); the
#: ``engines`` list holds one entry since the serial column was removed.
PROFILE_REPORT_SCHEMA = "repro.profile-report/v1"

#: Engine-comparison benchmark artifacts
#: (``benchmarks/bench_engines.py``).  v4 added the pvt-campaign
#: workload and environment metadata; v5 the vectorized-fast
#: configuration; v6 the sharded-campaign workload; v7 dropped the
#: ``vectorized`` and ``vectorized+pool`` configurations and the
#: per-configuration ``engine`` key (one execution path).
BENCH_ENGINES_SCHEMA = "repro.bench-engines/v7"

#: One perf-trajectory history entry
#: (``benchmarks/bench_engines.py --history-dir``).
BENCH_HISTORY_SCHEMA = "repro.bench-history/v1"

#: Lint reports emitted by ``repro lint --json``
#: (:mod:`repro.analysis`).
LINT_REPORT_SCHEMA = "repro.lint-report/v1"
