"""Metrics, validation, and reporting for the evaluation harness.

- :mod:`repro.analysis.metrics` — turns algorithm results plus the cluster
  model into the rows the paper's tables/figures report (rounds per
  source, execution/computation/communication time, volume, imbalance).
- :mod:`repro.analysis.validation` — correctness cross-checks against the
  Brandes reference and NetworkX.
- :mod:`repro.analysis.reporting` — plain-text table formatting used by
  the benchmark harness to print paper-style tables.
- :mod:`repro.analysis.tracediff` — straggler/critical-path attribution
  over recorded round events, and phase-by-phase diffing of two recorded
  runs (``repro compare``).
- :mod:`repro.analysis.commcheck` — predicted-vs-measured communication
  conformance over the comm ledger (``repro comm --check``).
"""

from repro.analysis.commcheck import (
    DEFAULT_CHECK_SUITE,
    CheckResult,
    CommReport,
    render_comm_report,
    run_case_checks,
    run_conformance,
)
from repro.analysis.export import export_tables, read_csv, write_csv
from repro.analysis.metrics import AlgorithmSummary, summarize_engine_result
from repro.analysis.reporting import (
    format_table,
    geometric_mean,
    phase_breakdown_dict,
    render_phase_breakdown,
)
from repro.analysis.sanity import SanityDigest, bc_digest, structural_checks
from repro.analysis.tracediff import (
    PhaseStragglers,
    diff_runs,
    load_run,
    phase_stragglers,
    render_run_diff,
    render_stragglers,
)
from repro.analysis.validation import (
    bc_networkx,
    compare_bc,
    max_abs_error,
)

__all__ = [
    "AlgorithmSummary",
    "CheckResult",
    "CommReport",
    "DEFAULT_CHECK_SUITE",
    "PhaseStragglers",
    "SanityDigest",
    "bc_digest",
    "bc_networkx",
    "compare_bc",
    "diff_runs",
    "export_tables",
    "format_table",
    "geometric_mean",
    "load_run",
    "max_abs_error",
    "phase_breakdown_dict",
    "phase_stragglers",
    "read_csv",
    "render_comm_report",
    "render_phase_breakdown",
    "render_run_diff",
    "render_stragglers",
    "run_case_checks",
    "run_conformance",
    "structural_checks",
    "summarize_engine_result",
    "write_csv",
]
