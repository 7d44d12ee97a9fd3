"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one paper artifact (figure, worked example
or theorem claim) through the declarative study pipeline
(:func:`repro.analysis.studies.run_experiment`), times it with
``pytest-benchmark`` and prints the regenerated table so that the harness
output documents the reproduced numbers alongside the timings.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: Directory where every benchmark drops the table it regenerated (pytest
#: captures stdout, so the tables would otherwise be invisible in the harness
#: log of a passing run).  It sits under the git-ignored ``.benchmarks/`` so
#: a test run leaves the tracked tree untouched.
RESULTS_DIR = (Path(__file__).resolve().parent.parent
               / ".benchmarks" / "results")


def run_and_report(benchmark, experiment, *args, **kwargs):
    """Benchmark an experiment function, print its table and assert its claims."""
    record = benchmark(lambda: experiment(*args, **kwargs))
    print()
    print(record.to_table())
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    # run_experiment takes the experiment id as its first argument; it is
    # already the filename stem, so it does not repeat in the suffix.
    extra = [v for v in args if v != record.experiment_id]
    suffix = "_".join(str(v) for v in extra + list(kwargs.values()))
    name = record.experiment_id + (f"_{suffix}" if suffix else "")
    safe_name = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name)
    (RESULTS_DIR / f"{safe_name}.txt").write_text(record.to_table() + "\n",
                                                  encoding="utf-8")
    assert record.all_claims_hold, (
        f"experiment {record.experiment_id} has failing paper claims:\n"
        + "\n".join(f"- {claim} (measured: {measured})"
                    for claim, measured, holds in record.claims if not holds))
    return record


@pytest.fixture
def report(benchmark):
    """Fixture exposing :func:`run_and_report` bound to the benchmark fixture."""

    def _runner(experiment, *args, **kwargs):
        return run_and_report(benchmark, experiment, *args, **kwargs)

    return _runner
