"""Experiment harness: declarative studies, sweeps, statistics, records.

The paper experiments are defined as declarative study plans in
:mod:`repro.analysis.studies` (:func:`run_experiment` is the entry point);
the benchmark modules under ``benchmarks/`` are thin wrappers around them.
"""

from repro.analysis.reporting import ExperimentRecord
from repro.analysis.studies import (
    ExperimentPlan,
    build_experiment,
    experiment_ids,
    run_experiment,
)
from repro.analysis.sweep import alpha_sweep, beta_statistics
from repro.analysis.scaling import mop_scaling, optop_scaling
from repro.analysis import studies

__all__ = [
    "ExperimentRecord",
    "ExperimentPlan",
    "build_experiment",
    "experiment_ids",
    "run_experiment",
    "alpha_sweep",
    "beta_statistics",
    "optop_scaling",
    "mop_scaling",
    "studies",
]
