"""Per-layer probes: timed calls into each layer's public functions.

The traced pass calls these from the benchmark's own code, around one
operation's inputs and outputs, and records the figures into a
:class:`measure.Layers`.  A probe never feeds anything back into the timed
operation; it only re-runs one layer on fresh objects.
"""

from __future__ import annotations

import time
from dataclasses import fields

import numpy as np

from repro.api import SolveConfig, SolveReport
from repro.baselines.llf import llf
from repro.baselines.network_ext import network_llf
from repro.cluster import protocol
from repro.core.mop import mop
from repro.core.optop import optop
from repro.equilibrium.frank_wolfe import FrankWolfeOptions, frank_wolfe
from repro.equilibrium.parallel import water_fill
from repro.equilibrium.pathbased import path_based_flow
from repro.latency.batch import LatencyBatch
from repro.serialization import instance_digest
from repro.study.store import ArtifactStore, artifact_key

DEFAULT = SolveConfig()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def serialization(layers, instance, strategy: str) -> None:
    """Digest and wire-request size of one instance."""
    _, seconds = _timed(instance_digest, instance)
    layers.ms("serialization.digest_ms", seconds)
    body, _ = protocol.encode_solve_request(instance, strategy, DEFAULT)
    layers.add("serialization.request_bytes", len(body))


def latency_batch(layers, latencies) -> None:
    _, seconds = _timed(LatencyBatch, latencies)
    layers.ms("latency.batch_build_ms", seconds)


def parallel_kernels(layers, instance) -> None:
    """Batch build, the level-profile grid, cold and warm water filling.

    ``latency.grid_evals`` counts increasing links times unique breakpoints
    of one cold ``grid()`` call: the O(m^2) work a fresh profile costs.
    """
    latency_batch(layers, instance.latencies)
    batch = LatencyBatch(instance.latencies)
    profile = batch.level_profile("nash")
    if profile is not None:
        (levels, _), seconds = _timed(profile.grid)
        layers.ms("latency.grid_ms", seconds)
        increasing = int(np.count_nonzero(~batch.is_constant))
        layers.count("latency.grid_evals", increasing * len(levels))
    _, seconds = _timed(water_fill, instance.latencies, instance.demand, "nash")
    layers.ms("equilibrium.water_fill_cold_ms", seconds)
    warm = LatencyBatch(instance.latencies)
    water_fill(instance.latencies, instance.demand, "nash", batch=warm)
    _, seconds = _timed(water_fill, instance.latencies, instance.demand,
                        "nash", batch=warm)
    layers.ms("equilibrium.water_fill_warm_ms", seconds)


def parallel_strategy(layers, instance, strategy: str) -> None:
    if strategy == "optop":
        _, seconds = _timed(optop, instance, config=DEFAULT)
        layers.ms("core.optop_ms", seconds)
    elif strategy == "llf":
        _, seconds = _timed(llf, instance, DEFAULT.budget())
        layers.ms("baselines.llf_ms", seconds)


def network_kernels(layers, instance) -> None:
    """Batch build and the path-based optimum flow of a small graph."""
    latency_batch(layers, [edge.latency for edge in instance.network.edges])
    _, seconds = _timed(path_based_flow, instance, "optimum")
    layers.ms("equilibrium.pathbased_ms", seconds)


def frank_wolfe_solve(layers, instance):
    """The Nash flow of a graph past the ``auto`` switch, as ``solve``
    would run it (default tolerance and iteration cap).  Returns the
    solver's result, for the caller to check."""
    options = FrankWolfeOptions(tolerance=DEFAULT.tolerance,
                                max_iterations=DEFAULT.max_iterations)
    result, seconds = _timed(frank_wolfe, instance, "nash", options)
    layers.ms("equilibrium.fw_ms", seconds)
    layers.count("equilibrium.fw_iterations", result.iterations)
    layers.worst("equilibrium.fw_relative_gap", result.relative_gap)
    return result


def network_strategy(layers, instance, strategy: str) -> None:
    if strategy == "optop":
        _, seconds = _timed(mop, instance, compute_nash=DEFAULT.compute_nash,
                            config=DEFAULT)
        layers.ms("core.mop_ms", seconds)
    elif strategy == "llf":
        _, seconds = _timed(network_llf, instance, DEFAULT.budget(),
                            solver=DEFAULT.network_solver(),
                            tolerance=DEFAULT.tolerance)
        layers.ms("baselines.llf_ms", seconds)


def report(layers, report: SolveReport) -> None:
    """Report construction and the JSON codec on a finished report."""
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    _, seconds = _timed(SolveReport, **values)
    layers.ms("api.report_build_ms", seconds)
    text, seconds = _timed(report.to_json)
    layers.ms("api.encode_ms", seconds)
    layers.add("api.report_bytes", len(text.encode("utf-8")))
    _, seconds = _timed(SolveReport.from_json, text)
    layers.ms("api.decode_ms", seconds)


def wire(layers, instance, strategy: str, report: SolveReport) -> None:
    """The gateway-side codec: request encode and report decode."""
    _, seconds = _timed(protocol.encode_solve_request, instance, strategy,
                        DEFAULT)
    layers.ms("cluster.request_encode_ms", seconds)
    payload = protocol.encode_report(report)
    _, seconds = _timed(protocol.decode_report, payload)
    layers.ms("cluster.report_decode_ms", seconds)


def store(layers, root, digest: str, strategy: str,
          report: SolveReport) -> None:
    """One artifact write and read on a private store."""
    artifacts = ArtifactStore(root)
    key = artifact_key(digest, strategy, DEFAULT)
    path, seconds = _timed(artifacts.put, key, report)
    layers.ms("study.store_put_ms", seconds)
    layers.add("study.artifact_bytes", path.stat().st_size)
    _, seconds = _timed(artifacts.get, key)
    layers.ms("study.store_get_ms", seconds)
