#!/usr/bin/env python
"""The observability overhead gate: "zero-cost when off", measured.

`repro.obs` promises that a service built *without* an
``Observability`` handle pays exactly one ``is None`` check per request
on the hot path.  This script puts a number on that promise and fails CI
when the number drifts:

1. It measures **warm-pass serve throughput** (the all-cache-hit regime,
   where per-request bookkeeping is the largest relative cost) through
   one long-lived :class:`~repro.serve.SolveService` with observability
   disabled and one with it enabled, interleaving trials so machine
   noise hits both equally.  The bench reuses its services instead of
   re-creating them; each trial reads its own pass as a
   :meth:`~repro.serve.ServiceStats.since` delta.
2. The disabled-path throughput is compared against the **recorded
   baseline** (``.github/obs-overhead-baseline.json``), scaled by a
   pure-Python calibration loop timed on both machines so the gate
   tracks *code* regressions rather than runner hardware.  A regression
   beyond ``--tolerance`` (default 3%) fails the run.
3. The enabled-vs-disabled delta — the actual cost of tracing +
   histograms when you opt in — is recorded alongside, so the trajectory
   of both numbers lands in ``BENCH_obs.json`` per commit, together with
   every trial's req/s and each mode's spread across its trials
   (``(max - min) / median``).
4. The record's ``verdict`` is ``fail`` when the disabled-path
   throughput is below the floor, ``inconclusive`` when it is not but
   either mode's trial spread is wider than ``--tolerance`` (the run is
   too noisy to judge a difference that small), and ``pass`` otherwise.
   Only ``fail`` exits non-zero.

Usage::

    python scripts/check_obs_overhead.py [--quick] [--record]
        [--baseline .github/obs-overhead-baseline.json]
        [--output BENCH_obs.json] [--tolerance 3.0]

``--record`` rewrites the baseline from this run's measurements instead
of gating against it (used when a deliberate serving-layer change moves
the needle).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import Observability  # noqa: E402
from repro.serve.bench import run_bench  # noqa: E402
from repro.serve.service import SolveService  # noqa: E402

#: Iterations of the calibration loop (fixed: both the baseline recorder
#: and the gate must time the identical workload).
_CALIBRATION_ROUNDS = 60_000


def calibration_seconds(repeats: int = 3) -> float:
    """Best wall time of a fixed pure-Python hashing + dict workload.

    The warm serve path is dominated by interpreter work (digests, dict
    lookups, futures), so a digest-and-dict loop is a fair proxy for how
    fast this machine runs it.  The baseline stores its own calibration
    time; the ratio of the two rescales the recorded throughput onto the
    current machine.
    """
    best = float("inf")
    for _ in range(repeats):
        table = {}
        start = time.perf_counter()
        payload = b"repro-obs-calibration"
        for i in range(_CALIBRATION_ROUNDS):
            payload = hashlib.sha256(payload).digest()
            table[payload[:8]] = i
            table.get(payload[:8])
        best = min(best, time.perf_counter() - start)
    return best


def measure_warm_throughput(*, num_requests: int, num_distinct: int,
                            trials: int) -> dict:
    """Every trial's warm req/s with obs off and on, interleaved.

    Both services live for the whole measurement: the first (untimed)
    pass fills the tier-1 cache, then every timed pass is 100% warm.
    ``run_bench`` reports each pass's stats as a delta, so the checks
    below read one pass without rebuilding the service.
    """
    services = {
        "disabled": SolveService(),
        "enabled": SolveService(obs=Observability(service="overhead-bench")),
    }
    rates = {"disabled": [], "enabled": []}
    try:
        for mode, service in services.items():
            service.start()
            run_bench(num_requests=num_requests, num_distinct=num_distinct,
                      passes=1, service=service)  # cache fill, untimed
        for _ in range(max(1, trials)):
            for mode, service in services.items():
                result = run_bench(num_requests=num_requests,
                                   num_distinct=num_distinct,
                                   passes=1, service=service)
                record = result.passes[0]
                if record.stats.hits != record.requests:
                    raise AssertionError(
                        f"{mode} warm pass was not all-hits: "
                        f"{record.stats.to_dict()}")
                rates[mode].append(record.requests_per_second)
    finally:
        for service in services.values():
            service.shutdown(wait=True, timeout=60.0)
    return rates


def spread_pct(rates) -> float:
    """``(max - min) / median`` of the trials' req/s, in percent."""
    median = statistics.median(rates)
    return 100.0 * (max(rates) - min(rates)) / median if median > 0 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        default=".github/obs-overhead-baseline.json",
                        help="recorded baseline to gate against")
    parser.add_argument("--output", default="BENCH_obs.json",
                        help="where to write this run's record")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed disabled-path regression, percent")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the baseline instead of gating")
    parser.add_argument("--quick", action="store_true",
                        help="smaller stream / fewer trials (CI mode)")
    args = parser.parse_args(argv)

    if args.quick:
        num_requests, num_distinct, trials = 1000, 80, 3
    else:
        num_requests, num_distinct, trials = 2000, 100, 4

    calibration = calibration_seconds()
    rates = measure_warm_throughput(
        num_requests=num_requests, num_distinct=num_distinct, trials=trials)
    disabled = max(rates["disabled"])
    enabled = max(rates["enabled"])
    spread = {mode: spread_pct(values) for mode, values in rates.items()}
    enabled_overhead_pct = (100.0 * (disabled - enabled) / disabled
                            if disabled > 0 else 0.0)
    print(f"calibration: {calibration * 1e3:.1f} ms")
    print(f"warm throughput: obs off {disabled:8.0f} req/s, "
          f"obs on {enabled:8.0f} req/s "
          f"(enabled overhead {enabled_overhead_pct:+.1f}%)")
    print(f"trial spread: obs off {spread['disabled']:.1f}%, "
          f"obs on {spread['enabled']:.1f}%")

    record = {
        "calibration_seconds": calibration,
        "num_requests": num_requests,
        "num_distinct": num_distinct,
        "trials": trials,
        "disabled_requests_per_second": disabled,
        "enabled_requests_per_second": enabled,
        "enabled_overhead_pct": enabled_overhead_pct,
        "trial_requests_per_second": rates,
        "trial_spread_pct": spread,
    }

    baseline_path = Path(args.baseline)
    below_floor = False
    if args.record:
        baseline_path.write_text(json.dumps({
            "calibration_seconds": calibration,
            "warm_requests_per_second": disabled,
            "num_requests": num_requests,
            "num_distinct": num_distinct,
        }, indent=2) + "\n")
        print(f"recorded baseline -> {baseline_path}")
        record["baseline"] = "recorded"
    elif baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        # A faster machine runs the calibration loop in less time and
        # should produce proportionally more req/s; scale the recorded
        # throughput onto this machine before applying the tolerance.
        scale = baseline["calibration_seconds"] / calibration
        expected = baseline["warm_requests_per_second"] * scale
        floor = expected * (1.0 - args.tolerance / 100.0)
        delta_pct = 100.0 * (disabled - expected) / expected
        record["baseline"] = {
            "recorded_requests_per_second":
                baseline["warm_requests_per_second"],
            "machine_scale": scale,
            "expected_requests_per_second": expected,
            "delta_pct": delta_pct,
        }
        print(f"baseline: {expected:8.0f} req/s expected on this machine "
              f"(recorded {baseline['warm_requests_per_second']:.0f} "
              f"x scale {scale:.2f}) -> delta {delta_pct:+.1f}%")
        below_floor = disabled < floor
        if below_floor:
            print(f"FAIL: disabled-path throughput {disabled:.0f} req/s is "
                  f"more than {args.tolerance:.1f}% below the recorded "
                  f"baseline ({floor:.0f} req/s floor)")
    else:
        print(f"no baseline at {baseline_path}; reporting only "
              f"(run with --record to create one)")
        record["baseline"] = None

    if below_floor:
        verdict = "fail"
    elif max(spread.values()) > args.tolerance:
        verdict = "inconclusive"  # too noisy to judge a tolerance-sized gap
    else:
        verdict = "pass"
    print(f"verdict: {verdict}")
    record["verdict"] = verdict
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 1 if verdict == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
