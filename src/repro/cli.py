"""Command-line interface.

Three subcommands cover the typical workflows, all running through the
unified :mod:`repro.api` solver-session layer:

``repro solve`` (alias ``repro analyze``)
    Load an instance from a JSON file (see :mod:`repro.serialization`) or pick
    a named canonical instance, and print the Nash equilibrium, the optimum,
    the price of anarchy, the Price of Optimum and the optimal Leader
    strategy.  ``--strategy`` selects any registered strategy (default: the
    Price-of-Optimum algorithm); ``--json`` dumps the raw
    :class:`~repro.api.report.SolveReport`.  ``--elastic`` switches to the
    elastic-demand fixed point of :mod:`repro.scenarios`
    (``--intercept``/``--slope``/``--curve`` describe the inverse-demand
    curve) and reports the realised rate, the market price and the consumer
    surplus next to the usual solve report.

``repro sweep``
    Sweep the Leader's share alpha on a parallel-link instance and print the
    cost ratios of the LLF and SCALE baselines against the theoretical bounds.

``repro experiments``
    Re-run the paper-reproduction experiments (E1–E16) and print their tables
    — the same output the benchmark harness produces.

``repro study``
    The declarative study pipeline: ``repro study list`` shows the available
    experiment plans, named studies and instance generators; ``repro study
    run <name>`` executes one (``--store DIR`` makes the run resumable
    through the content-addressed artifact store); ``repro study resume
    <name> --store DIR`` re-runs against an existing store and reports how
    much was served from artifacts.

``repro trace``
    Time-varying demand: ``repro trace list`` shows the registered demand
    processes; ``repro trace run`` replays a demand trace (diurnal by
    default) step by step through a :class:`repro.serve.SolveService`,
    printing per-step reports and the warm-start accounting.  With
    ``--store DIR`` the per-step artifacts land in the content-addressed
    store, so a second replay resumes with **zero** solver calls.

``repro bench``
    Adversarial benchmark suites with certified optimality gaps: ``repro
    bench suite list`` shows the built-in suites; ``repro bench suite run
    --suite small`` expands the suite through the study pipeline and prints
    a per-strategy gap table certified against the MILP lower bound of the
    ``exact`` strategy (``--store DIR`` makes the run resumable, ``--csv``/
    ``--json``/``--baseline-out`` export the results); ``repro bench suite
    verify --baseline FILE`` re-runs the suite and exits non-zero if any
    instance digest drifted or any certified gap regressed beyond the
    pinned value plus the suite tolerance.

``repro serve``
    The serving layer: ``repro serve bench`` drives a seed-deterministic
    synthetic request stream through a :class:`repro.serve.SolveService`
    (request coalescing, tiered cache) and prints per-pass
    throughput and the full service statistics.  ``--store DIR`` adds the
    on-disk artifact store as the tier-2 cache, shared with ``repro study``;
    ``--trace PROCESS`` drives diurnal traffic instead of the hot-key mix.
    ``repro serve cluster`` runs N worker processes behind an HTTP gateway;
    its load benchmark is ``python perfbench/run.py --workload
    cluster_stream`` (``--trace 1`` adds per-hop spans).

``repro chaos``
    Deterministic fault injection: ``repro chaos list`` shows the built-in
    fault plans; ``repro chaos run --plan smoke`` replays a pinned workload
    through a supervised worker cluster with the plan's faults armed
    (worker SIGKILLs, corrupted artifacts, dropped connections, ...) and
    exits non-zero unless the degradation contract held — every request
    resolved to a correct report or a typed error, the merged statistics
    still partition exactly, and recovery (respawns, quarantine) engaged.

``repro obs``
    Observability (:mod:`repro.obs`) against a running gateway or worker
    (e.g. ``repro serve cluster --obs``): ``repro obs metrics`` scrapes
    and prints ``/metrics`` (Prometheus text, or ``--json``); ``repro obs
    trace --last N`` prints the newest spans of the ``/trace`` ring;
    ``repro obs top`` ranks span names (split by strategy where
    annotated) by cumulative recorded time.

Invoke with ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.studies import (
    EXPERIMENTS,
    build_experiment,
    experiment_ids,
    experiment_title,
)
from repro.analysis.sweep import alpha_sweep
from repro.api import SolveConfig, SolveReport, available_strategies, solve
from repro.api.dispatch import PARALLEL, resolve_instance_kind
from repro.exceptions import ReproError
from repro.instances import (
    braess_paradox,
    figure_4_example,
    pigou,
    roughgarden_example,
)
from repro.metrics import general_latency_bound, linear_latency_bound
from repro.serialization import load_instance
from repro.study import (
    ArtifactStore,
    available_generators,
    get_generator,
    get_named_study,
    named_studies,
    run_study,
)
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]

#: Canonical instances addressable by name from the command line.
NAMED_INSTANCES: Dict[str, Callable[[], object]] = {
    "pigou": pigou,
    "figure4": figure_4_example,
    "braess": braess_paradox,
    "roughgarden": roughgarden_example,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stackelberg routing and the Price of Optimum "
                    "(Kaporis & Spirakis, SPAA 2006)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve_cmd = subparsers.add_parser(
        "solve", aliases=["analyze"],
        help="compute Nash, optimum, PoA and the Price of Optimum "
             "(scenario-aware)")
    solve_source = solve_cmd.add_mutually_exclusive_group(required=True)
    solve_source.add_argument("--instance", choices=sorted(NAMED_INSTANCES),
                              help="a canonical instance from the paper")
    solve_source.add_argument("--file",
                              help="JSON instance file (see "
                                   "repro.serialization)")
    solve_cmd.add_argument("--strategy", choices=available_strategies(),
                           default="optop",
                           help="registered strategy to run (default: optop)")
    solve_cmd.add_argument("--alpha", type=float, default=None,
                           help="Leader budget for the budgeted strategies")
    solve_cmd.add_argument("--elastic", action="store_true",
                           help="solve the elastic-demand fixed point "
                                "instead of the instance's static demand")
    solve_cmd.add_argument("--curve", choices=("linear", "exponential"),
                           default="linear",
                           help="inverse-demand curve family (with "
                                "--elastic; default: linear)")
    solve_cmd.add_argument("--intercept", type=float, default=2.0,
                           help="demand-curve intercept D(0) (default: 2.0)")
    solve_cmd.add_argument("--slope", type=float, default=1.0,
                           help="slope of the linear curve (default: 1.0)")
    solve_cmd.add_argument("--decay", type=float, default=1.0,
                           help="decay of the exponential curve "
                                "(default: 1.0)")
    solve_cmd.add_argument("--store", default=None,
                           help="artifact-store directory (elastic solves "
                                "resume through it)")
    solve_cmd.add_argument("--json", action="store_true",
                           help="print the report as JSON")

    trace = subparsers.add_parser(
        "trace", help="time-varying demand: replay traces through the "
                      "serving layer")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_list = trace_sub.add_parser(
        "list", help="list the registered demand-trace processes")
    del trace_list  # no options
    trace_run = trace_sub.add_parser(
        "run", help="replay a demand trace step by step")
    trace_source = trace_run.add_mutually_exclusive_group(required=True)
    trace_source.add_argument("--instance", choices=sorted(NAMED_INSTANCES),
                              help="a canonical instance from the paper")
    trace_source.add_argument("--file",
                              help="JSON instance file (see "
                                   "repro.serialization)")
    trace_run.add_argument("--process", default="diurnal",
                           help="registered trace process (default: diurnal; "
                                "see 'repro trace list')")
    trace_run.add_argument("--steps", type=int, default=50,
                           help="number of trace steps (default: 50)")
    trace_run.add_argument("--base", type=float, default=2.0,
                           help="base demand level (default: 2.0)")
    trace_run.add_argument("--amplitude", type=float, default=1.0,
                           help="diurnal/random-walk amplitude "
                                "(default: 1.0)")
    trace_run.add_argument("--levels", type=float, nargs="+", default=None,
                           help="explicit levels (piecewise/literal "
                                "processes)")
    trace_run.add_argument("--csv", default=None,
                           help="load the trace levels from a CSV file "
                                "(overrides --process)")
    trace_run.add_argument("--seed", type=int, default=0,
                           help="seed for seeded processes (default: 0)")
    trace_run.add_argument("--strategy", choices=available_strategies(),
                           default="optop")
    trace_run.add_argument("--store", default=None,
                           help="artifact-store directory; a second replay "
                                "against it resumes with zero solver calls")
    trace_run.add_argument("--json", action="store_true",
                           help="print the TraceReport as JSON")
    trace_run.add_argument("--quiet", action="store_true",
                           help="only print the replay summary line")

    sweep = subparsers.add_parser(
        "sweep", help="sweep the Leader share alpha on a parallel-link instance")
    sweep_source = sweep.add_mutually_exclusive_group(required=True)
    sweep_source.add_argument("--instance", choices=sorted(NAMED_INSTANCES))
    sweep_source.add_argument("--file")
    sweep.add_argument("--alphas", type=float, nargs="+",
                       default=[0.1, 0.25, 0.5, 0.75, 1.0],
                       help="values of alpha to evaluate")

    experiments = subparsers.add_parser(
        "experiments", help="re-run the paper-reproduction experiments (E1-E16)")
    experiments.add_argument("--only", nargs="+",
                             choices=sorted(e for e in EXPERIMENTS
                                            if e.startswith("E")),
                             help="restrict to specific experiment ids")
    experiments.add_argument("--store", default=None,
                             help="artifact-store directory (makes the run "
                                  "resumable)")

    study = subparsers.add_parser(
        "study", help="declarative study pipeline: list, run, resume")
    study_sub = study.add_subparsers(dest="study_command", required=True)

    study_list = study_sub.add_parser(
        "list", help="list experiment plans, named studies and generators")
    study_list.add_argument("--generators", action="store_true",
                            help="also list the instance-generator registry")

    def add_run_arguments(sub: argparse.ArgumentParser, *,
                          store_required: bool) -> None:
        sub.add_argument("name",
                         help="an experiment id (E1-E16, A1-A3) or a named "
                              "study (see 'repro study list')")
        sub.add_argument("--store", required=store_required, default=None,
                         help="artifact-store directory"
                              + ("" if store_required
                                 else " (makes the run resumable)"))
        sub.add_argument("--workers", type=int, default=0,
                         help="process-pool width for cache misses "
                              "(0 = sequential)")
        sub.add_argument("--json", action="store_true",
                         help="print the study/record as JSON")
        sub.add_argument("--csv", default=None,
                         help="also export the study cells as CSV to this "
                              "path")

    study_run = study_sub.add_parser(
        "run", help="run one experiment plan or named study")
    add_run_arguments(study_run, store_required=False)

    study_resume = study_sub.add_parser(
        "resume", help="re-run against an existing artifact store")
    add_run_arguments(study_resume, store_required=True)

    bench = subparsers.add_parser(
        "bench", help="adversarial benchmark suites with certified gaps")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_suite = bench_sub.add_parser(
        "suite", help="list, run or verify a benchmark suite")
    bench_suite_sub = bench_suite.add_subparsers(dest="suite_command",
                                                 required=True)
    bench_suite_list = bench_suite_sub.add_parser(
        "list", help="list the built-in benchmark suites")
    del bench_suite_list  # no options

    def add_suite_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--suite", default="small",
                         help="built-in suite name (default: small; see "
                              "'repro bench suite list')")
        sub.add_argument("--store", default=None,
                         help="artifact-store directory; a second run "
                              "against it resumes with zero solver calls")
        sub.add_argument("--workers", type=int, default=0,
                         help="process-pool width for cache misses "
                              "(0 = sequential)")

    bench_suite_run = bench_suite_sub.add_parser(
        "run", help="run a suite and print the certified gap table")
    add_suite_arguments(bench_suite_run)
    bench_suite_run.add_argument("--json", action="store_true",
                                 help="print the SuiteReport as JSON")
    bench_suite_run.add_argument("--csv", default=None,
                                 help="also export the gap table as CSV to "
                                      "this path")
    bench_suite_run.add_argument("--baseline-out", default=None,
                                 help="write the run's gaps/digests as a "
                                      "verify baseline to this path")

    bench_suite_verify = bench_suite_sub.add_parser(
        "verify", help="run a suite and gate it against a pinned baseline")
    add_suite_arguments(bench_suite_verify)
    bench_suite_verify.add_argument(
        "--baseline", default=".github/suite-gap-baseline.json",
        help="pinned baseline JSON (default: "
             ".github/suite-gap-baseline.json)")

    serve = subparsers.add_parser(
        "serve", help="serving layer: benchmark the SolveService")
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    serve_bench = serve_sub.add_parser(
        "bench", help="drive a synthetic request stream through SolveService")
    serve_bench.add_argument("--requests", type=int, default=5000,
                             help="requests per pass (default: 5000)")
    serve_bench.add_argument("--distinct", type=int, default=200,
                             help="distinct instances in the stream "
                                  "(default: 200)")
    serve_bench.add_argument("--num-links", type=int, default=4,
                             help="links per synthetic instance (default: 4)")
    serve_bench.add_argument("--passes", type=int, default=2,
                             help="passes over the stream (default: 2; the "
                                  "second pass measures the warm cache)")
    serve_bench.add_argument("--strategy", choices=available_strategies(),
                             default="optop")
    serve_bench.add_argument("--seed", type=int, default=0,
                             help="workload seed (stream is deterministic)")
    serve_bench.add_argument("--max-queue", type=int, default=0,
                             help="request queue bound, 0 = unbounded "
                                  "(default: 0)")
    serve_bench.add_argument("--store", default=None,
                             help="artifact-store directory used as the "
                                  "tier-2 cache")
    serve_bench.add_argument("--json", action="store_true",
                             help="print the benchmark record as JSON")
    serve_bench.add_argument("--trace", default=None,
                             help="demand-trace process driving time-varying "
                                  "traffic (e.g. diurnal) instead of the "
                                  "fixed hot-key mix")
    serve_bench.add_argument("--trace-steps", type=int, default=24,
                             help="steps of the demand trace (default: 24)")

    serve_cluster = serve_sub.add_parser(
        "cluster",
        help="run a sharded solve cluster: N workers behind an HTTP gateway")
    serve_cluster.add_argument("--workers", type=int, default=2,
                               help="worker processes to spawn (default: 2)")
    serve_cluster.add_argument("--host", default="127.0.0.1",
                               help="bind address (default: 127.0.0.1)")
    serve_cluster.add_argument("--port", type=int, default=8080,
                               help="gateway HTTP port (0 = ephemeral; "
                                    "default: 8080)")
    serve_cluster.add_argument("--store", default=None,
                               help="shared artifact-store directory (a "
                                    "private temporary one when omitted)")
    serve_cluster.add_argument("--max-queue", type=int, default=10_000,
                               help="per-worker request queue bound "
                                    "(default: 10000)")
    serve_cluster.add_argument("--max-inflight", type=int, default=8,
                               help="per-worker in-flight bound of the "
                                    "gateway (default: 8)")
    serve_cluster.add_argument("--duration", type=float, default=None,
                               help="serve for this many seconds, then "
                                    "drain and exit (default: until Ctrl-C)")
    serve_cluster.add_argument("--obs", action="store_true",
                               help="enable observability: trace ids across "
                                    "gateway and workers, /metrics and "
                                    "/trace endpoints")

    chaos = subparsers.add_parser(
        "chaos", help="deterministic fault injection against a live cluster")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_list = chaos_sub.add_parser(
        "list", help="list the built-in fault plans")
    del chaos_list  # no options
    chaos_run = chaos_sub.add_parser(
        "run", help="replay a pinned workload under a fault plan and "
                    "check the degradation contract")
    chaos_run.add_argument("--plan", default="smoke",
                           help="built-in plan name or plan-JSON file "
                                "(default: smoke; see 'repro chaos list')")
    chaos_run.add_argument("--steps", type=int, default=50,
                           help="requests in the trace (default: 50)")
    chaos_run.add_argument("--workers", type=int, default=2,
                           help="worker processes (default: 2)")
    chaos_run.add_argument("--distinct", type=int, default=16,
                           help="distinct instances in the trace "
                                "(default: 16)")
    chaos_run.add_argument("--seed", type=int, default=0,
                           help="workload seed (default: 0); the fault "
                                "plan carries its own seed")
    chaos_run.add_argument("--strategy", choices=available_strategies(),
                           default="optop")
    chaos_run.add_argument("--deadline-ms", type=float, default=None,
                           help="attach this end-to-end deadline to every "
                                "request (exercises the 504 path)")
    chaos_run.add_argument("--store", default=None,
                           help="shared artifact-store directory (a "
                                "private temporary one when omitted)")
    chaos_run.add_argument("--max-respawns", type=int, default=3,
                           help="supervisor restart budget per worker "
                                "(default: 3)")
    chaos_run.add_argument("--expect-respawn", action="store_true",
                           help="additionally fail unless >= 1 worker was "
                                "respawned and >= 1 artifact quarantined "
                                "(for plans that script those faults)")
    chaos_run.add_argument("--json", action="store_true",
                           help="print the ChaosReport as JSON")

    obs = subparsers.add_parser(
        "obs", help="observability: scrape metrics and traces from a "
                    "running gateway or worker")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def add_obs_url(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--url", default="http://127.0.0.1:8080",
                         help="base URL of a gateway or worker "
                              "(default: http://127.0.0.1:8080)")

    obs_metrics = obs_sub.add_parser(
        "metrics", help="scrape and print /metrics")
    add_obs_url(obs_metrics)
    obs_metrics.add_argument("--json", action="store_true",
                             help="fetch the JSON snapshot instead of the "
                                  "Prometheus text exposition")

    obs_trace = obs_sub.add_parser(
        "trace", help="print the newest spans of the /trace ring")
    add_obs_url(obs_trace)
    obs_trace.add_argument("--last", type=int, default=None,
                           help="only the newest N spans")
    obs_trace.add_argument("--json", action="store_true",
                           help="print the raw Chrome trace_event JSON "
                                "(chrome://tracing / Perfetto compatible)")

    obs_top = obs_sub.add_parser(
        "top", help="rank span names by cumulative recorded time")
    add_obs_url(obs_top)
    obs_top.add_argument("--last", type=int, default=None,
                         help="restrict to the newest N spans")
    obs_top.add_argument("--limit", type=int, default=10,
                         help="rows to print (default: 10)")
    return parser


def _load(args: argparse.Namespace):
    if getattr(args, "instance", None):
        return NAMED_INSTANCES[args.instance]()
    return load_instance(args.file)


def _print_report(instance, report: SolveReport) -> None:
    headers = ["nash flow", "optimum flow", "leader flow"]
    columns = [report.nash_flows, report.optimum_flows, report.leader_flows]
    if report.instance_kind == PARALLEL:
        title, labels = "Parallel-link instance analysis", instance.names
        headers = ["link", *headers, "induced flow"]
        columns.append(report.induced_flows)
    else:
        title = "Network instance analysis"
        labels = [f"{edge.tail}->{edge.head}"
                  for edge in instance.network.edges]
        headers = ["edge", *headers]
    print(format_table(tuple(headers), list(zip(labels, *columns)),
                       title=title))
    print(f"C(N) = {report.nash_cost:.6f}  C(O) = {report.optimum_cost:.6f}  "
          f"price of anarchy = {report.price_of_anarchy:.6f}")
    if report.beta is not None:
        print(f"price of optimum beta = {report.beta:.6f}  "
              f"induced cost = {report.induced_cost:.6f}")
    else:
        print(f"strategy {report.strategy} (alpha = {report.alpha:.6f})  "
              f"induced cost = {report.induced_cost:.6f}  "
              f"ratio = {report.cost_ratio:.6f}")


def _command_solve(args: argparse.Namespace) -> int:
    instance = _load(args)
    config = SolveConfig() if args.alpha is None else SolveConfig(alpha=args.alpha)
    if not args.elastic:
        report = solve(instance, args.strategy, config=config)
        if args.json:
            print(report.to_json(indent=2))
        else:
            _print_report(instance, report)
        return 0
    from repro.scenarios import (
        ExponentialDemandCurve,
        LinearDemandCurve,
        solve_elastic,
    )

    if args.curve == "linear":
        curve = LinearDemandCurve(intercept=args.intercept, slope=args.slope)
    else:
        curve = ExponentialDemandCurve(intercept=args.intercept,
                                       decay=args.decay)
    elastic = solve_elastic(instance, curve, args.strategy, config=config,
                            store=_open_store(args))
    if args.json:
        print(elastic.to_json(indent=2))
        return 0
    _print_report(instance, elastic.report)
    print(f"elastic demand {curve!r}: realised rate = "
          f"{elastic.realised_rate:.6f}  market price = "
          f"{elastic.price:.6f}  consumer surplus = "
          f"{elastic.consumer_surplus:.6f}  "
          f"({elastic.iterations} bisection steps)")
    return 0


def _build_trace(args: argparse.Namespace):
    from repro.scenarios import DemandTrace

    if args.csv is not None:
        return DemandTrace.from_csv(args.csv)
    params: Dict[str, object] = {}
    if args.process in ("diurnal", "random_walk"):
        params = {"num_steps": args.steps, "base": args.base}
        if args.process == "diurnal":
            params["amplitude"] = args.amplitude
        else:
            params["step_scale"] = args.amplitude
    elif args.process == "constant":
        params = {"level": args.base, "num_steps": args.steps}
    elif args.process in ("piecewise", "literal"):
        if not args.levels:
            raise ReproError(
                f"the {args.process!r} process needs --levels")
        params = {"levels": list(args.levels)}
    return DemandTrace.from_process(args.process, params, seed=args.seed)


def _command_trace_list(args: argparse.Namespace) -> int:
    from repro.scenarios import TRACE_PROCESSES, available_trace_processes

    rows = []
    for name in available_trace_processes():
        entry = TRACE_PROCESSES.get(name)
        params = ", ".join(sorted(
            entry.schema.get("properties", {}))) or "-"
        rows.append((name, "yes" if entry.seeded else "no", params,
                     entry.description))
    print(format_table(("process", "seeded", "params", "description"), rows,
                       title="Demand-trace processes"))
    return 0


def _command_trace_run(args: argparse.Namespace) -> int:
    from repro.scenarios import replay_trace

    instance = _load(args)
    trace = _build_trace(args)
    report = replay_trace(instance, trace, args.strategy,
                          store=_open_store(args))
    if args.json:
        print(report.to_json(indent=2))
        return 0
    if not args.quiet:
        print(report.to_table())
        print()
    print(report.summary())
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    instance = _load(args)
    if resolve_instance_kind(instance) != PARALLEL:
        print("error: the sweep command needs a parallel-link instance",
              file=sys.stderr)
        return 2
    beta = solve(instance, "optop").beta
    rows = []
    for row in alpha_sweep(instance, args.alphas):
        rows.append((row.alpha, row.ratios["llf"], row.ratios["scale"],
                     general_latency_bound(row.alpha),
                     linear_latency_bound(row.alpha),
                     "yes" if row.alpha >= beta else ""))
    print(format_table(("alpha", "LLF ratio", "SCALE ratio", "1/alpha",
                        "4/(3+alpha)", "alpha >= beta"), rows,
                       title=f"Alpha sweep (price of optimum beta = {beta:.6f})"))
    return 0


def _open_store(args: argparse.Namespace) -> Optional[ArtifactStore]:
    store_dir = getattr(args, "store", None)
    return None if store_dir is None else ArtifactStore(store_dir)


def _command_experiments(args: argparse.Namespace) -> int:
    ids: Sequence[str] = args.only or [e for e in experiment_ids()
                                       if e.startswith("E")]
    store = _open_store(args)
    failures: List[str] = []
    for experiment_id in ids:
        record = build_experiment(experiment_id).run(store=store)
        print(record.to_table())
        print()
        if not record.all_claims_hold:
            failures.append(experiment_id)
    if failures:
        print(f"experiments with failing claims: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def _command_study_list(args: argparse.Namespace) -> int:
    rows = [(eid, "experiment", experiment_title(eid))
            for eid in experiment_ids()]
    for name in named_studies():
        spec = get_named_study(name)
        rows.append((name, f"study ({spec.num_cells} cells)",
                     spec.description))
    print(format_table(("name", "kind", "description"), rows,
                       title="Available studies"))
    if args.generators:
        gen_rows = []
        for name in available_generators():
            entry = get_generator(name)
            params = ", ".join(sorted(
                entry.schema.get("properties", {}))) or "-"
            gen_rows.append((name, "yes" if entry.seeded else "no", params,
                             entry.description))
        print()
        print(format_table(("generator", "seeded", "params", "description"),
                           gen_rows, title="Instance generators"))
    return 0


def _print_resume_summary(label: str, counters) -> None:
    print(f"{label}: {len(counters)} cells | store hits "
          f"{counters.store_hits}, cache hits {counters.cache_hits}, "
          f"solver calls {counters.solver_calls}"
          + (" (fully resumed)" if counters.fully_resumed else ""))


def _command_study_run(args: argparse.Namespace) -> int:
    name = args.name
    store = _open_store(args)
    if name in EXPERIMENTS:
        from repro.api import cache_stats

        plan = build_experiment(name)
        cache_before = cache_stats()
        store_before = store.stats() if store is not None else None
        study = run_study(plan.spec, store=store, max_workers=args.workers)
        record = plan.summarize(study, store)
        # Fold the summariser's dependent solves (brute-force spot checks,
        # follow-up cells) into the printed accounting, so "solver calls"
        # covers everything the experiment executed.
        cache_after = cache_stats()
        study.cache_hits = cache_after["hits"] - cache_before["hits"]
        study.cache_misses = cache_after["misses"] - cache_before["misses"]
        if store is not None and store_before is not None:
            store_now = store.stats()
            study.store_hits = store_now["hits"] - store_before["hits"]
            study.store_misses = (store_now["misses"]
                                  - store_before["misses"])
        if args.csv is not None:
            study.to_csv(args.csv)
        if args.json:
            import json as _json
            payload = study.to_dict()
            payload["record"] = record.to_dict()
            print(_json.dumps(payload, sort_keys=True, indent=2, default=str))
        else:
            print(record.to_table())
            print()
            _print_resume_summary(name, study)
        return 0 if record.all_claims_hold else 1

    spec = get_named_study(name)
    study = run_study(spec, store=store, max_workers=args.workers)
    if args.csv is not None:
        study.to_csv(args.csv)
    if args.json:
        print(study.to_json(indent=2))
    else:
        print(study.to_table())
        print()
        _print_resume_summary(name, study)
    return 0


def _command_bench_suite_list(args: argparse.Namespace) -> int:
    from repro.bench import available_suites, get_suite

    rows = []
    for name in available_suites():
        spec = get_suite(name)
        rows.append((name, f"v{spec.version}", str(spec.num_instances),
                     str(spec.num_cells), ", ".join(spec.strategies),
                     spec.description))
    print(format_table(
        ("suite", "version", "instances", "cells", "strategies",
         "description"),
        rows, title="Available benchmark suites"))
    return 0


def _run_suite_from_args(args: argparse.Namespace):
    from repro.bench import get_suite, run_suite

    spec = get_suite(args.suite)
    store = _open_store(args)
    report = run_suite(spec, store=store, max_workers=args.workers)
    return spec, report


def _command_bench_suite_run(args: argparse.Namespace) -> int:
    from repro.bench import baseline_payload

    spec, report = _run_suite_from_args(args)
    if args.csv is not None:
        report.to_csv(args.csv)
    if args.baseline_out is not None:
        import json as _json
        from pathlib import Path

        path = Path(args.baseline_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(baseline_payload(report), sort_keys=True,
                                    indent=2) + "\n")
        print(f"baseline written to {path}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_table())
        print()
        print(f"{spec.name} v{spec.version}: {len(report.rows)} rows | "
              f"store hits {report.store_hits}, solver calls "
              f"{report.solver_calls}"
              + (" (fully resumed)" if report.fully_resumed else ""))
    return 0


def _command_bench_suite_verify(args: argparse.Namespace) -> int:
    from repro.bench import verify_suite

    spec, report = _run_suite_from_args(args)
    violations = verify_suite(report, args.baseline)
    if violations:
        for violation in violations:
            print(f"violation: {violation}", file=sys.stderr)
        print(f"{spec.name} v{spec.version}: {len(violations)} violation(s) "
              f"against {args.baseline}", file=sys.stderr)
        return 1
    print(f"{spec.name} v{spec.version}: {len(report.rows)} rows verified "
          f"against {args.baseline}")
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import run_bench

    store = _open_store(args)
    trace = None
    if args.trace is not None:
        from repro.scenarios import DemandTrace

        trace = DemandTrace.from_process(
            args.trace, {"num_steps": args.trace_steps}, seed=args.seed)
    result = run_bench(
        num_requests=args.requests, num_distinct=args.distinct,
        num_links=args.num_links, seed=args.seed, passes=args.passes,
        strategy=args.strategy, store=store, max_queue=args.max_queue,
        trace=trace)
    consistent = all(p.stats.consistent for p in result.passes)
    if args.json:
        import json as _json
        print(_json.dumps(result.to_dict(), sort_keys=True, indent=2))
        return 0 if consistent else 1
    rows = []
    for record in result.passes:
        stats = record.stats
        rows.append((record.index + 1, record.requests,
                     f"{record.seconds:.3f}",
                     f"{record.requests_per_second:.0f}",
                     f"{record.tier1_hit_rate:.1f}%",
                     f"{record.tier2_hit_rate:.1f}%",
                     stats.coalesced, stats.enqueued,
                     "yes" if stats.consistent else "NO"))
    print(format_table(
        ("pass", "requests", "seconds", "req/s", "tier-1 hits",
         "tier-2 hits", "coalesced", "solved", "consistent"),
        rows, title="SolveService synthetic benchmark"))
    final = result.final_stats
    hit_rate = (100.0 * final.hits / final.requests
                if final.requests else 0.0)
    print(f"totals: {final.requests} requests | {final.hits} cache hits "
          f"({hit_rate:.1f}%), {final.coalesced} coalesced, "
          f"{final.enqueued} solver requests | "
          f"rejected {final.rejected}, solve failures "
          f"{final.solve_failures}, queue peak {final.queue_peak}")
    print(f"resilience: {final.timeouts} deadline expiries, "
          f"{final.shutdown_timeouts} shutdown timeouts, "
          f"{final.worker_restarts} dispatcher restarts")
    return 0 if consistent else 1


def _command_serve_cluster(args: argparse.Namespace) -> int:
    import time as _time

    from repro.cluster import start_cluster

    cluster = start_cluster(
        n_workers=args.workers, store_dir=args.store, host=args.host,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        http=True, http_port=args.port, obs=args.obs)
    try:
        routes = "POST /solve, GET /stats, GET /metrics, GET /trace, " \
                 "GET /health, POST /drain"
        print(f"gateway listening on http://{args.host}:{cluster.http_port}"
              f" ({routes})", flush=True)
        for index, worker in enumerate(cluster.workers):
            print(f"worker[{index}] pid={worker.process.pid} "
                  f"http://{worker.host}:{worker.port} "
                  f"store={cluster.store_dir}", flush=True)
        if args.duration is not None:
            _time.sleep(args.duration)
        else:
            print("serving until Ctrl-C", flush=True)
            while True:
                _time.sleep(3600.0)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        cluster.shutdown()
    return 0


def _command_chaos_list(args: argparse.Namespace) -> int:
    from repro.faults import named_plans

    rows = []
    for name, plan in sorted(named_plans().items()):
        rows.append((name, f"0x{plan.seed:X}", len(plan),
                     ", ".join(plan.kinds())))
    print(format_table(("plan", "seed", "specs", "fault kinds"), rows,
                       title="Built-in fault plans"))
    return 0


def _command_chaos_run(args: argparse.Namespace) -> int:
    from repro.faults import run_chaos

    report = run_chaos(
        args.plan, steps=args.steps, n_workers=args.workers,
        num_distinct=args.distinct, seed=args.seed,
        strategy=args.strategy, deadline_ms=args.deadline_ms,
        store_dir=args.store, max_respawns=args.max_respawns)
    failures: List[str] = list(report.violations)
    if not report.passed and not failures:
        failures.append(
            f"only {report.ok + report.failed} of {report.steps} "
            f"requests resolved")
    if args.expect_respawn:
        if report.respawns < 1:
            failures.append("expected >= 1 supervised worker respawn; "
                            "got none")
        if report.quarantined < 1:
            failures.append("expected >= 1 quarantined artifact; got none")
    if args.json:
        import json as _json
        payload = report.to_dict()
        payload["failures"] = failures
        print(_json.dumps(payload, sort_keys=True, indent=2))
        return 0 if not failures else 1
    print(report.summary())
    if failures and report.passed:
        print("chaos expectations not met: " + "; ".join(failures),
              file=sys.stderr)
    return 0 if not failures else 1


def _obs_fetch(base_url: str, path: str) -> str:
    from urllib.error import URLError
    from urllib.request import urlopen

    url = base_url.rstrip("/") + path
    try:
        with urlopen(url, timeout=30.0) as response:  # noqa: S310 - user URL
            return response.read().decode("utf-8")
    except (URLError, ConnectionError, OSError) as exc:
        raise ReproError(f"cannot reach {url}: {exc}") from exc


def _command_obs_metrics(args: argparse.Namespace) -> int:
    if args.json:
        import json as _json
        payload = _json.loads(_obs_fetch(args.url, "/metrics?format=json"))
        print(_json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(_obs_fetch(args.url, "/metrics"), end="")
    return 0


def _obs_fetch_trace(args: argparse.Namespace) -> List[Dict[str, object]]:
    import json as _json

    path = "/trace" if args.last is None else f"/trace?last={args.last}"
    return _json.loads(_obs_fetch(args.url, path)).get("traceEvents", [])


def _command_obs_trace(args: argparse.Namespace) -> int:
    events = _obs_fetch_trace(args)
    if args.json:
        import json as _json
        print(_json.dumps({"traceEvents": events}, sort_keys=True, indent=2))
        return 0
    rows = []
    for event in events:
        event_args = dict(event.get("args") or {})
        trace_id = str(event_args.pop("trace_id", ""))
        event_args.pop("parent_id", None)
        notes = ", ".join(f"{key}={value}" for key, value
                          in sorted(event_args.items()))
        rows.append((trace_id, event.get("name", ""), event.get("pid", ""),
                     f"{float(event.get('dur', 0.0)) / 1e3:.3f}", notes))
    print(format_table(
        ("trace", "span", "service", "ms", "annotations"), rows,
        title=f"Trace ring of {args.url} ({len(rows)} spans)"))
    return 0


def _command_obs_top(args: argparse.Namespace) -> int:
    totals: Dict[str, List[float]] = {}
    for event in _obs_fetch_trace(args):
        name = str(event.get("name", ""))
        strategy = (event.get("args") or {}).get("strategy")
        key = f"{name}[{strategy}]" if strategy else name
        entry = totals.setdefault(key, [0.0, 0.0])
        entry[0] += float(event.get("dur", 0.0)) / 1e6
        entry[1] += 1
    ranked = sorted(totals.items(), key=lambda item: -item[1][0])
    rows = [(key, int(count), f"{seconds * 1e3:.3f}",
             f"{seconds / count * 1e3:.3f}")
            for key, (seconds, count) in ranked[:max(0, args.limit)]]
    print(format_table(
        ("span", "count", "total ms", "mean ms"), rows,
        title=f"Hottest spans of {args.url} by cumulative time"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        handler = {"bench": _command_serve_bench,
                   "cluster": _command_serve_cluster}[args.serve_command]
    elif args.command == "bench":
        handler = {"list": _command_bench_suite_list,
                   "run": _command_bench_suite_run,
                   "verify": _command_bench_suite_verify}[args.suite_command]
    elif args.command == "chaos":
        handler = {"list": _command_chaos_list,
                   "run": _command_chaos_run}[args.chaos_command]
    elif args.command == "obs":
        handler = {"metrics": _command_obs_metrics,
                   "trace": _command_obs_trace,
                   "top": _command_obs_top}[args.obs_command]
    elif args.command == "trace":
        trace_handlers = {
            "list": _command_trace_list,
            "run": _command_trace_run,
        }
        handler = trace_handlers[args.trace_command]
    elif args.command == "study":
        study_handlers = {
            "list": _command_study_list,
            "run": _command_study_run,
            "resume": _command_study_run,
        }
        handler = study_handlers[args.study_command]
    else:
        handlers = {
            "analyze": _command_solve,
            "solve": _command_solve,
            "sweep": _command_sweep,
            "experiments": _command_experiments,
        }
        handler = handlers[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
