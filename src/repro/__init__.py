"""Stackelberg routing and the Price of Optimum.

A reproduction of *"The price of optimum in Stackelberg games on arbitrary
single commodity networks and latency functions"* (Kaporis & Spirakis,
SPAA 2006 / TCS 2009).

The package computes, for selfish-routing instances on parallel links and on
arbitrary (multi-commodity) networks, the minimum portion of flow
``beta_M`` a Stackelberg Leader must control to induce the system optimum —
together with the optimal Leader strategy — and provides the surrounding
machinery: Wardrop/Nash equilibria, system optima, induced equilibria under a
Stackelberg pre-load, baseline strategies (LLF, SCALE, Aloof), price-of-anarchy
metrics, canonical and random instance generators, and an experiment harness
regenerating every figure of the paper.

Quickstart
----------
The unified :mod:`repro.api` layer is the recommended entry point:

>>> from repro import instances, solve
>>> report = solve(instances.pigou())
>>> round(report.beta, 6)
0.5
>>> report.attains_optimum
True

The original algorithm functions remain available:

>>> from repro import optop
>>> result = optop(instances.pigou())
>>> round(result.beta, 6)
0.5
>>> round(result.induced_cost, 6) == round(result.optimum_cost, 6)
True
"""

from repro.exceptions import (
    ConvergenceError,
    InfeasibleFlowError,
    InstanceError,
    LatencyDomainError,
    ModelError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    StrategyError,
)
from repro.latency import (
    BPRLatency,
    ConstantLatency,
    LatencyFunction,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PolynomialLatency,
    ScaledLatency,
    ShiftedLatency,
)
from repro.network import (
    Commodity,
    Edge,
    Network,
    NetworkInstance,
    ParallelLinkInstance,
    network_from_edge_list,
    parallel_links_from_coefficients,
    parallel_network_as_graph,
)
from repro.equilibrium import (
    FrankWolfeOptions,
    NetworkFlowResult,
    ParallelFlowResult,
    StackelbergOutcome,
    frank_wolfe,
    induced_network_equilibrium,
    induced_parallel_equilibrium,
    network_nash,
    network_optimum,
    parallel_nash,
    parallel_optimum,
    path_based_flow,
)
from repro.core import (
    CommoditySplit,
    MOPResult,
    NetworkStackelbergStrategy,
    OpTopResult,
    ParallelStackelbergStrategy,
    RestrictedStrategyResult,
    classify_links,
    commodity_control_split,
    frozen_link_mask,
    induced_flow_on_frozen_links,
    is_useless_strategy,
    minimum_useful_control,
    mop,
    nash_flow_monotonicity_violation,
    optimal_restricted_strategy,
    optop,
)
from repro.baselines import aloof, brute_force_strategy, llf, scale
from repro.metrics import (
    a_posteriori_ratio,
    coordination_ratio,
    general_latency_bound,
    linear_latency_bound,
    linear_price_of_anarchy_bound,
    polynomial_price_of_anarchy_bound,
    price_of_anarchy,
)
from repro.serialization import instance_digest, load_instance, save_instance
from repro.api import (
    SolveConfig,
    SolveReport,
    StrategyRegistry,
    available_strategies,
    register_strategy,
    solve,
    solve_many,
)
from repro import api
from repro import instances
from repro import study
from repro.study import (
    ArtifactStore,
    GeneratorAxis,
    StudySpec,
    make_instance,
    register_generator,
    run_study,
)
from repro.cache import LRUCache
from repro import serve
from repro.serve import ServiceStats, SolveService, TieredCache
from repro import scenarios
from repro.scenarios import (
    DemandTrace,
    ElasticReport,
    LinearDemandCurve,
    TraceAxis,
    TraceReport,
    replay_trace,
    solve_elastic,
)

__version__ = "1.1.0"

__all__ = [
    # exceptions
    "ReproError",
    "ModelError",
    "LatencyDomainError",
    "InfeasibleFlowError",
    "ConvergenceError",
    "StrategyError",
    "InstanceError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    # latency functions
    "LatencyFunction",
    "LinearLatency",
    "ConstantLatency",
    "PolynomialLatency",
    "MonomialLatency",
    "BPRLatency",
    "MM1Latency",
    "ShiftedLatency",
    "ScaledLatency",
    # networks and instances
    "ParallelLinkInstance",
    "Network",
    "Edge",
    "Commodity",
    "NetworkInstance",
    "parallel_links_from_coefficients",
    "network_from_edge_list",
    "parallel_network_as_graph",
    # equilibria
    "ParallelFlowResult",
    "NetworkFlowResult",
    "StackelbergOutcome",
    "parallel_nash",
    "parallel_optimum",
    "network_nash",
    "network_optimum",
    "frank_wolfe",
    "FrankWolfeOptions",
    "path_based_flow",
    "induced_parallel_equilibrium",
    "induced_network_equilibrium",
    # core: price of optimum
    "ParallelStackelbergStrategy",
    "NetworkStackelbergStrategy",
    "OpTopResult",
    "MOPResult",
    "RestrictedStrategyResult",
    "optop",
    "mop",
    "optimal_restricted_strategy",
    "classify_links",
    "frozen_link_mask",
    "is_useless_strategy",
    "induced_flow_on_frozen_links",
    "nash_flow_monotonicity_violation",
    "minimum_useful_control",
    "CommoditySplit",
    "commodity_control_split",
    # baselines
    "llf",
    "scale",
    "aloof",
    "brute_force_strategy",
    # metrics
    "price_of_anarchy",
    "coordination_ratio",
    "a_posteriori_ratio",
    "general_latency_bound",
    "linear_latency_bound",
    "linear_price_of_anarchy_bound",
    "polynomial_price_of_anarchy_bound",
    # unified solver-session API
    "api",
    "SolveConfig",
    "SolveReport",
    "StrategyRegistry",
    "solve",
    "solve_many",
    "register_strategy",
    "available_strategies",
    # persistence
    "save_instance",
    "load_instance",
    "instance_digest",
    # instance library
    "instances",
    # declarative study pipeline
    "study",
    "StudySpec",
    "GeneratorAxis",
    "ArtifactStore",
    "run_study",
    "make_instance",
    "register_generator",
    # serving layer
    "serve",
    "SolveService",
    "ServiceStats",
    "TieredCache",
    "LRUCache",
    # demand scenarios
    "scenarios",
    "DemandTrace",
    "ElasticReport",
    "LinearDemandCurve",
    "TraceAxis",
    "TraceReport",
    "replay_trace",
    "solve_elastic",
    "__version__",
]
