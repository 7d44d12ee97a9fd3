"""Equilibrium and optimum flow solvers.

Two regimes:

* **Parallel links** — exact *water-filling* solvers.  The Nash (Wardrop)
  equilibrium equalises latencies on used links (Remark 4.1), the system
  optimum equalises marginal costs; both reduce to a one-dimensional monotone
  root-finding problem in the common level.  Constant latencies are handled as
  flow sinks at their fixed level (the documented model extension).
* **General networks** — iterative solvers.  :func:`network_nash` minimises the
  Beckmann potential, :func:`network_optimum` minimises the total cost, under
  ``auto`` with path equilibration plus column generation
  (:func:`path_based_flow`), which stops once the relative path-cost residual
  of every commodity is at most ``1e-12``, or, when asked for by name, with
  Frank–Wolfe (all-or-nothing direction + golden-section line search).

:func:`induced_parallel_equilibrium` / :func:`induced_network_equilibrium`
compute the Followers' reaction to a Stackelberg strategy by shifting every
latency by the Leader's pre-load and solving the residual Nash problem — the
a-posteriori equilibria of Section 4.
"""

from repro.equilibrium.result import (
    NetworkFlowResult,
    ParallelFlowResult,
    StackelbergOutcome,
)
from repro.equilibrium.parallel import (
    parallel_nash,
    parallel_optimum,
    water_fill,
)
from repro.equilibrium.frank_wolfe import FrankWolfeOptions, frank_wolfe
from repro.equilibrium.pathbased import path_based_flow
from repro.equilibrium.network import network_nash, network_optimum
from repro.equilibrium.induced import (
    induced_network_equilibrium,
    induced_parallel_equilibrium,
)
from repro.equilibrium.verify import (
    parallel_optimality_gap,
    parallel_wardrop_gap,
    network_wardrop_gap,
    network_optimality_gap,
    network_commodity_gap,
)

__all__ = [
    "ParallelFlowResult",
    "NetworkFlowResult",
    "StackelbergOutcome",
    "parallel_nash",
    "parallel_optimum",
    "water_fill",
    "FrankWolfeOptions",
    "frank_wolfe",
    "path_based_flow",
    "network_nash",
    "network_optimum",
    "induced_parallel_equilibrium",
    "induced_network_equilibrium",
    "parallel_wardrop_gap",
    "parallel_optimality_gap",
    "network_wardrop_gap",
    "network_optimality_gap",
    "network_commodity_gap",
]
