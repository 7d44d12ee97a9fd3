"""The paper's primary contribution: the Price of Optimum.

Given an instance ``(M, r)``, the *Price of Optimum* ``beta_M`` is the minimum
portion of the total flow a Stackelberg Leader must control so that some
strategy induces the global optimum cost ``C(O)``.  This package implements:

* :func:`optop` — algorithm **OpTop** for parallel links (Corollary 2.2),
* :func:`mop` — algorithm **MOP** for s–t and k-commodity networks
  (Corollary 2.3 / Theorem 2.1),
* :func:`optimal_restricted_strategy` — the Theorem 2.4 polynomial-time
  optimal strategy for hard instances ``(M, r, alpha < beta_M)`` with
  common-slope linear latencies,
* the structural theory OpTop relies on: link classification
  (Definition 4.3), frozen links (Definition 4.4, Theorem 7.4, Lemma 7.5),
  useless strategies (Theorem 7.2), Nash monotonicity (Proposition 7.1) and
  the minimum-useful-control threshold (footnote 6 / Sharma–Williamson).
"""

from repro.core.strategy import NetworkStackelbergStrategy, ParallelStackelbergStrategy
from repro.core.optop import OpTopResult, OpTopRound, optop
from repro.core.mop import MOPResult, mop
from repro.core.linear_optimal import (
    RestrictedStrategyResult,
    optimal_restricted_strategy,
)
from repro.core.frozen import (
    classify_links,
    frozen_link_mask,
    induced_flow_on_frozen_links,
    is_useless_strategy,
)
from repro.core.monotonicity import nash_flow_monotonicity_violation
from repro.core.thresholds import minimum_useful_control
from repro.core.commodity_split import CommoditySplit, commodity_control_split

__all__ = [
    "ParallelStackelbergStrategy",
    "NetworkStackelbergStrategy",
    "OpTopResult",
    "OpTopRound",
    "optop",
    "MOPResult",
    "mop",
    "RestrictedStrategyResult",
    "optimal_restricted_strategy",
    "classify_links",
    "frozen_link_mask",
    "is_useless_strategy",
    "induced_flow_on_frozen_links",
    "nash_flow_monotonicity_violation",
    "minimum_useful_control",
    "CommoditySplit",
    "commodity_control_split",
]
