"""Instance-kind resolution shared by the strategy registry and the sweeps.

Dispatch on ``isinstance`` checks against the two concrete instance classes
alone would break for duck-typed wrappers and for instance subclasses
reconstructed through serialisation layers.  The resolver here first tries
the nominal types (which covers subclasses) and then falls back to
structural typing, so anything that *behaves* like a parallel-link or
network instance dispatches correctly.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ModelError
from repro.network.instance import NetworkInstance
from repro.network.parallel import ParallelLinkInstance

__all__ = ["resolve_instance_kind", "PARALLEL", "NETWORK"]

PARALLEL = "parallel"
NETWORK = "network"


def resolve_instance_kind(instance: Any) -> str:
    """Classify ``instance`` as ``"parallel"`` or ``"network"``.

    Accepts the concrete classes, their subclasses, and any structurally
    compatible object (e.g. instances reconstructed by a foreign loader):
    an object with ``latencies``/``demand``/``num_links`` is treated as a
    parallel-link instance, one with ``network``/``commodities`` as a network
    instance.
    """
    if isinstance(instance, ParallelLinkInstance):
        return PARALLEL
    if isinstance(instance, NetworkInstance):
        return NETWORK
    if (hasattr(instance, "latencies") and hasattr(instance, "demand")
            and hasattr(instance, "num_links")):
        return PARALLEL
    if hasattr(instance, "network") and hasattr(instance, "commodities"):
        return NETWORK
    raise ModelError(
        f"expected a ParallelLinkInstance or NetworkInstance (or a structurally "
        f"compatible object), got {type(instance).__name__}")
