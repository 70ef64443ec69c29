"""Batched per-UE simulation kernel (bit-identical fast path).

``repro.kernel`` steps eligible UEs over flat per-UE state instead of one
Python object per packet, reproducing the reference engine's results bit
for bit (same RNG draw order, same timestamps, same event-order ties).
The runners select it through :func:`resolve_kernel` — explicitly, via
the ``REPRO_SIM_KERNEL`` environment variable, or ``auto`` with silent
fallback to the reference engine for unsupported traffic shapes.
"""

from .adapter import (
    KERNELS,
    build_session_lane,
    resolve_kernel,
)
from .engine import SETTLE_S, LaneSpec, run_lane

__all__ = [
    "KERNELS",
    "LaneSpec",
    "SETTLE_S",
    "build_session_lane",
    "resolve_kernel",
    "run_lane",
]
