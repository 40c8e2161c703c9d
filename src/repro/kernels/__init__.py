"""Hot-path kernels: one pure-numpy implementation per op, metered per call.

See DESIGN.md § "Kernel layer".  Importing this package registers every op
(:mod:`repro.kernels.pykernels`).
"""

from repro.kernels.dispatch import (
    DispatchedKernel,
    dispatch,
    kernel_seconds_snapshot,
    register,
    registered_ops,
)

import repro.kernels.pykernels  # noqa: E402,F401  (registers the ops)

__all__ = [
    "DispatchedKernel",
    "dispatch",
    "kernel_seconds_snapshot",
    "register",
    "registered_ops",
]
