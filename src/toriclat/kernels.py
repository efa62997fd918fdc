"""Kernel backend selection.

Prefers the compiled extension when it was built; set TORICLAT_PURE=1 in
the environment to force the pure-Python fallback.  Both backends are
importable side by side for cross-checks and benchmarks.
"""

from __future__ import annotations

import os

from . import _kernels_py as pure

compiled = None
if not os.environ.get("TORICLAT_PURE"):
    try:
        from . import _kernels_c as compiled  # type: ignore[no-redef]
    except ImportError:
        compiled = None

_impl = compiled if compiled is not None else pure

BACKEND = "c" if compiled is not None else "python"

MODEL_ONE_PER_CELL = pure.MODEL_ONE_PER_CELL
MODEL_UNIFORM_CLUSTER = pure.MODEL_UNIFORM_CLUSTER

simulate_trials = _impl.simulate_trials
