"""Optional numba acceleration for fgp's exchange kernel (``_select_swap``).

Set QCOREMAP_NO_NUMBA=1 to run its numpy fallback instead.
The flag is read once at import time.
"""

import os


def _disabled_by_env() -> bool:
    return os.environ.get("QCOREMAP_NO_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}


NUMBA_ENABLED = False
if not _disabled_by_env():
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:
        pass


def jit(func):
    """Compile with numba when enabled, otherwise return ``func`` unchanged."""
    if NUMBA_ENABLED:
        return _njit(cache=True)(func)
    return func
