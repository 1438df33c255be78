"""Kernel backend selection.

The compiled extension is preferred when present; the pure-Python twin is
the fallback.  ``FORCING_LAB_BACKEND=python`` (or ``compiled``) forces a
choice, which the benchmark and the parity tests rely on; unset or empty
means automatic.
"""

from __future__ import annotations

import os

_choice = os.environ.get("FORCING_LAB_BACKEND", "").strip().lower()

if _choice == "":
    try:
        from . import _ckernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl  # type: ignore[no-redef]
elif _choice == "compiled":
    from . import _ckernels as _impl  # type: ignore[attr-defined, no-redef]
elif _choice == "python":
    from . import _kernels_py as _impl  # type: ignore[no-redef]
else:
    raise ImportError(f"unknown FORCING_LAB_BACKEND value: {_choice!r}")

BACKEND_NAME = _impl.BACKEND_NAME

make_handle = _impl.make_handle
pm_count = _impl.pm_count
pm_enumerate = _impl.pm_enumerate
alt_cycles = _impl.alt_cycles
pack_masks = _impl.pack_masks

# the compiled whole-search values (compiled backend only); see solver._value
forcing_value = getattr(_impl, "forcing_value", None)
anti_forcing_value = getattr(_impl, "anti_forcing_value", None)
# always None: neither backend has a maximum independent set, but the
# benchmark's tracer names ``mis`` among the kernels it times
mis = None
