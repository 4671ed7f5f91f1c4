"""Kernel backend selection.

The backend is chosen once, at import.  The compiled kernel (``_ckernel``, C
built on first import) is used when it loads, and it answers every call
itself; when it cannot be built or loaded, the pure-Python twin
(``_pykernel``) answers everything and a RuntimeWarning says why.  Setting
HANGGRAPH_PURE=1 forces the pure twin without trying the build.  So
``BACKEND`` alone says which code answered, and ``BACKEND_REASON`` why: the
shared object loaded, HANGGRAPH_PURE=1, or the error that kept the compiled
kernel out.  Each name in ``_contract.KERNELS`` is bound here to the
selected module's own function; both modules implement the same signatures
and are equivalence-tested against each other.  The flag bits, verifier
codes and limits are re-exported from ``_contract``, so on the compiled
backend this module never imports ``_pykernel``.
"""

from __future__ import annotations

import os

from ._contract import *  # noqa: F403 -- the contract, re-exported whole


def _load_compiled():
    """The compiled kernel module, or None; and the reason either way."""
    if os.environ.get("HANGGRAPH_PURE") == "1":
        return None, "HANGGRAPH_PURE=1"
    try:
        from . import _ckernel
    except ImportError as exc:
        import warnings

        reason = str(exc) or repr(exc)
        warnings.warn(f"hanggraph: compiled kernel unavailable, using the pure-Python "
                      f"kernel: {reason}", RuntimeWarning, stacklevel=2)
        return None, reason
    return _ckernel, f"loaded {_ckernel.LIBRARY}"


_backend, BACKEND_REASON = _load_compiled()
BACKEND = "compiled" if _backend is not None else "pure"
if _backend is None:
    from . import _pykernel as _backend

for _name in KERNELS:
    globals()[_name] = getattr(_backend, _name)
