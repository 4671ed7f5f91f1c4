"""Kernel backend selection.

The backend is chosen once, at import.  The compiled kernel (``_ckernel``, C
built on first import) is used when it loads, and it answers every call
itself; when it cannot be built or loaded, the pure-Python twin
(``_pykernel``) answers everything and a RuntimeWarning says why.  Setting
HANGGRAPH_PURE=1 forces the pure twin without trying the build.  So
``BACKEND`` alone says which code answered, and ``BACKEND_REASON`` why: the
shared object loaded, HANGGRAPH_PURE=1, or the error that kept the compiled
kernel out.  The fourteen kernel names here are the selected module's own
functions; both modules implement the same signatures and are
equivalence-tested against each other.  The flag bits, verifier codes and
SELF_COMPLEMENTARY_MAX_N are re-exported from ``_contract``, so on the
compiled backend this module never imports ``_pykernel``.
"""

from __future__ import annotations

import os

from ._contract import (  # re-exported contract constants
    F_BLOCK_GRAPH,
    F_COMPLEMENT_CONNECTED,
    F_CONNECTED,
    F_HANGABLE,
    F_HANGABLE_TRIPLES,
    F_SELF_CENTERED,
    F_SELF_COMPLEMENTARY,
    F_TREE,
    SELF_COMPLEMENTARY_MAX_N,
    VERIFY_DIAMETER,
    VERIFY_DISTANCE,
    VERIFY_ECCENTRICITY,
    VERIFY_GRAPH_PERIPHERY,
    VERIFY_HANGABLE,
    VERIFY_OK,
    VERIFY_VERTEX_PERIPHERY,
)


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


_c, BACKEND_REASON = _load_compiled()
BACKEND = "compiled" if _c is not None else "pure"

if _c is not None:
    from ._ckernel import (apsp, cartesian_verify, classify_bits, classify_masks,
                           corona_verify, graph6_masks, hangable_subset, hangable_triples,
                           is_block_graph_masks, is_connected_masks, join_verify,
                           profile, smallest_power_k, subgraph_counts)
else:
    from ._pykernel import (apsp, cartesian_verify, classify_bits, classify_masks,
                            corona_verify, graph6_masks, hangable_subset, hangable_triples,
                            is_block_graph_masks, is_connected_masks, join_verify,
                            profile, smallest_power_k, subgraph_counts)
