"""The kernel contract that both backends share.

``_pykernel`` and ``_ckernel`` each define every function in ``KERNELS``
with the same parameters, return the same flag bits and verifier codes,
and refuse the same sizes (``size_error``); ``kernels`` binds the names
from the selected module.  All of it lives here, apart from either backend,
so that reading it loads neither: a process on the compiled kernel never
needs the pure twin's source.  ``hgkernel.c`` defines the same values.
"""

# the public kernel functions, the same on both backends
KERNELS = ("apsp", "is_connected_masks", "hangable_subset", "hangable_triples",
           "is_block_graph_masks", "smallest_power_k", "classify_bits", "classify_masks",
           "graph6_masks", "corona_verify", "cartesian_verify", "join_verify", "profile",
           "subgraph_counts")

# the most vertices a distance matrix may have: every distance of a connected
# graph on them fits int16, the type the compiled kernel stores them in
MAX_DISTANCE_N = 32767
# the most vertices classify_bits takes: C(11, 2) = 55 edge bits fit a word
MAX_CLASSIFY_N = 11

# classify_bits flag bits
F_CONNECTED = 1
F_HANGABLE = 2
F_HANGABLE_TRIPLES = 4
F_SELF_CENTERED = 8
F_BLOCK_GRAPH = 16
F_TREE = 32
# classify_masks adds the complement's connectivity, and whether the graph is
# isomorphic to its complement, decided up to SELF_COMPLEMENTARY_MAX_N vertices
F_COMPLEMENT_CONNECTED = 64
F_SELF_COMPLEMENTARY = 128
SELF_COMPLEMENTARY_MAX_N = 8

# corona_verify / cartesian_verify failure codes, 0 = all statements hold
VERIFY_OK = 0
VERIFY_DISTANCE = 1
VERIFY_ECCENTRICITY = 2
VERIFY_DIAMETER = 3
VERIFY_VERTEX_PERIPHERY = 4
VERIFY_GRAPH_PERIPHERY = 5
VERIFY_HANGABLE = 6


def size_error(name: str, n: int, limit: int) -> ValueError:
    """The error of kernel ``name`` on n vertices, n below 1 or past ``limit``.

    Each call holds the vertex count of its matrix, graph or product to
    ``MAX_DISTANCE_N`` (``classify_bits`` to ``MAX_CLASSIFY_N``, and
    ``subgraph_counts`` its k to the host's n too) and, but for ``apsp`` and
    ``is_connected_masks``, to at least one vertex; ``is_block_graph_masks``
    and ``graph6_masks`` serve any size.  Both backends test the bounds
    inline, before allocating anything, and build this only on failure."""
    need = f"at most {limit} vertices" if n > limit else "at least one vertex"
    return ValueError(f"{name} needs {need}, got {n}")
