"""Constants of the kernel contract that both backends share.

``_pykernel`` and ``_ckernel`` return the same flag bits and verifier codes,
and ``kernels`` re-exports them.  They live here, apart from either backend,
so that reading them loads neither: a process on the compiled kernel never
needs the pure twin's source.  ``hgkernel.c`` defines the same values.
"""

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
