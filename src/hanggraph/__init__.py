"""hanggraph: exact metric invariants of finite simple graphs.

The central notion: a connected graph is hangable when every vertex's
farthest-vertex set lies inside the graph periphery.  The package computes
distances, eccentricities and peripheries, decides hangability two
independent ways, decomposes graphs into blocks, builds corona / box / join
products together with closed-form metric oracles, embeds any graph into a
hangable one at most one vertex larger, and ships brute-force search tooling
for small-graph corpora.
"""

from .blocks import BlockDecomposition, biconnected_components, is_block_graph, is_tree
from .embedding import EmbeddingResult, hangable_embedding, verify_induced_subgraph
from .explorer import (Classification, classify_graph, classify_stream,
                       search_hangable_subgraphs, smallest_hangable_power)
from .graph import (DisconnectedGraphError, Graph, GraphInputError, complement,
                    disjoint_union, from_edge_list, induced_subgraph, is_connected,
                    parse_edge_list, power, to_edge_list)
from .graph6 import Graph6Error, from_graph6, to_graph6
from .kernels import BACKEND as kernel_backend
from .kernels import BACKEND_REASON as kernel_backend_reason
from .metrics import (DistanceMatrix, HangabilityReport, MetricProfile,
                      all_pairs_distances, bfs_distances, check_hangable,
                      check_hangable_triples, is_self_centered, metric_profile)
from .products import (CartesianMetrics, CoronaMetrics, ProductVertexMap,
                       cartesian, cartesian_distance_matrix, cartesian_metric_oracle, corona,
                       corona_distance_matrix, corona_distance_oracle,
                       corona_metric_oracle, join, join_hangability_predicate,
                       universal_vertices)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "CartesianMetrics",
    "Classification",
    "CoronaMetrics",
    "DisconnectedGraphError",
    "DistanceMatrix",
    "EmbeddingResult",
    "Graph",
    "Graph6Error",
    "GraphInputError",
    "HangabilityReport",
    "MetricProfile",
    "ProductVertexMap",
    "all_pairs_distances",
    "bfs_distances",
    "biconnected_components",
    "cartesian",
    "cartesian_distance_matrix",
    "cartesian_metric_oracle",
    "check_hangable",
    "check_hangable_triples",
    "classify_graph",
    "classify_stream",
    "complement",
    "corona",
    "corona_distance_matrix",
    "corona_distance_oracle",
    "corona_metric_oracle",
    "disjoint_union",
    "from_edge_list",
    "from_graph6",
    "hangable_embedding",
    "induced_subgraph",
    "is_block_graph",
    "is_connected",
    "is_self_centered",
    "is_tree",
    "join",
    "join_hangability_predicate",
    "kernel_backend",
    "kernel_backend_reason",
    "metric_profile",
    "parse_edge_list",
    "power",
    "search_hangable_subgraphs",
    "smallest_hangable_power",
    "to_edge_list",
    "to_graph6",
    "universal_vertices",
    "verify_induced_subgraph",
]
