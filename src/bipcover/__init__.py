"""Monochromatic tree covers and partitions of 2-edge-coloured bipartite graphs.

Library layout:

* :mod:`bipcover.graph` - graph/colouring types, component extraction,
  cover and partition validators.
* :mod:`bipcover.models` - seeded random graph and colouring samplers.
* :mod:`bipcover.adversary` - lower-bound colouring constructions.
* :mod:`bipcover.construct` - the construction steps cover and mindeg share.
* :mod:`bipcover.cover` - the almost-cover algorithm (at most 3 trees).
* :mod:`bipcover.mindeg` - the minimum-degree 3-partition algorithm.
* :mod:`bipcover.exact` - exact brute-force cover/partition solvers.
* :mod:`bipcover.properties` - pseudo-randomness property checks.
* :mod:`bipcover.sweep` - threshold sweep experiment harness.
* :mod:`bipcover.cli` - the ``bipcover`` command line front end.
"""

from .adversary import (Lower3Witness, Lower4Witness, colour_blowup_pair,
                        colour_lower3, colour_lower4, lower4_witness_valid)
from .errors import (BipcoverError, ConstructionInfeasibleError, FormatError,
                     InvalidArgumentError, NotConnectedError,
                     PartitionFailureError, PropertyFailureError,
                     TooLargeError)
from .cover import (AuditReport, CoverCase, CoverParams, CoverState,
                    almost_cover, audit_state, classify_case)
from .exact import ExactResult, KnnReport, exhaustive_knn_check, tc_exact, tp_exact
from .graph import (BLUE, RED, BipartiteGraph, Colour, MonoPartition, MonoTree,
                    RColouring, TreeCover, TwoColouring, Vertex,
                    degree, edge_count_between, monochromatic_components,
                    spanning_tree_of, validate_cover, validate_partition)
from .mindeg import (PartitionParams, PartitionState, audit_partition_state,
                     partition3)
from .models import (ModelParams, as_fraction, sample_bipartite,
                     sample_colouring, sample_mindeg_subgraph)
from .properties import (PropertyReport, check_degrees, check_domination,
                         check_expansion, check_min_degree_connectivity,
                         count_no_common_neighbour_pairs)
from .sweep import SweepConfig, SweepRecord, records_to_csv, run_sweep, summarise

__all__ = [
    "BLUE", "RED", "BipartiteGraph", "Colour", "MonoPartition", "MonoTree",
    "RColouring", "TreeCover", "TwoColouring", "Vertex",
    "degree", "edge_count_between", "monochromatic_components",
    "spanning_tree_of", "validate_cover", "validate_partition",
    "ModelParams", "as_fraction", "sample_bipartite", "sample_colouring",
    "sample_mindeg_subgraph",
    "Lower3Witness", "Lower4Witness", "colour_blowup_pair", "colour_lower3",
    "colour_lower4", "lower4_witness_valid",
    "AuditReport", "CoverCase", "CoverParams", "CoverState", "almost_cover",
    "audit_state", "classify_case",
    "PartitionParams", "PartitionState", "audit_partition_state", "partition3",
    "ExactResult", "KnnReport", "exhaustive_knn_check", "tc_exact", "tp_exact",
    "PropertyReport", "check_degrees", "check_domination", "check_expansion",
    "check_min_degree_connectivity", "count_no_common_neighbour_pairs",
    "SweepConfig", "SweepRecord", "records_to_csv", "run_sweep", "summarise",
    "BipcoverError", "ConstructionInfeasibleError", "FormatError",
    "InvalidArgumentError", "NotConnectedError", "PartitionFailureError",
    "PropertyFailureError", "TooLargeError",
]
