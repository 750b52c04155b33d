"""Clique-width expressions and the geometry they induce.

Parse and evaluate width-k expressions, split the resulting graph into a
dominated monochromatic partition whose quotient carries a width-(k-1)
tree decomposition, certify the projection as a quasi-isometry, build
low-palette witness expressions and minor models, and pull scaled covers
back through distance-respecting maps.  A small exact treewidth oracle
double-checks everything within a configurable size cap; above it, a
linear clique-minor bound certifies min(tw, 3).
"""

from .corpus import generate_corpus, random_strict_expr
from .covers import (CoverFamily, cover_by_components, cover_from_json_dict,
                     cover_to_json_dict, pullback_cover, validate_cover)
from .decomposition import (DecompositionResult, decompose, result_to_dot,
                            result_to_json_dict, verify_result)
from .errors import (ContractError, CwkitError, InputError, ParseError,
                     SizeCapError)
from .expressions import (CwExpr, Join, Leaf, Recolor, Union,
                          ValidationReport, Violation, evaluate, format_expr,
                          normalize, parse, read_cwx, validate_strict,
                          write_cwx)
from .generators import (MinorModel, build_minor_model, complete_graph,
                         gen_path, gen_spider, gen_subdivided_clique,
                         model_to_json_dict, subdivide, subdivision_path,
                         validate_minor_model)
from .graphs import (INFINITE, ColoredGraph, Graph, Partition, bfs_distances,
                     closed_r_neighborhood, connected_components,
                     graph_from_json_dict, graph_to_dot, graph_to_json_dict,
                     is_connected, is_dominated, quotient, set_distance,
                     weak_diameter)
from .quasiiso import (PartitionQiReport, QiMap, QiReport, check_partqi_tight,
                       check_qi, projection_map, qimap_from_json_dict)
from .treedecomp import (CheckResult, TreeDecomposition, VerificationReport,
                         brute_treewidth, is_tree, td_to_dot, td_to_json_dict,
                         validate_td, width)

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
