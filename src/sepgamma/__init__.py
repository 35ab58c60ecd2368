"""Exact gamma-polynomials, h*-polynomials and normalized volumes of
symmetric edge polytopes (types A and B) from graphs, with every formula
path cross-checkable against independent brute-force oracles."""

from .engine import ROUTES, SepResult, solve
from .errors import (BoundExceededError, GraphFormatError, PreconditionError,
                     SepGammaError, VerificationError)
from .graphs import (Bipartition, Graph, GraphClassification, classify,
                     complete_bipartite, complete_graph, cycle_graph,
                     empty_graph, parse_graph, path_graph, simple_cycles,
                     star_graph, suspension, to_edge_list_text)
from .interior import cut_sum_gamma
from .ehrhart import (EhrhartData, LatticePolytope, build_a, build_b,
                      count_points, ehrhart_data, h_representation,
                      hstar_from_counts)
from .matching import matchable_pairs, tiling_poly
from .polynomials import (Poly, PropertyReport, RealRoots, gamma_to_hstar,
                          hstar_to_gamma, property_reports, real_rootedness)
from .spectral import mu_poly, verify_gamma_mu_bridge
from .witness import FlagWitness, clique_f_poly, witness_a, witness_b

__version__ = "0.1.0"
