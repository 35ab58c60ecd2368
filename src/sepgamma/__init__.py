"""Exact gamma-polynomials, h*-polynomials and normalized volumes of
symmetric edge polytopes (types A and B) from graphs, with every formula
path cross-checkable against independent brute-force oracles."""

from .engine import (ROUTES, SepResult, WheelData, gamma_a_cut_sum,
                     gamma_a_cycle_reference, gamma_a_suspension, gamma_b,
                     gamma_b_interior, solve, suspension_gamma_formula,
                     wheel_closed_form)
from .errors import (BoundExceededError, GraphFormatError, PreconditionError,
                     SepGammaError, VerificationError)
from .graphs import (Bipartition, Cut, Graph, GraphClassification, classify,
                     complement, complete_bipartite, complete_graph, cuts,
                     cycle_graph, empty_graph, lex_product,
                     lex_product_complete, line_graph, parse_graph,
                     path_graph, simple_cycles, star_graph, suspension, tilde,
                     to_edge_list_text)
from .interior import (Hypergraph, bip, cut_sum_gamma, hypergraph_from_bipartite,
                       hypertrees, interior_poly, interior_tilde_definition,
                       interior_tilde_fast, spanning_trees)
from .ehrhart import (EhrhartData, LatticePolytope, build_a, build_b,
                      count_points, ehrhart_data, h_representation,
                      hstar_from_counts, oracle_hstar_a, oracle_hstar_b,
                      reduce_to_full_dim, reflexivity_check)
from .matching import (MatchingProfile, gen_poly, independence_poly,
                       matched_vertex_sets, matched_vertex_sets_formula,
                       matching_counts, matching_poly, matching_profile,
                       tiling_poly)
from .polynomials import (Poly, PropertyReport, RealRoots, check_properties,
                          gamma_to_hstar, hstar_to_gamma, is_real_rooted,
                          real_rootedness)
from .spectral import (char_poly_adjacency, mu_poly, uniform_weights,
                       verify_gamma_mu_bridge)
from .witness import (FlagWitness, clique_f_poly, independence_composition_check,
                      witness_a, witness_b)

__version__ = "0.1.0"
