"""Exact-arithmetic workbench for graded lattice-point series of lattice
polytopes, built on vanishing ideals of point configurations and their
dual (inverse-system) spaces.
"""

from .polytope import LatticePolytope, PointLocus, minkowski_sum
from .posets import Poset, chain_polytope, order_polytope, stanley_transfer
from .qseries import (BivarPoly, QPoly, RatFun2, TQSeries,
                      denominator_search, fit_numerator)
from .harmonics import (GBasis, HarmonicBasis, MultiPoly, apolarity_pair,
                        buchberger_moeller, closure_check, gr_component,
                        gr_ideal, harmonic_basis)
from .ehrhart import (check_dilation, check_join, check_product,
                      classical_check, guess, iq, iq_interior,
                      reciprocity_check, series_E, series_Ebar,
                      simplex_numerators, weight_series_W, weight_series_Wbar)
from .halgebra import (chain_order_equality, component, generation_check,
                       product_span, subalgebra_hilbert)
from .modp import (beta_bound, closure_check_modp, divided_mul,
                   harmonic_basis_modp)
from .equivariant import (GroupElement, decompose, equivariant_series,
                          graded_character, stabilizer_check)

__version__ = "0.1.0"
