"""Exact-arithmetic laboratory for a fractal two-weight pair on [0,1).

The package constructs the middle-third weight pair (w_k, sigma_k), computes
exact masses, averages and distribution functions, evaluates sparse testing
sums, the Hilbert transform through the log kernel, and Lorentz/Orlicz bump
products, and ships an acceptance suite pinning every desk-scale estimate.
"""

from .enclosure import Enclosure, FloatInterval, parse_q, qstr
from .triadic import (IntervalQ, TriadicCell, cell_from_address, cell_from_index,
                      middle_child, nested_or_disjoint, triadic_cover)
from .weights import (CompositeWeight, ConstructionParams, SupportCell, WeightModel,
                      build_construction, direct_sum, weight_on_cell)
from .measures import (ap_product, average, carrier_generation, mass, packing_sum,
                       smallest_carrier)
from .sparse import (SparseFamily, carleson_check, gen_adversarial,
                     gen_random_martingale, gen_weak_family, is_martingale_sparse,
                     sparse_apply, sparse_maximal, split_weak_to_martingale,
                     testing_report, testing_sum)
from .hilbert import (hilbert_indicator, hilbert_norm_ratio,
                      hilbert_pointwise_report, hilbert_weight, maximal_at,
                      maximal_report)
from .lorentz import (DistributionSteps, QuasiConcaveFn, YoungFn, blowup_suite,
                      bump_product, distribution, fundamental_compare,
                      fundamental_of, llogl_young, lorentz_norm, luxemburg_norm,
                      phi0, phi_r_young, psi, series_ratio)

__version__ = "0.1.0"
