"""Exact-arithmetic laboratory for a fractal two-weight pair on [0,1).

The package constructs the middle-third weight pair (w_k, sigma_k), computes
exact masses, averages and distribution functions, evaluates testing sums
over martingale-sparse families, the Hilbert transform through the log
kernel, and Lorentz/Orlicz bump products, and ships an acceptance suite
pinning every desk-scale estimate.
"""

from .enclosure import Enclosure, FloatInterval, parse_q, qstr
from .triadic import IntervalQ, TriadicCell, cell_from_index
from .weights import ConstructionParams, SupportCell, WeightModel, build_construction
from .measures import ap_product, average, carrier_generation, mass, packing_sum
from .sparse import (SparseFamily, carleson_check, gen_adversarial,
                     gen_random_martingale, is_martingale_sparse, testing_report,
                     testing_sum)
from .hilbert import (hilbert_norm_ratio, hilbert_pointwise_report, hilbert_weight,
                      maximal_at, maximal_report)
from .lorentz import (DistributionSteps, QuasiConcaveFn, YoungFn, blowup_suite,
                      bump_product, distribution, fundamental_compare,
                      fundamental_of, llogl_young, lorentz_norm, luxemburg_norm,
                      phi0, phi_r_young, psi, series_ratio)

__version__ = "0.1.0"
