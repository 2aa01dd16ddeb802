"""specfield: spectral analysis of stationary random fields on Z^d.

Moving-average field models with deterministic counter-based sampling,
modulated sums and periodograms off the Fourier grid, exact second-moment
theory (Fejer-weighted expectations, covariance decay between separated
frequencies), Bernstein blocking with index-product truncation, Gaussian
maximal-correlation diagnostics, and Monte Carlo verification of the
joint Gaussian/exponential limit laws.
"""

from .domain import BoxDims, Frequency
from .kernels import dirichlet_mod, fejer, fejer_product
from .fieldgen import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, FieldSample,
                       LinearFieldSpec, autocovariance, autocovariance_table,
                       first_axis_ma1, generate, generate_batch,
                       replication_seeds, spec_from_json, spec_to_json,
                       spectral_density, white_noise)
from .periodogram import modulated_sum, periodogram, periodogram_vector
from .spectral import (ExpectationReport, InternalConsistencyError,
                       covariance_of_sums, expected_periodogram_exact,
                       expected_periodogram_quadrature, product_of_sums,
                       sum_covariance, uniform_convergence_report)
from .frequencies import (FrequencyScheme, SeparationSpec, build_separated,
                          check_separation, is_admissible)
from .blocking import (BlockingPlan, IndexSlab, TruncatedField, block_index_sets,
                       negligibility_report, plan, truncate, truncated_second_moments)
from .mixing import (IndexSetPair, MixingProfile, canonical_rho, dependence_profile,
                     rho_prime_profile)
from .stats import (CltReport, MillerReport, cross_frequency_independence,
                    g_functional, ks_statistic, miller_check, run_clt_experiment)

__version__ = "0.1.0"
