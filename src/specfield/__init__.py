"""specfield: spectral analysis of stationary random fields on Z^d.

Moving-average field models with deterministic counter-based sampling,
modulated sums and periodograms off the Fourier grid, exact second-moment
theory (Fejer-weighted expectations, covariance decay between separated
frequencies), Bernstein blocking with index-product truncation, Gaussian
maximal-correlation diagnostics, and Monte Carlo verification of the
joint Gaussian/exponential limit laws.

The namespace is lazy: each public name imports its module on first use,
so ``import specfield`` alone loads no numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "domain": ("BoxDims", "Frequency"),
    "kernels": ("dirichlet_mod", "fejer"),
    "model": ("CIRCULAR_GAUSSIAN", "REAL_GAUSSIAN", "FieldSample", "LinearFieldSpec",
              "autocovariance", "first_axis_ma1", "spec_from_json", "spec_to_json",
              "spectral_density", "white_noise"),
    "fieldgen": ("generate", "generate_batch", "replication_seeds"),
    "periodogram": ("modulated_sum", "periodogram", "periodogram_vector"),
    "spectral": ("ExpectationReport", "covariance_of_sums", "expected_periodogram_exact",
                 "expected_periodogram_quadrature", "product_of_sums", "sum_covariance",
                 "uniform_convergence_report"),
    "_util": ("InternalConsistencyError",),
    "frequencies": ("FrequencyScheme", "SeparationSpec", "build_separated",
                    "check_separation", "is_admissible"),
    "bernstein": ("BlockingPlan", "IndexSlab", "MixingProfile", "block_index_sets", "plan"),
    "mixing": ("IndexSetPair", "canonical_rho", "dependence_profile", "rho_prime_profile"),
    "stats": ("CltReport", "MillerReport", "cross_frequency_independence", "g_functional",
              "ks_statistic", "miller_check", "negligibility_report", "run_clt_experiment",
              "truncated_second_moments"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module of a public name on its first access, and keep the name."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Namespace(types.ModuleType):
    """The package's module type: the import system binds each submodule it
    loads on the package, except one named like a public name (``periodogram``),
    which stays the public function."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
