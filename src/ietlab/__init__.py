"""Numerical laboratory for suspension flows over countable interval exchanges."""


def _import_numpy_with_libm_log_exp() -> None:
    """Import numpy with its AVX-512 targets off, unless told otherwise.

    numpy's AVX-512 float64 ``log`` and ``exp`` round differently from
    libm's on some inputs; without them, numpy's loops call libm for each
    element, and ``libm.elementwise`` takes those loops (it asks numpy
    which loop runs).  numpy reads the variable once, at its first import,
    so it is set only then, and unset again so that child processes do not
    inherit it.  A value the user set for either variable, even an empty
    one, is left alone: numpy refuses to start with both set, and a numpy
    built with an AVX-512 baseline refuses to disable it.
    """
    import os
    import sys
    import warnings

    if ("numpy" in sys.modules or "NPY_DISABLE_CPU_FEATURES" in os.environ
            or "NPY_ENABLE_CPU_FEATURES" in os.environ):
        return
    os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    try:
        with warnings.catch_warnings():
            # numpy names targets it does not know in an ImportWarning
            warnings.simplefilter("ignore", ImportWarning)
            import numpy  # noqa: F401
    finally:
        del os.environ["NPY_DISABLE_CPU_FEATURES"]


_import_numpy_with_libm_log_exp()


from .errors import (
    ConfigError,
    ConsistencyError,
    ConstraintViolationError,
    InsufficientDataError,
    LabError,
    SingularityProximityError,
    TruncationExceededError,
)
from .flow import (
    AaronsonRecord,
    Cocycle2x2,
    ExperimentResult,
    FTLERecord,
    aaronson_average,
    aaronson_experiment,
    checkpoints_geometric,
    cocycle,
    flow,
    ftle,
    jacobian_step,
    lyapunov_experiment,
)
from .geometry import (
    MetricParams,
    SuspensionPoint,
    TangentVec,
    beta_factor,
    canonicalize,
    constant_C,
    metric_form,
    metric_norm,
    op_norm_between,
    op_norm_euclidean,
)
from .iet import (
    DEFAULT_TRUNCATION,
    GOLDEN_ROTATION,
    CheckReport,
    CountableIET,
    FiberPoint,
    PartitionEntropy,
    partition_entropy,
    validate,
)
from .measure import (
    AbramovResult,
    EntropyEstimate,
    InvarianceReport,
    MeasureReport,
    PointBatch,
    Region,
    SymbolStream,
    abramov,
    bernoulli_stream,
    block_entropy,
    coded_orbit_stream,
    entropy_estimate,
    invariance_check,
    lz78_rate,
    plugin_block_entropy,
    read_symbols,
    sample_mu,
    standard_boxes,
    total_mass,
    write_symbols,
)
from .roof import (
    DefaultPolicy,
    ExplicitPolicy,
    ProportionalPolicy,
    RoofIntegral,
    RoofSpec,
    RoofValue,
    SummabilityReport,
    adaptive_simpson,
    choose_b_and_check,
    gauss_legendre,
    log_derivative_integral,
    roof_integral,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConsistencyError",
    "ConstraintViolationError",
    "InsufficientDataError",
    "LabError",
    "SingularityProximityError",
    "TruncationExceededError",
    "AaronsonRecord",
    "Cocycle2x2",
    "ExperimentResult",
    "FTLERecord",
    "aaronson_average",
    "aaronson_experiment",
    "checkpoints_geometric",
    "cocycle",
    "flow",
    "ftle",
    "jacobian_step",
    "lyapunov_experiment",
    "MetricParams",
    "SuspensionPoint",
    "TangentVec",
    "beta_factor",
    "canonicalize",
    "constant_C",
    "metric_form",
    "metric_norm",
    "op_norm_between",
    "op_norm_euclidean",
    "DEFAULT_TRUNCATION",
    "GOLDEN_ROTATION",
    "CheckReport",
    "CountableIET",
    "FiberPoint",
    "PartitionEntropy",
    "partition_entropy",
    "validate",
    "AbramovResult",
    "EntropyEstimate",
    "InvarianceReport",
    "MeasureReport",
    "PointBatch",
    "Region",
    "SymbolStream",
    "abramov",
    "bernoulli_stream",
    "block_entropy",
    "coded_orbit_stream",
    "entropy_estimate",
    "invariance_check",
    "lz78_rate",
    "plugin_block_entropy",
    "read_symbols",
    "sample_mu",
    "standard_boxes",
    "total_mass",
    "write_symbols",
    "DefaultPolicy",
    "ExplicitPolicy",
    "ProportionalPolicy",
    "RoofIntegral",
    "RoofSpec",
    "RoofValue",
    "SummabilityReport",
    "adaptive_simpson",
    "choose_b_and_check",
    "gauss_legendre",
    "log_derivative_integral",
    "roof_integral",
    "__version__",
]
