"""poscomm: a numerical laboratory for positive commutators i[f(P), g(Q)].

Builds and spectrally analyzes the commutator of a Fourier multiplier
f(P) with a multiplication operator g(Q) for bounded real f, g; verifies
kernel formulas, trace identities, positivity certificates, finite-rank
structure, monotone-composition stability, and the tanh-measure
representation machinery at desk scale.
"""

__version__ = "0.1.0"

from .averaging import (
    AveragingProfile,
    averaged_quotient,
    averaging_weight,
    convergence_study,
)
from .errors import (
    AccuracyError,
    ConditioningWarning,
    ConfigError,
    ContainmentError,
    DerivativeRequiredError,
    DivergenceError,
    FitQualityError,
    MonotonicityError,
    NotApplicableError,
    PeriodizationError,
    PoscommError,
    ProbeSelectionError,
    RouteMismatchError,
    SectionAbsentError,
    SignConstraintError,
    StripViolationError,
    TruncationError,
    UnsupportedVariantError,
)
from .finiterank import (
    FiniteRankModel,
    GammaProbe,
    default_probes,
    gamma_recover,
    rank_one_pair,
    rank_three_example,
    reconstruct_fprime,
    reconstruct_gprime,
    strip_product_check,
)
from .fourier import FourierProfile, fit_exponential_strip, fourier_deriv
from .functions import (
    ArctanAffine,
    Constant,
    FunctionSum,
    RealFunction,
    ReflectedNegated,
    Sampled,
    Sine,
    TanhAffine,
    TanhMeasure,
    cosh_mollify,
    estimate_decay_rate,
    exp_moment,
    fit_tanh_measure,
    function_from_samples,
    herglotz_check,
)
from .grids import DEFAULT_WINDOW, Grid, to_momentum
from .monotone import (
    ComposedFunction,
    MonotoneFunction,
    catalog,
    compose_pair,
    composition_positivity_experiment,
    loewner_certificate,
    loewner_matrix,
)
from .operators import (
    DiscretizedOperator,
    SpectralReport,
    build_direct,
    build_nystrom_p,
    build_nystrom_x,
    route_agreement,
    shifted_trace,
    spectrum,
    strip_positivity_check,
    trace_identity_check,
)
