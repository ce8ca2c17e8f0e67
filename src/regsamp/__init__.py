"""Importance-sampling coresets for regularized linear classification losses.

Build small weighted samples whose loss uniformly (1 +- eps)-approximates
the full regularized objective, stress them against adversarial hard
instances, and measure empirical sample-complexity scaling.
"""

__version__ = "0.22.0"

from .bench import (
    ScalingCurve,
    TrialConfig,
    failure_rate,
    min_sample_size,
    scaling_curve,
    unbiasedness_check,
    wilson_interval,
)
from .errors import RegsampError
from .hardness import (
    FailureVerdict,
    HardInstance,
    check_failure,
    gen_coupon_relu,
    gen_lin_logistic,
    gen_lin_relu,
    gen_lin_sigmoid,
    gen_moment_curve,
    gen_quad_hinge,
    gen_quad_logistic,
    gen_quad_relu,
    gen_quad_sigmoid,
    isolating_direction,
)
from .losses import (
    LossSpec,
    RegSpec,
    check_bounded_derivative,
    decompose,
    eval_loss,
    eval_loss_derivative,
    eval_regularizer,
    make_loss,
    make_reg,
)
from .model import (
    Constants,
    Instance,
    ObjectiveSpec,
    compute_constants,
    gaussian_instance,
    load_instance,
    make_instance,
    save_instance,
)
from .objective import (
    OptReport,
    QuerySet,
    build_query_set,
    estimate_opt,
    evaluate,
    full_objective,
    max_relative_error,
    opt_lower_bound,
    recommended_sample_size,
    relative_error,
    relative_errors,
    sensitivity,
)
from .sampler import (
    CategoricalSampler,
    Coreset,
    SEstimate,
    derive_rng,
    draw_iid,
    estimate_S,
    weight,
    weights_from_estimate,
)
