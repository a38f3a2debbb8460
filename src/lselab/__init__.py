"""Accuracy analysis toolkit for log-sum-exp and softmax in low precision."""

from .analysis import (
    BoundReport,
    ConditionReport,
    bound_leading_term,
    cond_lse,
    cond_softmax,
    condition_report,
    softmax_jacobian,
    y_range,
)
from .harness import (
    DataSpec,
    Summary,
    TrialRecord,
    emit_csv,
    emit_vectors_csv,
    generate,
    ingest_csv,
    run_experiment,
    summarize,
)
from .kernels import (
    EvalResult,
    lse_softmax_basic,
    lse_softmax_shifted,
    softmax_alt,
)
from .oracle import (
    Reference,
    lse_softmax_reference,
    scaled_error,
    scaled_error_vec,
)
from .precision import (
    ArithmeticContext,
    FloatFormat,
    format_params,
    round_to_format,
)
from .svgplot import emit_svg_scatter

__version__ = "0.1.0"
