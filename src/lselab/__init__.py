"""Accuracy analysis toolkit for log-sum-exp and softmax in low precision."""

from .analysis import (
    bound_leading_term,
    cond_lse,
    cond_softmax,
    y_range,
)
from .harness import (
    DataSpec,
    Records,
    Summary,
    emit_csv,
    generate,
    ingest_csv,
    run_experiment,
    summarize,
)
from .kernels import (
    BatchResult,
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
    chop,
    format_params,
    round_to_format,
)
from .svgplot import emit_svg_scatter

__version__ = "0.1.0"
