"""The six measured quantities: one row per error the paper bounds.

Record columns, the CSV header, summary keys, exclusion flags, eval's
``--alg`` choices and the SVG plots all derive from it.  Each ``bound_id``
is a key of ``analysis.bound_leading_term``'s result, which also gives
analyze its bound ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Quantity", "QUANTITIES", "KERNELS", "SUM_DEV_COLUMNS"]


@dataclass
class Quantity:
    stem: str  # summary key; "lse_<variant>" measures y, "sm_<variant>" g
    bound_id: str  # key of this factor in analysis.bound_leading_term's result
    kernel: str  # kernels.evaluate id of the kernel whose output is measured
    ratio_to: str | None = None  # summary ratio err_<stem> / err_<ratio_to>
    # Column names, built once at import so that no trial formats a string.
    lse: bool = field(init=False)
    err: str = field(init=False)
    bnd: str = field(init=False)
    sum_dev: str = field(init=False)  # softmax-sum deviation of the kernel

    def __post_init__(self) -> None:
        output, variant = self.stem.split("_")
        self.lse = output == "lse"
        self.err = "err_" + self.stem
        self.bnd = "bnd_" + self.stem
        self.sum_dev = "sum_dev_" + variant


QUANTITIES = (
    Quantity("lse_basic", "basic_lse", "basic", ratio_to="lse_shift"),
    Quantity("lse_shift", "shifted_lse", "shifted"),
    Quantity("sm_basic", "basic_softmax", "basic"),
    Quantity("sm_shift", "shifted_softmax", "shifted"),
    Quantity("sm_alt", "alt_softmax", "alt_basic", ratio_to="sm_shift"),
    Quantity("sm_altshift", "alt_shifted_softmax", "alt_shifted", ratio_to="sm_shift"),
)

# kernel -> its softmax-sum deviation column, both in record order
SUM_DEV_COLUMNS = {q.kernel: q.sum_dev for q in QUANTITIES}
KERNELS = tuple(SUM_DEV_COLUMNS)
