import math

import numpy as np

from lselab.harness import Records
from lselab.oracle import lse_softmax_reference


def match_3sf(computed: float, table) -> bool:
    """Agreement with a 3-significant-figure table entry.

    Published tables mix rounding and truncation in the third digit, so a
    value matches when it lies within one unit in that digit.  Entries that
    overflow binary64 when parsed (e.g. 1.80e308) are passed as strings.
    """
    if isinstance(table, str):
        mant_s, _, exp_s = table.lower().partition("e")
        mant, exp10 = float(mant_s), int(exp_s)
        scaled = computed / 10.0**exp10
        return abs(scaled - mant) <= 0.01 * (1.0 + 1e-9)
    if table == 0.0:
        return computed == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(table))) - 2)
    return abs(computed - table) <= unit * (1.0 + 1e-9)


def softmax_jacobian(x) -> np.ndarray:
    """The softmax Jacobian G = diag(g) - g g^T of one vector, as numpy forms
    it from the oracle's g: the definition ``cond_softmax``'s closed form
    stands for.  O(n^2)."""
    g = lse_softmax_reference(x).g_ref[0]
    return np.diag(g) - np.outer(g, g)


def raised(result, i: int = 0) -> set[str]:
    """The flags a kernel's ``BatchResult`` raised on row ``i``."""
    return {name for name, col in result.flags.items() if col[i]}


def emit_vectors_csv(vectors, path) -> None:
    """Write input vectors, one per line; round-trips through ``ingest_csv``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x in vectors:
            fh.write(",".join(repr(float(v)) for v in x) + "\n")


def same_array(x, y) -> bool:
    """Bit-for-bit equality of two arrays, dtype and shape included."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def same_bits(a, b):
    """Entrywise bit equality of two float64 arrays, any two NaNs counting as equal."""
    return (a.view("int64") == b.view("int64")) | ((a != a) & (b != b))


def same_result(a, b) -> bool:
    """Bit-for-bit equality of two ``BatchResult``s: y, g and every flag column."""
    return (
        same_array(a.y, b.y)
        and same_array(a.g, b.g)
        and a.flags.keys() == b.flags.keys()
        and all(same_array(col, b.flags[name]) for name, col in a.flags.items())
    )


def same_records(a, b) -> bool:
    """Bit-for-bit equality of two ``Records``: every column and every flag."""
    return (
        a.columns.keys() == b.columns.keys()
        and all(same_array(a.columns[k], b.columns[k]) for k in a.columns)
        and a.flags.keys() == b.flags.keys()
        and all(a.flags[k].keys() == b.flags[k].keys() for k in a.flags)
        and all(same_array(col, b.flags[k][f]) for k, fl in a.flags.items() for f, col in fl.items())
    )


def select(records, index, id_offset=0):
    """The trials at ``index`` as new ``Records``, ``id_offset`` added to their ids."""
    columns = {name: col[index] for name, col in records.columns.items()}
    columns["trial_id"] = columns["trial_id"] + id_offset
    flags = {k: {f: col[index] for f, col in fl.items()} for k, fl in records.flags.items()}
    return Records(columns, flags)
