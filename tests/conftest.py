import math

from lselab.harness import Records


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


def same_records(a, b) -> bool:
    """Bit-for-bit equality of two ``Records``: every column and every flag."""

    def same(x, y) -> bool:
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    return (
        a.columns.keys() == b.columns.keys()
        and all(same(a.columns[k], b.columns[k]) for k in a.columns)
        and a.flags.keys() == b.flags.keys()
        and all(a.flags[k].keys() == b.flags[k].keys() for k in a.flags)
        and all(same(col, b.flags[k][f]) for k, fl in a.flags.items() for f, col in fl.items())
    )


def select(records, index, id_offset=0):
    """The trials at ``index`` as new ``Records``, ``id_offset`` added to their ids."""
    columns = {name: col[index] for name, col in records.columns.items()}
    columns["trial_id"] = columns["trial_id"] + id_offset
    flags = {k: {f: col[index] for f, col in fl.items()} for k, fl in records.flags.items()}
    return Records(columns, flags)
