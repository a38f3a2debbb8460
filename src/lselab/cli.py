"""Command-line front end: eval, analyze, experiment, formats.

Exit codes: 0 success, 1 bound violation in an experiment, 2 bad input or
I/O failure.  Numeric flags on results do not change the exit code.  Every
check on the input raises: ``main`` reports each ``ValueError``, ``OSError``
or ``MemoryError`` a subcommand raises as one ``error:`` line on stderr and
returns 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .analysis import bound_leading_term, cond_lse, cond_softmax, y_range
from .harness import (
    DataSpec,
    emit_csv,
    generate,
    ingest_csv,
    run_experiment,
    summarize,
)
from .kernels import evaluate
from .oracle import lse_softmax_reference, measurable
from .precision import NAMED_FORMATS, ArithmeticContext, chop, format_params
from .quantities import KERNELS, QUANTITIES
from .svgplot import emit_svg_scatter

# (x column, y column, file suffix, bound plot?) per --svg plot: error against
# bound for each log-sum-exp quantity, then its kernel's softmax-sum deviation.
_SVG_PLOTS = [(q.bnd, q.err, q.stem, True) for q in QUANTITIES if q.lse] + [
    ("trial_id", q.sum_dev, q.sum_dev, False) for q in QUANTITIES if q.lse
]


def _fmt9(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.9g}"


def _input_vector(args) -> list[float]:
    if args.x is None:
        raise ValueError("--x is required")
    try:
        x = [float(tok) for tok in args.x.split(",")]  # an empty field raises
    except ValueError as exc:
        raise ValueError(f"--x: {exc}") from None
    if not all(map(math.isfinite, x)):
        raise ValueError("input vector must be nonempty and finite")
    return x


def cmd_formats(args) -> int:
    header = (
        f"{'name':<10}{'u':>12}{'r_min_s':>12}{'r_min':>12}{'r_max':>12}"
        f"{'log r_min_s':>14}{'log r_min':>12}{'log r_max':>12}"
    )
    print(header)
    for name in NAMED_FORMATS:
        f = format_params(name)
        print(
            f"{name:<10}{f.unit_roundoff:>12.3g}{f.r_min_subnormal:>12.3g}"
            f"{f.r_min:>12.3g}{f.r_max:>12.3g}"
            f"{math.log(f.r_min_subnormal):>14.3g}{math.log(f.r_min):>12.3g}"
            f"{math.log(f.r_max):>12.3g}"
        )
    return 0


def cmd_eval(args) -> int:
    x = _input_vector(args)
    fmt = format_params(args.format)
    x = chop(x, fmt)
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"input vector is not finite when rounded to {args.format}")
    alg = args.alg.replace("-", "_")
    res = evaluate(alg, x, ArithmeticContext(fmt))
    y, g = float(res.y[0]), res.g[0].tolist()
    flags = sorted(name for name, col in res.flags.items() if col[0])
    if args.json:
        print(json.dumps({"algorithm": alg, "format": args.format, "y": y, "g": g, "flags": flags}))
    else:
        print(f"algorithm: {alg}")
        print(f"format: {args.format}")
        print(f"y: {_fmt9(y)}")
        print("g: [" + ", ".join(_fmt9(v) for v in g) + "]")
        print("flags: " + (",".join(flags) if flags else "none"))
    return 0


def cmd_analyze(args) -> int:
    x = _input_vector(args)
    ref = lse_softmax_reference(x)
    cf = cond_lse(x, ref)
    cg_exact, cg_upper = cond_softmax(x, ref)
    lo, hi = y_range(x)
    bounds = {aid: float(f[0]) for aid, f in bound_leading_term(x, ref.y_ref).items()}
    if args.json:
        print(
            json.dumps(
                {
                    "cond_lse": cf,
                    "cond_softmax_exact": cg_exact,
                    "cond_softmax_upper": cg_upper,
                    "y_range": [lo, hi],
                    "bounds": bounds,
                }
            )
        )
    else:
        print(f"cond_lse: {_fmt9(cf)}")
        print(f"cond_softmax_exact: {_fmt9(cg_exact)}")
        print(f"cond_softmax_upper: {_fmt9(cg_upper)}")
        print(f"y_range: [{_fmt9(lo)}, {_fmt9(hi)}]")
        for aid, factor in bounds.items():
            print(f"bound[{aid}]: {_fmt9(factor)}")
    return 0


def _parse_genspec(text: str, n: int, count: int, seed: int) -> DataSpec:
    kind, _, rest = text.partition(":")
    kind = kind.replace("-", "_")
    try:
        params = tuple(float(t) for t in rest.split(",")) if rest else ()
        return DataSpec(kind=kind, params=params, n=n, count=count, seed=seed)
    except ValueError as exc:
        raise ValueError(f"bad generator spec {text!r}: {exc}") from None


def cmd_experiment(args) -> int:
    fmt = format_params(args.format)
    if not measurable(fmt):
        raise ValueError(f"{args.format} is too precise to measure against the binary64 oracle")
    if (args.gen is None) == (args.csv is None):
        raise ValueError("give exactly one of --gen or --csv")
    if args.csv is not None:
        data = ingest_csv(args.csv)
    else:
        data = generate(_parse_genspec(args.gen, args.n, args.count, args.seed))
    records = run_experiment(data, fmt)
    summary = summarize(records)
    emit_csv(records, f"{args.out}.csv")
    emit_csv(summary, f"{args.out}_summary.csv")
    if args.svg:
        for x_field, y_field, suffix, bound_plot in _SVG_PLOTS:
            emit_svg_scatter(
                records,
                x_field,
                y_field,
                f"{args.out}_{suffix}.svg",
                log_axes=args.log_axes and bound_plot,
                reference_line=bound_plot,
            )

    print(f"trials: {summary.trials}")
    for name, st in summary.per_algorithm.items():
        med = "n/a" if st.median is None else _fmt9(st.median)
        mx = "n/a" if st.max is None else _fmt9(st.max)
        print(
            f"{name}: finite={st.finite_count} max_err={mx} median_err={med} "
            f"violations={st.bound_violations} overflows={st.overflow_count}"
        )
    for p in summary.pairs:
        if p.count == 0:
            print(f"ratio {p.numerator}/{p.denominator}: n/a")
        else:
            ident = "n/a" if p.identical_fraction is None else f"{p.identical_fraction:.3f}"
            print(
                f"ratio {p.numerator}/{p.denominator}: mean={p.mean:.4g} "
                f"gmean={p.geometric_mean:.4g} min={p.min:.4g} max={p.max:.4g} "
                f"identical={ident}"
            )
    if summary.total_bound_violations > 0:
        print(f"BOUND VIOLATIONS: {summary.total_bound_violations}", file=sys.stderr)
        return 1
    return 0


@functools.cache  # built on first use, then reused by every main() call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lselab",
        description="log-sum-exp / softmax accuracy analysis in low-precision arithmetic",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    pe = sub.add_parser("eval", help="evaluate one vector with one algorithm")
    algs = [k.replace("_", "-") for k in KERNELS]
    pe.add_argument("--alg", choices=algs, default="shifted")
    pe.add_argument("--format", default="fp64")
    pe.add_argument("--x", help="comma-separated input vector")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_eval)

    pa = sub.add_parser("analyze", help="condition numbers and error bounds")
    pa.add_argument("--x", help="comma-separated input vector")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    px = sub.add_parser("experiment", help="run a scaled-error experiment suite")
    px.add_argument("--gen", help="generator spec, e.g. uniform:-20,20 or wide-spread:30")
    px.add_argument("--csv", help="read input vectors from CSV instead of generating")
    px.add_argument("--n", type=int, default=10)
    px.add_argument("--count", type=int, default=100)
    px.add_argument("--seed", type=int, default=0)
    px.add_argument("--format", default="fp16")
    px.add_argument("--out", default="experiment")
    px.add_argument("--svg", action="store_true", help="also write SVG scatter plots")
    px.add_argument("--log-axes", action="store_true")
    px.set_defaults(func=cmd_experiment)

    pf = sub.add_parser("formats", help="print the supported format parameters")
    pf.set_defaults(func=cmd_formats)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
