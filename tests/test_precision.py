import math
import operator
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lselab.precision import (
    ArithmeticContext,
    FloatFormat,
    chop,
    format_params,
    round_to_format,
)


@pytest.fixture(scope="module")
def fp16():
    return format_params("fp16")


@pytest.fixture(scope="module")
def bf16():
    return format_params("bfloat16")


from conftest import match_3sf, same_bits


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _same(a: float, b: float) -> bool:
    """Bit for bit, or both NaN (IEEE 754 leaves an invalid result's sign open)."""
    return _bits(a) == _bits(b) or (a != a and b != b)


def sig3(v):
    return float(f"{v:.3g}")


class TestFormatParams:
    # reference values to three significant figures
    TABLE = {
        "fp16": dict(u=4.88e-4, r_min_s=5.96e-8, r_min=6.10e-5, r_max=6.55e4),
        "bfloat16": dict(u=3.91e-3, r_min_s=1.18e-38, r_min=1.18e-38, r_max=3.39e38),
        "fp32": dict(u=5.96e-8, r_min_s=1.40e-45, r_min=1.18e-38, r_max=3.40e38),
        "fp64": dict(u=1.11e-16, r_min_s=4.94e-324, r_min=2.22e-308, r_max="1.80e308"),
    }
    LOG_RMAX = {"fp16": 11.0, "bfloat16": 88.7, "fp32": 88.7, "fp64": 710.0}

    @pytest.mark.parametrize("name", list(TABLE))
    def test_named_parameters(self, name):
        f = format_params(name)
        exp = self.TABLE[name]
        assert match_3sf(f.unit_roundoff, exp["u"])
        assert match_3sf(f.r_min_subnormal, exp["r_min_s"])
        assert match_3sf(f.r_min, exp["r_min"])
        assert match_3sf(f.r_max, exp["r_max"])

    @pytest.mark.parametrize("name", list(LOG_RMAX))
    def test_log_rmax(self, name):
        f = format_params(name)
        assert match_3sf(math.log(f.r_max), self.LOG_RMAX[name])

    def test_consistency_invariants(self):
        for name in self.TABLE:
            f = format_params(name)
            assert f.unit_roundoff == math.ldexp(1.0, -f.precision_bits)
            assert f.r_min == math.ldexp(1.0, f.emin)
            assert f.r_max == math.ldexp(
                2.0 - math.ldexp(1.0, 1 - f.precision_bits), f.emax
            )

    def test_bfloat16_default_has_no_subnormals(self, bf16):
        assert not bf16.subnormals_enabled
        assert bf16.r_min_subnormal == bf16.r_min

    def test_bfloat16_subnormal_variant(self):
        # same exponent/precision parameters with gradual underflow enabled
        f = format_params("custom:t=8,emin=-126,emax=127,subnormals=1")
        assert sig3(f.r_min_subnormal) == 9.18e-41
        assert sig3(math.log(f.r_min_subnormal)) == -92.2

    def test_one_format_per_name(self):
        # the binade table is built once per format, on first use
        assert format_params("fp16") is format_params("fp16")
        name = "custom:t=5,emin=-6,emax=7,subnormals=0"
        assert format_params(name) is format_params(name)

    def test_custom_parsing(self):
        f = format_params("custom:t=11,emin=-14,emax=15,subnormals=1")
        assert f.unit_roundoff == format_params("fp16").unit_roundoff
        assert f.r_max == format_params("fp16").r_max

    @pytest.mark.parametrize(
        "bad",
        [
            "fp8",
            "custom:t=1,emin=-5,emax=5,subnormals=1",
            "custom:t=30,emin=-5,emax=5,subnormals=1",
            "custom:t=11,emin=10,emax=5,subnormals=0",
            "custom:t=11,emin=-14,emax=2000,subnormals=1",
            "custom:t=11,emin=-1070,emax=5,subnormals=1",
            # grids finer than 2^-1022 near zero: binary64 would round twice
            "custom:t=11,emin=-1060,emax=100,subnormals=1",
            "custom:t=26,emin=-1048,emax=100,subnormals=1",
            "custom:t=11,emin=-1013,emax=15,subnormals=1",  # spacing 2^-1023
            "custom:t=8,emin=-1067,emax=10,subnormals=1",  # spacing 2^-1074
            "custom:t=11,emin=-1023,emax=15,subnormals=0",  # r_min = 2^-1023
            "custom:nonsense",
        ],
    )
    def test_rejects_bad_identifiers(self, bad):
        with pytest.raises(ValueError):
            format_params(bad)

    @pytest.mark.parametrize("params", [
        (40, -100, 100, True),  # t > 26 without binary64's parameters
        (53, -1022, 1023, False),  # binary64 flushing its subnormals
        (11, -1013, 15, True),  # subnormal spacing 2^-1023
    ])
    def test_float_format_rejects_what_binary64_cannot_simulate(self, params):
        with pytest.raises(ValueError):
            FloatFormat("wide", *params)

    @pytest.mark.parametrize("params", [
        (53, -1022, 1023, True),  # binary64's parameters, under any name
        (11, -1012, 15, True),  # subnormal spacing 2^-1022
        (2, -1021, 1023, True),
        (26, -1022, 1023, False),  # r_min = 2^-1022
    ])
    def test_float_format_accepts_the_boundaries(self, params):
        FloatFormat("edge", *params)


class TestRoundToFormat:
    def test_tie_to_even_at_half_ulp(self, fp16):
        assert round_to_format(1.0 + 2.0**-12, fp16) == 1.0

    def test_above_rmax_overflows(self, fp16):
        assert round_to_format(7.0e4, fp16) == math.inf
        assert round_to_format(-7.0e4, fp16) == -math.inf

    def test_flush_below_rmin_without_subnormals(self, bf16):
        assert round_to_format(1.0e-40, bf16) == 0.0
        assert round_to_format(-1.0e-40, bf16) == -0.0

    def test_subnormal_rounding_when_enabled(self, fp16):
        # quantum in the fp16 subnormal range is 2^-24
        q = 2.0**-24
        assert round_to_format(3.4 * q, fp16) == 3.0 * q
        assert round_to_format(2.5 * q, fp16) == 2.0 * q  # tie to even
        assert round_to_format(3.5 * q, fp16) == 4.0 * q

    def test_special_values(self, fp16):
        assert round_to_format(math.inf, fp16) == math.inf
        assert round_to_format(-math.inf, fp16) == -math.inf
        assert math.isnan(round_to_format(math.nan, fp16))
        assert round_to_format(0.0, fp16) == 0.0

    def test_overflow_boundary(self, fp16):
        # below the midpoint to the (nonexistent) next value stays at r_max
        assert round_to_format(65519.999, fp16) == 65504.0
        assert round_to_format(65520.0, fp16) == math.inf

    @given(st.floats(allow_nan=False, allow_infinity=False, width=16))
    def test_idempotent_on_fp16_values(self, v):
        fp16 = format_params("fp16")
        assert round_to_format(v, fp16) == v or (v == 0.0)

    @given(st.floats(allow_nan=False))
    @settings(max_examples=300)
    def test_idempotence(self, v):
        fp16 = format_params("fp16")
        r = round_to_format(v, fp16)
        assert round_to_format(r, fp16) == r or math.isnan(r)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300)
    def test_monotonicity(self, a, b):
        fp16 = format_params("fp16")
        lo, hi = min(a, b), max(a, b)
        assert round_to_format(lo, fp16) <= round_to_format(hi, fp16)

    def test_agrees_with_numpy_float16(self):
        import numpy as np

        fp16 = format_params("fp16")
        rng = np.random.default_rng(7)
        vals = np.concatenate(
            [
                rng.uniform(-70000, 70000, 2000),
                rng.uniform(-1e-4, 1e-4, 2000),
                rng.uniform(-2, 2, 2000),
            ]
        )
        for v in vals:
            ours = round_to_format(float(v), fp16)
            with np.errstate(over="ignore"):
                theirs = float(np.float16(v))
            assert ours == theirs or (math.isnan(ours) and math.isnan(theirs))
        with np.errstate(over="ignore"):
            assert (chop(vals, fp16) == vals.astype(np.float16)).all()

    @pytest.mark.parametrize("name,np_type,uint", [
        ("fp16", "float16", "uint16"),
        ("fp32", "float32", "uint32"),
    ])
    def test_chop_agrees_with_numpy_casts(self, name, np_type, uint):
        # numpy's float64 -> float16/float32 casts are an independent
        # rounding: compare on the format's values (every fp16 value, random
        # fp32 ones), the ties between neighbours and the ties' binary64
        # neighbours, and random doubles of every binade
        import numpy as np

        cast = getattr(np, np_type)
        rng = np.random.default_rng(11)
        if name == "fp16":
            bits = np.arange(2**16, dtype=np.uint32)
        else:
            bits = rng.integers(0, 2**32, 200_000, dtype=np.uint64)
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.abs(bits.astype(uint).view(cast))
            v = v[np.isfinite(v)]
            a = v.astype(np.float64)
            up = np.nextafter(v, cast(np.inf)).astype(np.float64)
            # above r_max the next grid point is r_max + ulp, which overflows
            down = np.nextafter(v, cast(0)).astype(np.float64)
            up = np.where(np.isinf(up), 2 * a - down, up)
            ties = (a + up) / 2
            x = np.concatenate([a, ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
            doubles = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
            x = np.concatenate([x, -x, doubles])
            theirs = x.astype(cast).astype(np.float64)
        ours = chop(x, format_params(name))
        same = same_bits(ours, theirs)
        assert same.all(), (x[~same][:5], ours[~same][:5], theirs[~same][:5])


class TestArithmeticContext:
    def test_absorption_below_half_ulp(self, fp16):
        ctx = ArithmeticContext(fp16)
        assert ctx.add(1.0, 2.0**-12) == 1.0

    def test_exact_division(self, fp16):
        for ctx in (ArithmeticContext(fp16), ArithmeticContext(format_params("fp64"))):
            assert ctx.div(1.0, 1.0) == 1.0

    def test_division_by_zero(self, fp16):
        ctx = ArithmeticContext(fp16)
        assert ctx.div(1.0, 0.0) == math.inf
        assert ctx.div(-1.0, 0.0) == -math.inf
        assert math.isnan(ctx.div(0.0, 0.0))

    def test_exp_overflow_threshold(self, fp16):
        ctx = ArithmeticContext(fp16)
        assert ctx.exp(12.0) == math.inf
        assert ctx.exp(11.0) < math.inf

    def test_unary_trivia(self, fp16):
        for ctx in (ArithmeticContext(fp16), ArithmeticContext(format_params("fp64"))):
            assert ctx.exp(0.0) == 1.0
            assert ctx.log1p(0.0) == 0.0
            assert ctx.log(1.0) == 0.0

    def test_log_domain(self, fp16):
        ctx = ArithmeticContext(fp16)
        assert ctx.log(0.0) == -math.inf
        assert math.isnan(ctx.log(-1.0))
        assert math.isnan(ctx.log1p(-2.0))
        assert ctx.log1p(-1.0) == -math.inf

    def test_fp64_special_values_where_math_raises(self):
        # math raises on these arguments; the results are IEEE's, and finite
        # arguments in the same array keep the C library's bits
        import numpy as np

        ctx = ArithmeticContext(format_params("fp64"))
        finite = [0.3, 2.5, 1e-300, 700.0]
        cases = [
            (ctx.exp, math.exp, {710.0: math.inf}),
            (ctx.log, math.log, {0.0: -math.inf, -0.0: -math.inf,
                                 -1.0: math.nan, -math.inf: math.nan}),
            (ctx.log1p, math.log1p, {-1.0: -math.inf, -2.0: math.nan,
                                     -math.inf: math.nan}),
        ]
        for op, libm, special in cases:
            for a, want in special.items():
                assert _same(op(a), want), (op.__name__, a)
            args = [*finite, *special, *finite]
            want = [libm(a) for a in finite] + list(special.values()) + [libm(a) for a in finite]
            got = op(np.array(args)).tolist()
            assert all(_same(g, w) for g, w in zip(got, want)), (op.__name__, got)

    def test_model_conformance(self, fp16):
        # |fl(a op b) - (a op b)| <= u |a op b| in the normalized range
        import numpy as np

        ctx = ArithmeticContext(fp16)
        u = fp16.unit_roundoff
        rng = np.random.default_rng(99)
        raws = rng.uniform(-100, 100, (500, 2))
        for ra, rb in raws:
            a = round_to_format(float(ra), fp16)
            b = round_to_format(float(rb), fp16)
            for op, exact in (
                (ctx.add, a + b),
                (ctx.sub, a - b),
            ):
                if exact == 0.0 or abs(exact) < fp16.r_min or abs(exact) > fp16.r_max:
                    continue
                assert abs(op(a, b) - exact) <= u * abs(exact)
            if b != 0.0 and fp16.r_min <= abs(a / b) <= fp16.r_max:
                assert abs(ctx.div(a, b) - a / b) <= u * abs(a / b)

    @pytest.mark.parametrize("name", [
        "custom:t=26,emin=-997,emax=100,subnormals=1",
        "custom:t=4,emin=-1019,emax=100,subnormals=1",
    ])
    def test_mul_and_div_round_correctly_near_the_bottom_of_the_grid(self, name):
        # operate-then-round against exact rounding of the exact rational
        # result, on the finest grids near zero that FloatFormat accepts
        import importlib.util
        import pathlib
        from fractions import Fraction

        import numpy as np

        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
        spec = importlib.util.spec_from_file_location("exact_model", path)
        exact = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(exact)

        fmt = format_params(name)
        model = exact.Format(fmt.precision_bits, fmt.emin, fmt.emax, fmt.subnormals_enabled)
        t, n = fmt.precision_bits, 3000
        rng = np.random.default_rng(11)
        sign = rng.choice([-1.0, 1.0], (2, n))
        # a: normal values in the lowest 20 binades, or subnormals
        m_a = rng.integers(1, 2**t, n)
        a = sign[0] * np.ldexp(m_a, fmt.emin - t + 1 + rng.integers(0, 21, n) * (m_a >= 2 ** (t - 1)))
        # b in [1, 2^80): quotients from far below the smallest subnormal up
        # to about 2^(emin + 20)
        m_b = rng.integers(2 ** (t - 1), 2**t, n)
        b = sign[1] * np.ldexp(m_b, rng.integers(0, 80, n) - t + 1)
        assert (chop(a, fmt) == a).all() and (chop(b, fmt) == b).all()
        got = ArithmeticContext(fmt).div(a, b).tolist()
        for ai, bi, gi in zip(a.tolist(), b.tolist(), got):
            want = exact.round_exact(Fraction(ai) / Fraction(bi), model)
            assert _same(gi, want), (ai, bi, gi, want)
        # the sample reaches below the grid, onto it and above 2^emin
        q = np.abs(a / b)
        assert (q < fmt.r_min_subnormal / 2).any() and (q > fmt.r_min).any()

    def test_fp64_simulation_matches_native(self):
        # the fp64 context is Python's binary64 arithmetic, bit for bit
        import numpy as np

        sim = ArithmeticContext(format_params("fp64"))
        rng = np.random.default_rng(3)
        tiny = 2.0**-1074
        pairs = [
            *rng.uniform(-1e6, 1e6, (300, 2)),
            *(rng.uniform(-1.0, 1.0, (300, 2)) * 2.0**-1020),  # subnormal results
            (tiny, 3.0), (-tiny, 0.5), (5 * tiny, -2 * tiny), (2.0**-1022, -tiny),
            (1e308, 1e-10), (-0.0, 0.0), (1e-200, -1e-200),
        ]
        for a, b in pairs:
            a, b = float(a), float(b)
            ops = [(sim.add, a + b), (sim.sub, a - b)]
            if b != 0.0:
                ops.append((sim.div, a / b))
            for op, native in ops:
                assert _bits(op(a, b)) == _bits(native)

    @pytest.mark.parametrize("name,np_type,width", [
        ("fp16", "float16", 16),
        ("fp32", "float32", 32),
    ])
    def test_binops_match_numpy_bitwise(self, name, np_type, width):
        # numpy's float16/float32 arithmetic is correctly rounded IEEE, so the
        # simulated add/sub/mul/div must give the same bits, signed zeros too
        import numpy as np

        ctx = ArithmeticContext(format_params(name))
        cast = getattr(np, np_type)
        ops = (
            (ctx.add, operator.add),
            (ctx.sub, operator.sub),
            (ctx.div, operator.truediv),
        )

        @given(st.floats(width=width), st.floats(width=width))
        @example(-1e-4, 1e-4)
        @settings(max_examples=400, deadline=None)
        def check(a, b):
            a = float(cast(a))
            b = float(cast(b))
            with np.errstate(all="ignore"):
                for ours, theirs in ops:
                    want = float(theirs(cast(a), cast(b)))
                    got = ours(a, b)
                    assert _bits(got) == _bits(want) or (got != got and want != want), (
                        ours.__name__, a, b, got, want)

        check()

    def test_format_immutable(self, fp16):
        with pytest.raises(Exception):
            fp16.precision_bits = 10
