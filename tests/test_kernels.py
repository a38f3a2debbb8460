import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lselab.kernels import (
    FLAG_OVERFLOWED,
    FLAG_SUM_UNDERFLOWED,
    evaluate,
    lse_softmax_basic,
    lse_softmax_shifted,
    softmax_alt,
)
from lselab.precision import ArithmeticContext, format_params, round_to_format

from conftest import raised, same_result

NATIVE = ArithmeticContext(format_params("fp64"))

# frozen 60-digit mpmath evaluations of log(sum(exp)) and exp(x)/sum(exp)
LSE_1_M1 = 1.1269280110429725
SM_1_M1 = (0.8807970779778823, 0.11920292202211755)


class TestBasic:
    def test_symmetric_pair(self):
        r = lse_softmax_basic([0.0, 0.0], NATIVE)
        assert r.y[0] == pytest.approx(math.log(2.0), abs=1e-15)
        assert r.g.tolist() == [[0.5, 0.5]]
        assert raised(r) == set()

    def test_overflow(self):
        r = lse_softmax_basic([1000.0, 1000.0], NATIVE)
        assert r.y.tolist() == [math.inf]
        assert np.isnan(r.g).all()
        assert FLAG_OVERFLOWED in raised(r)

    def test_sum_underflow_to_zero(self):
        r = lse_softmax_basic([-800.0], NATIVE)
        assert r.y.tolist() == [-math.inf]
        assert FLAG_SUM_UNDERFLOWED in raised(r)

    def test_reference_values(self):
        r = lse_softmax_basic([1.0, -1.0], NATIVE)
        assert r.y[0] == pytest.approx(LSE_1_M1, rel=1e-14)
        assert r.g[0].tolist() == pytest.approx(SM_1_M1, rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lse_softmax_basic([], NATIVE)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            lse_softmax_basic([1.0, math.inf], NATIVE)


class TestShifted:
    def test_single_large_negative_is_exact(self):
        r = lse_softmax_shifted([-800.0], NATIVE)
        assert r.y.tolist() == [-800.0]
        assert r.g.tolist() == [[1.0]]
        assert raised(r) == set()

    def test_large_equal_entries(self):
        r = lse_softmax_shifted([1000.0, 1000.0], NATIVE)
        assert r.y[0] == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)
        assert r.g.tolist() == [[0.5, 0.5]]
        assert raised(r) == set()

    def test_reference_values(self):
        r = lse_softmax_shifted([1.0, -1.0], NATIVE)
        assert r.y[0] == pytest.approx(LSE_1_M1, rel=1e-14)
        assert r.g[0].tolist() == pytest.approx(SM_1_M1, rel=1e-14)

    def test_pivot_is_first_max(self):
        # ties give identical weights, any pivot choice is valid; the
        # contract fixes the first index
        g = lse_softmax_shifted([3.0, 3.0, 0.0], NATIVE).g[0]
        assert g[0] == g[1]
        assert g[0] > 0.0

    def test_n1_exact_in_simulated_format(self):
        fp16 = format_params("fp16")
        ctx = ArithmeticContext(fp16)
        for v in (-9.5, 0.0625, 11.0, -0.00006103515625):
            x = round_to_format(v, fp16)
            r = lse_softmax_shifted([x], ctx)
            assert r.y.tolist() == [x]
            assert r.g.tolist() == [[1.0]]

    def test_y_range_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            x = rng.uniform(-30, 30, n).tolist()
            y = lse_softmax_shifted(x, NATIVE).y[0]
            xmax = max(x)
            assert xmax - 1e-12 <= y <= xmax + math.log(n) + 1e-12

    @given(
        st.lists(
            st.floats(min_value=-60000.0, max_value=60000.0, width=16),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_no_overflow_in_fp16(self, x):
        ctx = ArithmeticContext(format_params("fp16"))
        r = lse_softmax_shifted(list(x), ctx)
        assert raised(r) == set()
        assert math.isfinite(r.y[0])
        assert all(0.0 <= v <= 1.0 for v in r.g[0].tolist())

    @given(
        st.lists(
            st.floats(min_value=-1e30, max_value=1e30),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_no_overflow_native(self, x):
        r = lse_softmax_shifted(list(x), NATIVE)
        assert raised(r) == set()
        assert math.isfinite(r.y[0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            x = rng.uniform(-1, 1, n).tolist()
            perm = rng.permutation(n)
            xp = [x[i] for i in perm]
            r = lse_softmax_shifted(x, NATIVE)
            rp = lse_softmax_shifted(xp, NATIVE)
            for i, p in enumerate(perm):
                assert rp.g[0, i] == pytest.approx(r.g[0, p], rel=1e-14)
            assert abs(rp.y[0] - r.y[0]) <= 4 * 2.0**-53 * max(1.0, abs(r.y[0]))


class TestSoftmaxAlt:
    def test_matches_reference_with_exact_lse(self):
        r = softmax_alt([1.0, -1.0], LSE_1_M1, NATIVE)
        assert r.y.tolist() == [LSE_1_M1]
        assert r.g[0].tolist() == pytest.approx(SM_1_M1, rel=1e-14)

    def test_single_entry(self):
        r = softmax_alt([5.0], 5.0, NATIVE)
        assert r.g.tolist() == [[1.0]]

    def test_symmetric_pair(self):
        r = softmax_alt([0.0, 0.0], 0.6931472, NATIVE)
        assert r.g[0].tolist() == pytest.approx([0.5, 0.5], rel=1e-6)

    def test_infinite_lse_flags(self):
        r = softmax_alt([1.0, 2.0], math.inf, NATIVE)
        assert r.g.tolist() == [[0.0, 0.0]]
        assert "produced_inf" in raised(r)
        r = softmax_alt([1.0, 2.0], -math.inf, NATIVE)
        assert FLAG_OVERFLOWED in raised(r)

    def test_nan_lse_flags(self):
        r = softmax_alt([1.0], math.nan, NATIVE)
        assert "produced_nan" in raised(r)

    @pytest.mark.parametrize("k", [1, 4])
    def test_y_needs_one_value_per_row(self, k):
        xs = np.arange(6.0).reshape(3, 2)
        with pytest.raises(ValueError, match="one value per row"):
            softmax_alt(xs, [1.0] * k, NATIVE)


class TestEvaluate:
    def test_runs_each_algorithm_by_id(self):
        ctx = ArithmeticContext(format_params("fp16"))
        x = [round_to_format(v, ctx.fmt) for v in (3.3, -1.7, 0.4)]
        basic = lse_softmax_basic(x, ctx)
        shifted = lse_softmax_shifted(x, ctx)
        expected = {
            "basic": basic,
            "shifted": shifted,
            "alt_basic": softmax_alt(x, basic.y, ctx),
            "alt_shifted": softmax_alt(x, shifted.y, ctx),
        }
        for aid, want in expected.items():
            assert same_result(evaluate(aid, x, ctx), want), aid

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            evaluate("fancy", [1.0], NATIVE)


class TestSoftmaxSumDeviation:
    def test_basic_sum_close_to_one(self):
        fp16 = format_params("fp16")
        ctx = ArithmeticContext(fp16)
        u = fp16.unit_roundoff
        x = [round_to_format(v, fp16) for v in (-2.3, -2.3, -2.3, -2.3)]
        g = lse_softmax_basic(x, ctx).g[0].tolist()
        n = len(x)
        assert abs(math.fsum(g) - 1.0) / u <= n + 3

    def test_shifted_sum_close_to_one(self):
        fp16 = format_params("fp16")
        ctx = ArithmeticContext(fp16)
        u = fp16.unit_roundoff
        x = [round_to_format(v, fp16) for v in (1.5, -0.25, 0.75, -3.0)]
        g = lse_softmax_shifted(x, ctx).g[0].tolist()
        assert abs(math.fsum(g) - 1.0) / u <= len(x) + 2 + 2 * (max(x) - min(x))
