import math

import mpmath as mp
import numpy as np
import pytest

from lselab.kernels import lse_softmax_basic
from lselab.oracle import (
    lse_softmax_reference,
    measurable,
    scaled_error,
    scaled_error_vec,
)
from lselab.precision import ArithmeticContext, format_params


def mp_reference(x, dps=50):
    with mp.workdps(dps):
        terms = [mp.e ** mp.mpf(v) for v in x]
        s = mp.fsum(terms)
        y = float(mp.log(s))
        g = [float(t / s) for t in terms]
    return y, g


class TestReference:
    def test_symmetric_pair(self):
        ref = lse_softmax_reference([0.0, 0.0])
        assert ref.y_ref.shape == (1,)
        assert ref.y_ref[0] == pytest.approx(math.log(2.0), abs=2e-16)
        assert ref.g_ref.tolist() == [[0.5, 0.5]]

    def test_frozen_example(self):
        ref = lse_softmax_reference([1.0, 2.0, 3.0])
        assert ref.y_ref[0] == pytest.approx(3.4076059644443803, rel=1e-15)
        g = ref.g_ref[0]
        assert g[0] == pytest.approx(0.09003057317038046, rel=1e-14)
        assert g[1] == pytest.approx(0.24472847105479764, rel=1e-14)
        assert g[2] == pytest.approx(0.6652409557748219, rel=1e-14)

    def test_single_large_negative(self):
        ref = lse_softmax_reference([-800.0])
        assert ref.y_ref.tolist() == [-800.0]
        assert ref.g_ref.tolist() == [[1.0]]

    def test_against_extended_precision(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            x = rng.uniform(-25, 25, n).tolist()
            ref = lse_softmax_reference(x)
            y_mp, g_mp = mp_reference(x)
            assert ref.y_ref[0] == pytest.approx(y_mp, rel=4e-16, abs=1e-300)
            assert len(ref.g_ref[0]) == len(g_mp)
            for a, b in zip(ref.g_ref[0], g_mp):
                assert a == pytest.approx(b, rel=1e-14)

    def test_matches_naive_binary64_on_mild_inputs(self):
        rng = np.random.default_rng(78)
        ctx = ArithmeticContext(format_params("fp64"))
        for _ in range(100):
            n = int(rng.integers(1, 7))
            x = rng.uniform(-2, 2, n).tolist()
            y_ref = lse_softmax_reference(x).y_ref[0]
            naive = lse_softmax_basic(x, ctx)
            assert abs(naive.y[0] - y_ref) <= 4 * n * 2.0**-53 * max(1.0, abs(y_ref))

    def test_y_in_bracket(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            x = rng.uniform(-40, 40, n).tolist()
            ref = lse_softmax_reference(x)
            y_ref = ref.y_ref[0]
            ulps = 2 * 2.0**-52 * max(1.0, abs(y_ref))
            assert max(x) - ulps <= y_ref <= max(x) + math.log(n) + ulps
            assert abs(math.fsum(ref.g_ref[0]) - 1.0) <= n * 2.0**-50

    def test_rejects_bad_input(self):
        # as the kernels do: an empty vector or row, or a non-finite entry
        for x in ([], [1.0, math.inf], [math.nan], [[]]):
            with pytest.raises(ValueError, match="input vector"):
                lse_softmax_reference(x)

    @pytest.mark.parametrize("x,k", [
        pytest.param([4.0, 4.0], [0], id="tie"),
        pytest.param([-0.0, 0.0], [0], id="signed-zeros"),
        pytest.param([-1.0, 0.0, -0.0], [1], id="zero-then-minus-zero"),
        pytest.param([[1.0, 3.0, 3.0], [-0.0, 0.0, -1.0], [-5.0, -2.0, -7.0]], [1, 0, 1],
                     id="batch"),
    ])
    def test_pivot_is_the_first_index_of_each_row_maximum(self, x, k):
        assert lse_softmax_reference(x).k.tolist() == k

    def test_x_is_the_validated_batch(self):
        xs = np.arange(6.0).reshape(2, 3)
        ref = lse_softmax_reference(xs)
        assert ref.x.shape == (2, 3) and np.shares_memory(ref.x, xs)
        ref = lse_softmax_reference([1, 2, 3])
        assert ref.x.dtype == np.float64 and ref.x.tolist() == [[1.0, 2.0, 3.0]]


FP16 = format_params("fp16")
U16 = 2.0**-11


@pytest.mark.parametrize("computed,reference,expected", [
    pytest.param([1.25, -3.0], [1.25, -3.0], [0.0, 0.0], id="zero-error"),
    pytest.param([1.0 + U16, -2.0 - 2 * U16], [1.0, -2.0], [1.0, 1.0], id="one-u"),
    pytest.param([math.inf, math.nan, -math.inf], [5.0, 5.0, 5.0], [math.inf] * 3, id="inf-nan"),
    pytest.param([1.0, 0.0, 2.0], [0.0, 0.0, 2.0], [math.inf, math.inf, 0.0], id="zero-reference"),
    pytest.param([1e-3 * (1 + 3 * U16), 1e4 * (1 - U16), 7.0], [1e-3, 1e4, 7.0], [3.0, 1.0, 0.0],
                 id="magnitudes"),
])
def test_scaled_error(computed, reference, expected):
    err = scaled_error(np.array(computed), np.array(reference), FP16)
    assert err.shape == (len(computed),)
    assert err.tolist() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("computed,reference,expected", [
    pytest.param([[0.5, 0.5]], [[0.5, 0.5]], [0.0], id="zero-error"),
    # the largest entry error over the largest reference entry, not the sum
    pytest.param([[0.5 + U16 * 0.5, 0.25 + U16 * 0.25]], [[0.5, 0.25]], [1.0], id="one-u"),
    pytest.param([[math.nan, 0.5], [0.5, math.inf]], [[0.5, 0.5], [0.5, 0.5]], [math.inf] * 2,
                 id="inf-nan"),
    pytest.param([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [math.inf] * 2,
                 id="zero-reference"),
    pytest.param([[1e-3 * (1 + 2 * U16), 1e-4], [1e4, -1e4 * (1 + U16)], [3.0, 0.0]],
                 [[1e-3, 1e-4], [1e4, -1e4], [3.0, 0.0]], [2.0, 1.0, 0.0], id="magnitudes"),
])
def test_scaled_error_vec(computed, reference, expected):
    err = scaled_error_vec(np.array(computed), np.array(reference), FP16)
    assert err.shape == (len(computed),)
    assert err.tolist() == pytest.approx(expected, rel=1e-12)


class TestMeasurable:
    def test_validity_domain(self):
        assert measurable(format_params("fp16"))
        assert measurable(format_params("bfloat16"))
        assert measurable(format_params("fp32"))
        assert not measurable(format_params("fp64"))
