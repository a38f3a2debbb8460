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
        assert ref.y_ref == pytest.approx(math.log(2.0), abs=2e-16)
        assert ref.g_ref == (0.5, 0.5)

    def test_frozen_example(self):
        ref = lse_softmax_reference([1.0, 2.0, 3.0])
        assert ref.y_ref == pytest.approx(3.4076059644443803, rel=1e-15)
        assert ref.g_ref[0] == pytest.approx(0.09003057317038046, rel=1e-14)
        assert ref.g_ref[1] == pytest.approx(0.24472847105479764, rel=1e-14)
        assert ref.g_ref[2] == pytest.approx(0.6652409557748219, rel=1e-14)

    def test_single_large_negative(self):
        ref = lse_softmax_reference([-800.0])
        assert ref.y_ref == -800.0
        assert ref.g_ref == (1.0,)

    def test_against_extended_precision(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            x = rng.uniform(-25, 25, n).tolist()
            ref = lse_softmax_reference(x)
            y_mp, g_mp = mp_reference(x)
            assert ref.y_ref == pytest.approx(y_mp, rel=4e-16, abs=1e-300)
            for a, b in zip(ref.g_ref, g_mp):
                assert a == pytest.approx(b, rel=1e-14)

    def test_matches_naive_binary64_on_mild_inputs(self):
        rng = np.random.default_rng(78)
        ctx = ArithmeticContext(format_params("fp64"))
        for _ in range(100):
            n = int(rng.integers(1, 7))
            x = rng.uniform(-2, 2, n).tolist()
            ref = lse_softmax_reference(x)
            naive = lse_softmax_basic(x, ctx)
            assert abs(naive.y - ref.y_ref) <= 4 * n * 2.0**-53 * max(1.0, abs(ref.y_ref))

    def test_y_in_bracket(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            x = rng.uniform(-40, 40, n).tolist()
            ref = lse_softmax_reference(x)
            ulps = 2 * 2.0**-52 * max(1.0, abs(ref.y_ref))
            assert max(x) - ulps <= ref.y_ref <= max(x) + math.log(n) + ulps
            assert abs(math.fsum(ref.g_ref) - 1.0) <= n * 2.0**-50

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lse_softmax_reference([])
        with pytest.raises(ValueError):
            lse_softmax_reference([math.nan])


class TestScaledError:
    def test_zero_error(self):
        fp16 = format_params("fp16")
        assert scaled_error(1.25, 1.25, fp16) == 0.0

    def test_one_unit_roundoff(self):
        fp16 = format_params("fp16")
        assert scaled_error(1.0 + 2.0**-11, 1.0, fp16) == pytest.approx(1.0)

    def test_overflowed_result(self):
        fp16 = format_params("fp16")
        assert scaled_error(math.inf, 5.0, fp16) == math.inf
        assert scaled_error(math.nan, 5.0, fp16) == math.inf

    def test_zero_reference_rejected(self):
        fp16 = format_params("fp16")
        with pytest.raises(ValueError):
            scaled_error(1.0, 0.0, fp16)


class TestScaledErrorVec:
    def test_zero_error(self):
        fp16 = format_params("fp16")
        assert scaled_error_vec([0.5, 0.5], [0.5, 0.5], fp16) == 0.0

    def test_one_u_perturbation_of_max_entry(self):
        fp16 = format_params("fp16")
        err = scaled_error_vec(
            [0.5 + 2.0**-11 * 0.5, 0.5], [0.5, 0.5], fp16
        )
        assert err == pytest.approx(1.0)

    def test_nan_entry(self):
        fp16 = format_params("fp16")
        assert scaled_error_vec([math.nan, 0.5], [0.5, 0.5], fp16) == math.inf

    def test_length_mismatch(self):
        fp16 = format_params("fp16")
        with pytest.raises(ValueError):
            scaled_error_vec([1.0], [1.0, 2.0], fp16)


class TestMeasurable:
    def test_validity_domain(self):
        assert measurable(format_params("fp16"))
        assert measurable(format_params("bfloat16"))
        assert measurable(format_params("fp32"))
        assert not measurable(format_params("fp64"))
