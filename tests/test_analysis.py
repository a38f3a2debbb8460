import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import softmax_jacobian
from lselab.analysis import (
    bound_leading_term,
    cond_lse,
    cond_softmax,
    y_range,
)
from lselab.oracle import lse_softmax_reference
from lselab.quantities import QUANTITIES

# frozen 60-digit mpmath values for x = [1, -1]
LSE_1_M1 = 1.1269280110429725
COND_F_1_M1 = 0.887368128399346
COND_G_1_M1 = 0.23840584404423511
G1G2_1_M1 = 0.10499358540350652
BND_LSE_1_M1 = 3.662104385198038  # 1 + 3/|y|, and also |y + 2 + 1|/|y|


class TestCondLse:
    def test_infinite_at_uniform_minus_log_n(self):
        c = -math.log(4.0)
        # force an exactly-zero reference by symmetry of the construction
        x = [c, c, c, c]
        y = lse_softmax_reference(x).y_ref[0]
        assert abs(y) < 1e-15
        if y == 0.0:
            assert cond_lse(lse_softmax_reference(x)) == math.inf
        else:
            assert cond_lse(lse_softmax_reference(x)) > 1e14

    def test_reference_value(self):
        assert cond_lse(lse_softmax_reference([1.0, -1.0])) == pytest.approx(COND_F_1_M1, rel=1e-13)

    def test_perfectly_conditioned_when_max_dominates(self):
        assert cond_lse(lse_softmax_reference([3.0, 1.0])) <= 1.0


class TestJacobian:
    def test_symmetric_half_pair(self):
        G = softmax_jacobian([0.0, 0.0])
        assert np.allclose(G, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_reference_off_diagonal(self):
        G = softmax_jacobian([1.0, -1.0])
        assert G[0, 1] == pytest.approx(-G1G2_1_M1, rel=1e-13)
        assert G[0, 0] == pytest.approx(G1G2_1_M1, rel=1e-13)

    def test_single_entry(self):
        G = softmax_jacobian([7.0])
        assert G.shape == (1, 1)
        assert G[0, 0] == 0.0

    def test_properties_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            x = rng.uniform(-8, 8, n).tolist()
            G = softmax_jacobian(x)
            assert np.array_equal(G, G.T)
            assert np.max(np.abs(np.sum(G, axis=1))) <= 1e-14
            assert np.max(np.sum(np.abs(G), axis=1)) <= 1.0 + 1e-15
            assert np.linalg.eigvalsh(G).min() >= -1e-12


class TestCondSoftmax:
    def test_zero_norm_input(self):
        exact, upper = cond_softmax(lse_softmax_reference([0.0, 0.0]))
        assert exact == 0.0
        assert upper == 0.0

    def test_reference_value(self):
        exact, upper = cond_softmax(lse_softmax_reference([1.0, -1.0]))
        assert exact == pytest.approx(COND_G_1_M1, rel=1e-13)
        assert upper == 2.0

    def test_single_entry(self):
        exact, upper = cond_softmax(lse_softmax_reference([7.0]))
        assert exact == 0.0
        assert upper == 7.0

    def test_subnormal_norm(self):
        # 2 max_i g_i (1 - g_i)/||g|| = 1 exactly, then times ||x|| = 2^-1074
        assert cond_softmax(lse_softmax_reference([5e-324, 0.0])) == (5e-324, 1e-323)

    def test_exact_below_upper(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            x = rng.uniform(-10, 10, n).tolist()
            exact, upper = cond_softmax(lse_softmax_reference(x))
            assert exact <= upper + 1e-12


U = math.ldexp(1.0, -53)
NORMAL_MIN = math.ldexp(1.0, -1022)
# First order, the roundings behind cond_softmax add up to 15u, taking the
# C library's exp as within u.  A non-pivot g_i carries 4u (exp, the rounded
# sum, the division), 1 - g_i 5u (g_i's 4u and its own rounding) and their
# product 10u; the pivot's g_k carries 3u, s/(1 + s) 6u and their product
# 10u.  Dividing by ||g|| = g_k adds 3u + u, and multiplying by ||x|| u.
# The largest error seen is 3.2u.
COND_TOL = 16 * U


def _exact_cond_softmax(x) -> mp.mpf | None:
    """The exact ||G||_inf ||x||_inf / ||g||_inf of one vector, in 60-digit
    mpmath, or None for a vector the check leaves out.

    It starts, as the oracle does, from d_j = x_j - x_k rounded to binary64,
    k the first index of the maximum.  That subtraction can be off by half
    an ulp of d_j, 256u relative in exp(d_j) for |d_j| in [256, 512): an
    error of the oracle's g, not of cond_softmax.  From d on it is exact: with
    w_j = exp(d_j) and S = sum_j w_j, row i of |G| sums to
    2 w_i (S - w_i)/S^2, where S - w_k is the sum of the other w_j and
    S - w_i >= S/2 otherwise, so nothing cancels; ||g||_inf = 1/S.

    The rule for leaving a vector out: some exact g_j = w_j/S, or the
    result, is positive and below 2^-1022.  The oracle's g_j is then
    subnormal, or the result is, and carries an absolute error, not a
    relative one.
    """
    k = int(np.argmax(x))
    with np.errstate(over="ignore"):  # x_j - x_k below binary64's range is -inf
        d = (np.asarray(x, dtype=np.float64) - x[k]).tolist()
    if min(d) < -709.0:  # g_j <= exp(d_j) < exp(-709) < 2^-1022
        return None
    with mp.workdps(60):
        w = {v: mp.exp(v) for v in set(d)}  # one exp per distinct entry
        rest = mp.fsum(w[v] for j, v in enumerate(d) if j != k)
        S = 1 + rest
        if min(w.values()) / S < NORMAL_MIN:
            return None
        # S - w_i is rest for w_i = 1: the pivot, or a tie with it
        h = max(rest if wi == 1 else wi * (S - wi) for wi in w.values())
        exact = 2 * h * max(map(abs, x)) / S
    return None if 0 < exact < NORMAL_MIN else exact


def _check_cond_softmax(x):
    """``cond_softmax`` of ``x``: exact within ``COND_TOL``, upper = n ||x||_inf."""
    got, upper = cond_softmax(lse_softmax_reference(x))
    assert upper == len(x) * float(np.abs(x).max())
    want = _exact_cond_softmax(x)
    if want is None:
        return
    if want > sys.float_info.max:
        assert got == math.inf, x
    else:
        assert abs(got - want) <= COND_TOL * want, (x, got, float(want))


def _dominated(n: int, seed: int, lo: float = -700.0) -> list[float]:
    """x_0 = 0 and the rest in [lo, -40]: 1 - g_0 is below n e^-40, and with
    lo >= -700 no exact g underflows."""
    return [0.0] + np.random.default_rng(seed).uniform(lo, -40.0, n - 1).tolist()


class TestCondSoftmaxAccuracy:
    @pytest.mark.parametrize("x", [
        [1e308, -1e308], [-1e308, 1e308, 0.0], [1e308, 1e308, 1e308], [-1e308, -1e308],
        [-0.0, 0.0], [0.0], [-0.0], [1e308], [-1e308, -0.0],
        [5.0, 5.0] + np.random.default_rng(1).uniform(-20.0, 4.9, 98).tolist(),  # tied maxima
        [-3.0, 7.5, 7.5, -3.0, 0.0],
        [0.0, -745.0, -745.0, -40.0, -40.0],
        *(_dominated(n, seed, -745.0) for n, seed in ((2, 2), (50, 3), (700, 4))),
        np.random.default_rng(5).choice([1.25, -3.0], 300).tolist(),  # two values
        [0.0, -36.8, -40.0],  # 1 - g_0 ~ 1e-16: a row sum of |G| by entries is 3.9 % low
        *(_dominated(n, seed) for n, seed in ((3, 1), (3, 2), (4, 3), (10, 4), (50, 5), (700, 6))),
    ])
    def test_within_a_few_u_of_exact(self, x):
        _check_cond_softmax(x)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 513])
    @pytest.mark.parametrize("c", [0.0, 2.5, -700.0, 1e308])
    def test_constant_vectors(self, n, c):
        # 2 (n - 1)/n |c|, beyond binary64's range for c = 1e308 and n >= 64
        _check_cond_softmax([c] * n)

    @given(st.integers(1, 700), st.sampled_from([1.0, 20.0, 800.0]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_uniform_vectors(self, n, scale, tied, seed):
        x = np.random.default_rng(seed).uniform(-scale, scale, n)
        if tied:
            x = np.round(x, 1)  # many equal entries
        _check_cond_softmax(x.tolist())

    @given(st.lists(st.floats(-1e308, 1e308) | st.sampled_from([0.0, -0.0, 1.0, -745.0]),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_floats(self, x):
        _check_cond_softmax(x)


class TestYRange:
    def test_examples(self):
        assert y_range(lse_softmax_reference([1.0, -1.0])) == (1.0, 1.0 + math.log(2.0))
        assert y_range(lse_softmax_reference([5.0])) == (5.0, 5.0)
        lo, hi = y_range(lse_softmax_reference([0.0, 0.0, 0.0, 0.0]))
        assert lo == 0.0
        assert hi == pytest.approx(math.log(4.0), abs=1e-15)

    def test_first_of_equal_maxima(self):
        # -0.0 == 0.0: the first one is the maximum, as max() gives it
        for x, sign in (([-0.0, 0.0], -1.0), ([0.0, -0.0], 1.0), ([-1.0, -0.0, 0.0], -1.0)):
            lo, hi = y_range(lse_softmax_reference(x))
            assert lo == 0.0 and math.copysign(1.0, lo) == sign
            assert type(lo) is float and hi == math.log(len(x))


def _factors(x):
    """Every bound factor of ``x``, from its oracle reference."""
    return bound_leading_term(lse_softmax_reference(x))


class TestBoundLeadingTerm:
    def test_keys_are_the_table_bound_ids_in_analyze_order(self):
        basic_fed = [q.bound_id for q in QUANTITIES if not q.kernel.endswith("shifted")]
        shifted_fed = [q.bound_id for q in QUANTITIES if q.kernel.endswith("shifted")]
        assert list(_factors([1.0, -1.0])) == basic_fed + shifted_fed
        assert basic_fed + shifted_fed == [
            "basic_lse", "basic_softmax", "alt_softmax",
            "shifted_lse", "shifted_softmax", "alt_shifted_softmax",
        ]

    def test_basic_lse(self):
        factor = _factors([1.0, -1.0])["basic_lse"]
        assert factor.shape == (1,)
        assert factor[0] == pytest.approx(BND_LSE_1_M1, rel=1e-13)

    def test_shifted_lse(self):
        factor = _factors([1.0, -1.0])["shifted_lse"]
        assert factor[0] == pytest.approx(BND_LSE_1_M1, rel=1e-13)

    def test_basic_softmax_is_input_independent(self):
        assert _factors(list(range(10)))["basic_softmax"].tolist() == [13.0]

    def test_alt_formulas(self):
        x = [1.0, -1.0]
        y = LSE_1_M1
        max_dev = max(abs(1.0 - y), abs(-1.0 - y))
        factors = _factors(x)
        alt = factors["alt_softmax"][0]
        assert alt == pytest.approx(abs(y) + max_dev + 4.0, rel=1e-12)
        alts = factors["alt_shifted_softmax"][0]
        assert alts == pytest.approx(1.0 + max_dev + abs(y + 2.0 + 1.0), rel=1e-12)

    def test_shifted_softmax(self):
        factor = _factors([1.0, -1.0])["shifted_softmax"][0]
        assert factor == pytest.approx(2 + 2 + 2 * 2.0, rel=1e-15)

    def test_zero_lse_gives_infinite_factor(self):
        c = -math.log(4.0)
        factors = _factors([c, c, c, c])
        for aid in ("basic_lse", "shifted_lse"):
            assert factors[aid][0] > 1e14

    def test_softmax_factors_at_least_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            factors = _factors(rng.uniform(-10, 10, n).tolist())
            for aid in ("basic_softmax", "shifted_softmax", "alt_softmax",
                        "alt_shifted_softmax"):
                assert factors[aid][0] >= 1.0

    @pytest.mark.parametrize("x", [[], [1.0, math.inf], [math.nan], [[]]])
    def test_bad_input_rejected_like_the_kernels(self, x):
        # the bound reads its rows from the Reference, which validates them
        with pytest.raises(ValueError, match="input vector"):
            bound_leading_term(lse_softmax_reference(x))

    def test_batch_matches_each_row(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-30.0, 30.0, (7, 6))
        xs[2] = -math.log(6.0)  # y = 0: infinite lse factors
        ref = lse_softmax_reference(xs)
        assert ref.y_ref[2] == 0.0
        factors = bound_leading_term(ref)
        rows = [_factors(row) for row in xs.tolist()]
        for aid, column in factors.items():
            assert column.tolist() == [f for r in rows for f in r[aid].tolist()]
        assert math.isinf(factors["basic_lse"][2]) and math.isinf(factors["shifted_lse"][2])


class TestGradientIdentity:
    def test_finite_difference_matches_softmax(self):
        # binary64 central differences; components below the roundoff noise
        # floor of the difference quotient are skipped (they are checked to
        # full componentwise accuracy by the high-precision variant in the
        # acceptance suite)
        h = 2.0**-20
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 21))
            x = rng.uniform(-10, 10, n).tolist()
            g = lse_softmax_reference(x).g_ref[0]
            for j in range(n):
                # FD noise is ~ulp(y)/(2h) ~ 2e-9 in absolute terms; only
                # components well above it can meet a 1e-6 relative tolerance
                if g[j] < 1e-2:
                    continue
                xp = list(x)
                xm = list(x)
                xp[j] += h
                xm[j] -= h
                fd = (
                    lse_softmax_reference(xp).y_ref[0] - lse_softmax_reference(xm).y_ref[0]
                ) / (2 * h)
                assert fd == pytest.approx(g[j], rel=1e-6)


def test_condition_numbers_share_one_reference():
    ref = lse_softmax_reference([1.0, -1.0])
    assert cond_lse(ref) == pytest.approx(COND_F_1_M1, rel=1e-13)
    exact, upper = cond_softmax(ref)
    assert exact == pytest.approx(COND_G_1_M1, rel=1e-13)
    assert upper == 2.0
    assert y_range(ref) == (1.0, 1.0 + math.log(2.0))


@pytest.mark.parametrize("f", [cond_lse, cond_softmax, y_range])
def test_one_vector_functions_reject_a_batch(f):
    # with two rows, ||x||_inf would mix the rows (40 over row 0's y)
    for batch in ([[1.0, 2.0], [30.0, 40.0]], np.array([[1.0, 2.0], [30.0, 40.0]])):
        with pytest.raises(ValueError, match="one vector, got a reference of 2 rows"):
            f(lse_softmax_reference(batch))


def test_y_range_takes_one_vector():
    # a one-row batch and its vector have one reference, and one bracket
    want = (2.0, 2.0 + math.log(2.0))
    for x in ([1.0, 2.0], [[1.0, 2.0]], np.array([1.0, 2.0]), np.array([[1.0, 2.0]])):
        assert y_range(lse_softmax_reference(x)) == want
