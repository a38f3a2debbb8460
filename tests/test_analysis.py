import math

import numpy as np
import pytest

from lselab.analysis import (
    ALGORITHM_IDS,
    bound_leading_term,
    cond_lse,
    cond_softmax,
    softmax_jacobian,
    y_range,
)
from lselab.oracle import lse_softmax_reference

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
        y = lse_softmax_reference(x).y_ref
        assert abs(y) < 1e-15
        if y == 0.0:
            assert cond_lse(x) == math.inf
        else:
            assert cond_lse(x) > 1e14

    def test_reference_value(self):
        assert cond_lse([1.0, -1.0]) == pytest.approx(COND_F_1_M1, rel=1e-13)

    def test_perfectly_conditioned_when_max_dominates(self):
        assert cond_lse([3.0, 1.0]) <= 1.0


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
        exact, upper = cond_softmax([0.0, 0.0])
        assert exact == 0.0
        assert upper == 0.0

    def test_reference_value(self):
        exact, upper = cond_softmax([1.0, -1.0])
        assert exact == pytest.approx(COND_G_1_M1, rel=1e-13)
        assert upper == 2.0

    def test_single_entry(self):
        exact, upper = cond_softmax([7.0])
        assert exact == 0.0
        assert upper == 7.0

    def test_exact_below_upper(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            x = rng.uniform(-10, 10, n).tolist()
            exact, upper = cond_softmax(x)
            assert exact <= upper + 1e-12


class TestYRange:
    def test_examples(self):
        assert y_range([1.0, -1.0]) == (1.0, 1.0 + math.log(2.0))
        assert y_range([5.0]) == (5.0, 5.0)
        lo, hi = y_range([0.0, 0.0, 0.0, 0.0])
        assert lo == 0.0
        assert hi == pytest.approx(math.log(4.0), abs=1e-15)


class TestBoundLeadingTerm:
    def test_basic_lse(self):
        rep = bound_leading_term("basic_lse", [1.0, -1.0])
        assert rep.leading_factor == pytest.approx(BND_LSE_1_M1, rel=1e-13)
        assert rep.n == 2
        assert rep.x_max == 1.0
        assert rep.x_min == -1.0

    def test_shifted_lse(self):
        rep = bound_leading_term("shifted_lse", [1.0, -1.0])
        assert rep.leading_factor == pytest.approx(BND_LSE_1_M1, rel=1e-13)

    def test_basic_softmax_is_input_independent(self):
        rep = bound_leading_term("basic_softmax", list(range(10)))
        assert rep.leading_factor == 13.0

    def test_alt_formulas(self):
        x = [1.0, -1.0]
        y = LSE_1_M1
        max_dev = max(abs(1.0 - y), abs(-1.0 - y))
        alt = bound_leading_term("alt_softmax", x)
        assert alt.leading_factor == pytest.approx(abs(y) + max_dev + 4.0, rel=1e-12)
        alts = bound_leading_term("alt_shifted_softmax", x)
        assert alts.leading_factor == pytest.approx(
            1.0 + max_dev + abs(y + 2.0 + 1.0), rel=1e-12
        )

    def test_shifted_softmax(self):
        rep = bound_leading_term("shifted_softmax", [1.0, -1.0])
        assert rep.leading_factor == pytest.approx(2 + 2 + 2 * 2.0, rel=1e-15)

    def test_zero_lse_gives_infinite_factor(self):
        c = -math.log(4.0)
        for aid in ("basic_lse", "shifted_lse"):
            rep = bound_leading_term(aid, [c, c, c, c])
            assert rep.leading_factor > 1e14

    def test_softmax_factors_at_least_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            x = rng.uniform(-10, 10, n).tolist()
            for aid in ("basic_softmax", "shifted_softmax", "alt_softmax",
                        "alt_shifted_softmax"):
                assert bound_leading_term(aid, x).leading_factor >= 1.0

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            bound_leading_term("fancy", [1.0])

    def test_precomputed_y_shortcut(self):
        x = [0.5, -0.25, 3.0]
        y = lse_softmax_reference(x).y_ref
        for aid in ALGORITHM_IDS:
            assert (
                bound_leading_term(aid, x, y=y).leading_factor
                == bound_leading_term(aid, x).leading_factor
            )


    def test_batch_matches_each_row(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-30.0, 30.0, (7, 6))
        xs[2] = -math.log(6.0)  # y = 0: infinite lse factors
        ys = [lse_softmax_reference(row).y_ref for row in xs.tolist()]
        for aid in ALGORITHM_IDS:
            rep = bound_leading_term(aid, xs, np.array(ys))
            rows = [bound_leading_term(aid, row, y=y) for row, y in zip(xs.tolist(), ys)]
            assert rep.leading_factor.tolist() == [r.leading_factor for r in rows]
            assert rep.max_dev.tolist() == [r.max_dev for r in rows]
            assert bound_leading_term(aid, xs).leading_factor.tolist() == rep.leading_factor.tolist()

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
            ref = lse_softmax_reference(x)
            for j in range(n):
                # FD noise is ~ulp(y)/(2h) ~ 2e-9 in absolute terms; only
                # components well above it can meet a 1e-6 relative tolerance
                if ref.g_ref[j] < 1e-2:
                    continue
                xp = list(x)
                xm = list(x)
                xp[j] += h
                xm[j] -= h
                fd = (
                    lse_softmax_reference(xp).y_ref - lse_softmax_reference(xm).y_ref
                ) / (2 * h)
                assert fd == pytest.approx(ref.g_ref[j], rel=1e-6)


def test_condition_numbers_share_one_reference():
    x = [1.0, -1.0]
    ref = lse_softmax_reference(x)
    assert cond_lse(x, ref) == pytest.approx(COND_F_1_M1, rel=1e-13)
    exact, upper = cond_softmax(x, ref)
    assert exact == pytest.approx(COND_G_1_M1, rel=1e-13)
    assert upper == 2.0
    G = softmax_jacobian(x, ref)
    assert G.shape == (2, 2)
    assert np.array_equal(G, softmax_jacobian(x))
