"""Divergences and the count-based goodness-of-fit test."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from qsynth.simulate import CountHistogram, sample
from qsynth.stats import _chi2_sf, g_statistic, js_divergence, kl_divergence


def random_dist(rng, k):
    raw = [rng.random() + 1e-9 for _ in range(k)]
    total = math.fsum(raw)
    return [v / total for v in raw]


class TestKl:
    def test_known_value(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_self_divergence_is_zero(self, rng):
        for _ in range(5):
            p = random_dist(rng, 8)
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_zero_p_bins_contribute_nothing(self):
        value = kl_divergence([0.5, 0.5, 0.0], [0.25, 0.25, 0.5])
        assert value == pytest.approx(math.log(2))

    def test_infinite_when_q_lacks_support(self):
        with pytest.warns(UserWarning, match="infinite"):
            assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_non_negative(self, rng):
        for _ in range(50):
            p = random_dist(rng, 16)
            q = random_dist(rng, 16)
            assert kl_divergence(p, q) >= 0.0

    def test_asymmetric(self):
        p, q = [0.9, 0.1], [0.5, 0.5]
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            kl_divergence([1.0], [0.5, 0.5])

    def test_negative_probability(self):
        with pytest.raises(ValueError, match="non-negative"):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])

    def test_empty(self):
        with pytest.raises(ValueError):
            kl_divergence([], [])


class TestJs:
    def test_symmetric(self, rng):
        for _ in range(20):
            p = random_dist(rng, 8)
            q = random_dist(rng, 8)
            assert js_divergence(p, q) == pytest.approx(js_divergence(q, p),
                                                        abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(20):
            p = random_dist(rng, 8)
            q = random_dist(rng, 8)
            assert 0.0 <= js_divergence(p, q) <= math.log(2) + 1e-12

    def test_self_divergence_is_zero(self, rng):
        p = random_dist(rng, 4)
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_supports_hit_the_bound(self):
        assert js_divergence([1, 0], [0, 1]) == pytest.approx(math.log(2))

    def test_finite_where_kl_is_not(self):
        assert math.isfinite(js_divergence([0.5, 0.5], [1.0, 0.0]))


class TestGStatistic:
    def test_known_value(self):
        hist = CountHistogram(counts={"0": 75, "1": 25}, shots=100, num_bits=1)
        g, p = g_statistic(hist, [0.5, 0.5])
        expected = 2 * (75 * math.log(75 / 50) + 25 * math.log(25 / 50))
        assert g == pytest.approx(expected)
        assert p == pytest.approx(float(chi2.sf(expected, df=1)))

    def test_perfect_match(self):
        hist = CountHistogram(counts={"0": 50, "1": 50}, shots=100, num_bits=1)
        g, p = g_statistic(hist, [0.5, 0.5])
        assert g == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_equals_scaled_kl(self, rng):
        for _ in range(20):
            q = random_dist(rng, 8)
            hist = sample(q, 2000, seed=rng.randrange(10_000))
            g, _ = g_statistic(hist, q)
            assert g == pytest.approx(2 * 2000 * kl_divergence(hist.empirical(), q),
                                      rel=1e-9)

    def test_zero_expectation_bin(self):
        hist = CountHistogram(counts={"1": 3}, shots=3, num_bits=1)
        with pytest.warns(UserWarning, match="zero-probability"):
            g, p = g_statistic(hist, [1.0, 0.0])
        assert g == math.inf and p == 0.0

    def test_expected_must_be_power_of_two(self):
        hist = CountHistogram(counts={"00": 5}, shots=5, num_bits=2)
        with pytest.raises(ValueError, match="power of two"):
            g_statistic(hist, [0.5, 0.3, 0.2])

    def test_width_mismatch(self):
        hist = CountHistogram(counts={"00": 5}, shots=5, num_bits=2)
        with pytest.raises(ValueError, match="bit"):
            g_statistic(hist, [0.5, 0.5])

    def test_degrees_of_freedom(self):
        # same G over more bins is less surprising
        g = 4.0
        hist2 = CountHistogram(counts={"0": 64, "1": 36}, shots=100, num_bits=1)
        g2, p2 = g_statistic(hist2, [0.5, 0.5])
        assert p2 == pytest.approx(float(chi2.sf(g2, df=1)))
        probs4 = [0.25] * 4
        hist4 = sample(probs4, 400, seed=11)
        g4, p4 = g_statistic(hist4, probs4)
        assert p4 == pytest.approx(float(chi2.sf(g4, df=3)))

    def test_zero_count_entries_skipped(self):
        hist = CountHistogram(counts={"0": 10, "1": 0}, shots=10, num_bits=1)
        g, _ = g_statistic(hist, [1.0, 0.0])
        assert math.isfinite(g)


class TestChi2Sf:
    @pytest.mark.parametrize("df", [1, 2, 3, 7, 255, 1023, 4095])
    def test_matches_scipy(self, df):
        # the bulk, both sides of the series/continued-fraction switch at
        # x = df + 2, and on into the tail until p underflows
        xs = np.concatenate([
            [1e-300, 1e-12, 0.5, 1.0, df - 1.0, df + 1.0, df + 2.0, df + 3.0],
            np.linspace(0.0, 2.0 * df + 20.0, 101)[1:],
            np.geomspace(2.0 * df + 20.0, 20.0 * df + 2000.0, 60),
        ])
        for x in xs[xs > 0]:
            want = float(chi2.sf(x, df))
            got = _chi2_sf(float(x), df)
            if want > 1e-300:
                assert got == pytest.approx(want, rel=1e-10), (x, df)
            else:
                assert got < 1e-290, (x, df)

    def test_edges(self):
        assert _chi2_sf(0.0, 3) == 1.0
        # a perfect match can leave G a rounding error below zero
        assert _chi2_sf(-1e-16, 1) == 1.0
        assert _chi2_sf(math.inf, 7) == 0.0
