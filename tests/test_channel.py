import numpy as np
import pytest

from chirplab.channel import MIN_SNR_DB, ChannelConfig, awgn, noise_scale, snr_estimate
from chirplab.chirps import IqBuffer, LoraParams, ReductionFactor, FULL_PERIOD
from chirplab.modem import DemodResult, demodulate, modulate

SF7 = LoraParams(sf=7, bw=125e3)


def unit_buffer(count):
    return IqBuffer(np.ones(count, dtype=complex), SF7.bw)


def record(snr_db):
    """A demodulation record of len(snr_db) windows whose other columns are zero."""
    snr_db = np.asarray(snr_db, dtype=float)
    zeros = np.zeros(len(snr_db))
    return DemodResult(zeros.astype(np.intp), zeros, zeros, snr_db)


class TestAwgn:
    def test_effectively_noiseless_at_300db(self):
        buf = unit_buffer(1000)
        out = awgn(buf, ChannelConfig(snr_db=300.0, seed=1))
        assert np.max(np.abs(out.samples - buf.samples)) < 1e-12

    def test_noise_power_at_0db(self):
        buf = unit_buffer(1_000_000)
        out = awgn(buf, ChannelConfig(snr_db=0.0, seed=2))
        power = np.mean(np.abs(out.samples - buf.samples) ** 2)
        assert power == pytest.approx(1.0, rel=0.01)

    def test_deterministic_given_seed(self):
        buf = unit_buffer(4096)
        cfg = ChannelConfig(snr_db=5.0, seed=42)
        np.testing.assert_array_equal(awgn(buf, cfg).samples, awgn(buf, cfg).samples)

    def test_zero_mean(self):
        buf = unit_buffer(1_000_000)
        noise = awgn(buf, ChannelConfig(snr_db=0.0, seed=3)).samples - buf.samples
        assert abs(noise.mean()) < 0.005

    def test_component_variances(self):
        buf = unit_buffer(1_000_000)
        snr_db = -3.0
        sigma2 = 10 ** (-snr_db / 10)
        noise = awgn(buf, ChannelConfig(snr_db=snr_db, seed=4)).samples - buf.samples
        assert np.var(noise.real) == pytest.approx(sigma2 / 2, rel=0.02)
        assert np.var(noise.imag) == pytest.approx(sigma2 / 2, rel=0.02)

    def test_independent_streams(self):
        buf = unit_buffer(200_000)
        a = awgn(buf, ChannelConfig(snr_db=0.0, seed=10)).samples - buf.samples
        b = awgn(buf, ChannelConfig(snr_db=0.0, seed=11)).samples - buf.samples
        corr = np.abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert corr < 0.01

    def test_empty_buffer(self):
        out = awgn(unit_buffer(0), ChannelConfig(snr_db=0.0, seed=5))
        assert len(out) == 0


class TestNoiseScale:
    @pytest.mark.parametrize("snr_db", [-30.0, -3.0, 0.0, 12.5, 300.0, float("inf"), MIN_SNR_DB])
    def test_per_component_deviation(self, snr_db):
        assert noise_scale(snr_db) == 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0)

    @pytest.mark.parametrize("snr_db", [float("-inf"), float("nan"), -7000.0])
    def test_rejects_a_scale_that_is_not_finite(self, snr_db):
        with pytest.raises(ValueError, match="not a finite number"):
            noise_scale(snr_db)

    @pytest.mark.parametrize("snr_db", [-300.5, -800.0, -6160.0])
    def test_rejects_snr_below_floor(self, snr_db):
        # finite scales whose noise overflows a float32 capture (-800) or the trial spectra (-6160)
        with pytest.raises(ValueError, match="below the -300.0 dB floor"):
            noise_scale(snr_db)


class TestChannelConfig:
    @pytest.mark.parametrize("snr_db, seed", [
        (float("nan"), 0),
        (float("-inf"), 0),
        (-400.0, 0),
        (0.0, -1),
        (0.0, 1.7),
    ])
    def test_rejects_what_noise_scale_or_check_integer_rejects(self, snr_db, seed):
        with pytest.raises(ValueError):
            ChannelConfig(snr_db=snr_db, seed=seed)


class TestSnrEstimate:
    def test_single_result_formula(self):
        res = record([20 * np.log10(128.0)])
        assert snr_estimate(res) == pytest.approx(42.14, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            snr_estimate(record([]))

    @staticmethod
    def assert_median(values):
        # the same bits as np.median, the sign of a zero included; a NaN compares as NaN
        got = snr_estimate(record(values))
        want = float(np.median(values))
        assert type(got) is float
        assert (np.isnan(got) and np.isnan(want)) or np.float64(got).tobytes() == np.float64(want).tobytes(), \
            (list(values), got, want)

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 20, 64])
    def test_equals_numpy_median(self, count):
        rng = np.random.default_rng(count)
        for spoil in (None, np.inf, -np.inf, np.nan):
            values = rng.exponential(10.0, count)
            if spoil is not None:
                values[rng.integers(0, count)] = spoil
            self.assert_median(values)

    @pytest.mark.parametrize("count", [2, 3, 4, 64])
    def test_equals_numpy_median_where_a_sort_can_differ(self, count):
        rng = np.random.default_rng(100 + count)
        for _ in range(20):
            # few distinct values, so the middles are tied or distinct by turns
            self.assert_median(rng.integers(-2, 3, count).astype(float))
            # zeros of both signs: which one lands in the middle is the partition's choice
            self.assert_median(rng.choice([-0.0, 0.0], count))
            self.assert_median(rng.choice([-0.0, 0.0, 1.0, -1.0], count))
            # infinities, and +inf beside NaN
            self.assert_median(rng.choice([-np.inf, -1.0, 0.0, 2.5], count))
            self.assert_median(rng.choice([np.inf, np.nan, 3.0], count))

    def test_equals_numpy_median_on_opposite_infinite_middles(self):
        values = np.array([-np.inf, np.inf, -np.inf, np.inf])
        with np.errstate(invalid="ignore"):  # both take the mean of -inf and +inf
            self.assert_median(values)
            self.assert_median(values[:2])

    @pytest.mark.parametrize("values, want", [
        # np.median's reduction adds to +0.0, so even a lone -0.0 reads +0.0
        ([1.0, 4.0], 2.5), ([1.0, 2.0, 2.0, 9.0], 2.0), ([-0.0, 0.0], 0.0), ([-0.0, -0.0], 0.0), ([-0.0], 0.0),
        ([3.0, -np.inf, 5.0], 3.0), ([-np.inf, -np.inf, 1.0], -np.inf), ([np.inf, np.inf, 0.0, 1.0], np.inf),
    ])
    def test_median_values(self, values, want):
        got = snr_estimate(record(values))
        assert got == want and np.signbit(got) == np.signbit(want)

    def test_noiseless_frame_estimate_is_large(self):
        symbols = np.arange(0, 128, 7)
        results = demodulate(modulate(symbols, SF7, FULL_PERIOD), SF7, FULL_PERIOD, len(symbols))
        assert snr_estimate(results) >= 35.0

    def test_monotone_in_channel_snr(self):
        rf = ReductionFactor(1.0)
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 128, 1000)
        clean = modulate(symbols, SF7, rf)
        estimates = []
        for i, snr_db in enumerate((-20.0, -10.0, 0.0, 10.0)):
            noisy = awgn(clean, ChannelConfig(snr_db=snr_db, seed=100 + i))
            estimates.append(snr_estimate(demodulate(noisy, SF7, rf, len(symbols))))
        assert estimates == sorted(estimates)
