import numpy as np
import pytest

from chirplab.channel import add_noise
from chirplab.chirps import (
    BETA_TABLE,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    base_upchirp,
    shifted_upchirp,
    truncate,
)
from chirplab.modem import (
    LengthMismatchError,
    _peak_and_floor,
    _window_spectra,
    bit_errors,
    dechirp,
    decide_symbols,
    demodulate,
    demodulate_symbol,
    modulate,
    spectrum_magnitude,
    symbols_to_bits,
)

from oracles import naive_dft

SF7 = LoraParams(sf=7, bw=125e3)
ALL_RF = [ReductionFactor(b) for b in BETA_TABLE]


class TestModulate:
    def test_sample_counts_at_sf7(self):
        symbols = [3, 99, 0, 64, 127]
        assert len(modulate(symbols, SF7, ReductionFactor(0.875))) == 560
        assert len(modulate(symbols, SF7, ReductionFactor(1.0))) == 640

    def test_empty_payload(self):
        buf = modulate([], SF7, ReductionFactor(1.0))
        assert len(buf) == 0
        assert buf.sample_rate == SF7.bw

    def test_concatenates_truncated_chirps(self):
        rf = ReductionFactor(0.5)
        buf = modulate([7, 70], SF7, rf)
        first = truncate(shifted_upchirp(SF7, 7), rf, SF7).samples
        second = truncate(shifted_upchirp(SF7, 70), rf, SF7).samples
        np.testing.assert_array_equal(buf.samples, np.concatenate([first, second]))

    @pytest.mark.parametrize("bad", [[-1], [128], [5, 200]])
    def test_rejects_out_of_range_symbols(self, bad):
        with pytest.raises(ValueError):
            modulate(bad, SF7, ReductionFactor(1.0))


class TestDechirp:
    def test_base_upchirp_becomes_dc(self):
        out = dechirp(base_upchirp(SF7), SF7)
        np.testing.assert_allclose(out.samples, np.ones(128), atol=1e-12)

    def test_shifted_upchirp_becomes_tone(self):
        k = 41
        out = dechirp(shifted_upchirp(SF7, k), SF7)
        mags = np.abs(naive_dft(out.samples, 128))
        assert mags.argmax() == k

    def test_truncation_commutes_with_dechirp(self):
        k = 90
        rf = ReductionFactor(0.5)
        full = dechirp(shifted_upchirp(SF7, k), SF7).samples
        trunc = dechirp(truncate(shifted_upchirp(SF7, k), rf, SF7), SF7).samples
        np.testing.assert_array_equal(trunc, full[:64])

    def test_rejects_overlong_window(self):
        with pytest.raises(ValueError):
            dechirp(IqBuffer(np.ones(129, dtype=complex), SF7.bw), SF7)


class TestSpectrumMagnitude:
    def test_dc_tone(self):
        mags = spectrum_magnitude(IqBuffer(np.ones(128, dtype=complex), SF7.bw), SF7)
        assert mags[0] == pytest.approx(128.0)
        assert np.delete(mags, 0).max() < 1e-9

    def test_all_zero(self):
        mags = spectrum_magnitude(IqBuffer(np.zeros(16, dtype=complex), SF7.bw), SF7)
        np.testing.assert_array_equal(mags, np.zeros(128))

    def test_truncated_tone_keeps_bin_and_peak(self):
        k, m = 23, 64
        tone = dechirp(truncate(shifted_upchirp(SF7, k), ReductionFactor(0.5), SF7), SF7)
        mags = spectrum_magnitude(tone, SF7)
        assert len(mags) == 128
        assert mags.argmax() == k
        assert mags[k] == pytest.approx(m, rel=1e-9)

    def test_rejects_overlong_input(self):
        with pytest.raises(ValueError):
            spectrum_magnitude(IqBuffer(np.ones(200, dtype=complex), SF7.bw), SF7)

    @pytest.mark.parametrize("n", [128, 512])
    def test_matches_direct_transform_oracle(self, n):
        params = LoraParams(sf={128: 7, 512: 9}[n], bw=125e3)
        rng = np.random.default_rng(7)
        for length in (n, n // 2):
            x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            got = spectrum_magnitude(IqBuffer(x, params.bw), params)
            want = np.abs(naive_dft(x, n))
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)


class TestBatchKernel:
    @pytest.mark.parametrize("sf", [7, 10, 12])
    @pytest.mark.parametrize("beta", BETA_TABLE)
    def test_rows_equal_single_window_pair(self, sf, beta):
        # the batch kernel behind demod, sync, header decode and the trial
        # engine, tied bit for bit to the pair the DFT oracle checks
        params = LoraParams(sf=sf, bw=125e3)
        rf = ReductionFactor(beta)
        rng = np.random.default_rng(sf)
        symbols = rng.integers(0, params.n, 4)
        windows = add_noise(modulate(symbols, params, rf).samples.reshape(4, -1), 0.0, rng)
        batch = _window_spectra(windows, params)
        for row, mags in zip(windows, batch):
            single = spectrum_magnitude(dechirp(IqBuffer(row, params.bw), params), params)
            np.testing.assert_array_equal(mags, single)


class TestDemodulateSymbol:
    def test_exhaustive_noiseless_sf7_all_betas(self):
        for rf in ALL_RF:
            m = rf.m(SF7)
            for k in range(128):
                res = demodulate_symbol(truncate(shifted_upchirp(SF7, k), rf, SF7), SF7)
                assert res.symbol == k
                assert res.peak_magnitude == pytest.approx(m, rel=1e-6)

    def test_noiseless_peak_ratio_is_beta(self):
        base = demodulate_symbol(shifted_upchirp(SF7, 5), SF7).peak_magnitude
        for beta in (0.875, 0.5):
            rf = ReductionFactor(beta)
            peak = demodulate_symbol(truncate(shifted_upchirp(SF7, 5), rf, SF7), SF7).peak_magnitude
            assert peak / base == pytest.approx(beta, abs=1e-9)

    def test_noiseless_snr_estimate_is_large(self):
        res = demodulate_symbol(shifted_upchirp(SF7, 9), SF7)
        assert res.snr_estimate_db >= 35.0

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            demodulate_symbol(IqBuffer(np.empty(0, dtype=complex), SF7.bw), SF7)

    def test_all_zero_window_ties_break_to_lowest_bin(self):
        res = demodulate_symbol(IqBuffer(np.zeros(128, dtype=complex), SF7.bw), SF7)
        assert res.symbol == 0
        assert res.peak_magnitude == 0.0
        assert res.snr_estimate_db == 0.0

    def test_peak_is_max_bin_and_floor_is_median(self):
        rng = np.random.default_rng(3)
        window = IqBuffer(rng.standard_normal(128) + 1j * rng.standard_normal(128), SF7.bw)
        res = demodulate_symbol(window, SF7)
        mags = spectrum_magnitude(dechirp(window, SF7), SF7)
        assert res.symbol == mags.argmax()
        assert res.peak_magnitude == pytest.approx(mags.max())
        assert res.noise_floor == pytest.approx(np.median(np.delete(mags, mags.argmax())))
        assert res.snr_estimate_db == pytest.approx(20 * np.log10(res.peak_magnitude / res.noise_floor))


class TestPeakAndFloor:
    @staticmethod
    def masked_nanmedian(mags):
        bins = mags.argmax(axis=1)
        masked = mags.copy()
        masked[np.arange(len(mags)), bins] = np.nan
        return bins, mags.max(axis=1), np.nanmedian(masked, axis=1)

    @pytest.mark.parametrize("n", [2, 4, 128, 1024])
    def test_bit_identical_to_masked_nanmedian(self, n):
        rng = np.random.default_rng(n)
        spectra = [
            np.abs(rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))),
            # ties everywhere, at the peak too
            rng.integers(0, 3, (200, n)).astype(float),
            np.zeros((3, n)),
            np.full((3, n), 7.5),
        ]
        for mags in spectra:
            for got, want in zip(_peak_and_floor(mags), self.masked_nanmedian(mags)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype


class TestDemodulate:
    @pytest.mark.parametrize("sf", [7, 8, 9, 10, 11, 12])
    def test_noiseless_roundtrip_random_symbols(self, sf):
        params = LoraParams(sf=sf, bw=125e3)
        rng = np.random.default_rng(sf)
        symbols = rng.integers(0, params.n, 50)
        for rf in ALL_RF:
            results = demodulate(modulate(symbols, params, rf), params, rf, len(symbols))
            assert [r.symbol for r in results] == list(symbols)

    def test_count_zero(self):
        assert demodulate(base_upchirp(SF7), SF7, ReductionFactor(1.0), 0) == []

    def test_rejects_short_buffer(self):
        with pytest.raises(LengthMismatchError):
            demodulate(base_upchirp(SF7), SF7, ReductionFactor(1.0), 2)

    def test_eq10_truncated_product_equivalence(self):
        # demodulating a truncated symbol == demodulating the truncated full product
        rng = np.random.default_rng(11)
        for rf in ALL_RF:
            m = rf.m(SF7)
            for k in rng.integers(0, 128, 8):
                direct = demodulate_symbol(truncate(shifted_upchirp(SF7, int(k)), rf, SF7), SF7)
                full_product = dechirp(shifted_upchirp(SF7, int(k)), SF7)
                via_product = spectrum_magnitude(
                    IqBuffer(full_product.samples[:m], SF7.bw), SF7
                )
                assert direct.symbol == via_product.argmax() == k
                assert direct.peak_magnitude == via_product.max()

    def test_ser_direction_under_noise(self):
        # lower beta loses symbol energy: SER at fixed SNR grows as beta shrinks
        rng = np.random.default_rng(99)
        trials, snr_db = 20_000, -9.0
        symbols = rng.integers(0, 128, trials)
        sers = []
        for beta in (1.0, 0.75, 0.5):
            rf = ReductionFactor(beta)
            m = rf.m(SF7)
            clean = modulate(symbols, SF7, rf).samples.reshape(trials, m)
            noisy = add_noise(clean, snr_db, np.random.default_rng(1234))
            decided = decide_symbols(noisy, SF7)
            sers.append(np.mean(decided != symbols))
        assert sers[0] < sers[1] < sers[2]

    def test_ser_direction_deep_noise(self):
        # 1000 symbols at -20 dB, same noise seed protocol per beta
        rng = np.random.default_rng(7)
        symbols = rng.integers(0, 128, 1000)
        sers = {}
        for beta in (1.0, 0.5):
            rf = ReductionFactor(beta)
            clean = modulate(symbols, SF7, rf).samples.reshape(1000, rf.m(SF7))
            noisy = add_noise(clean, -20.0, np.random.default_rng(555))
            sers[beta] = np.mean(decide_symbols(noisy, SF7) != symbols)
        assert sers[0.5] > sers[1.0]


class TestBitMapping:
    def test_symbols_to_bits_msb_first(self):
        np.testing.assert_array_equal(
            symbols_to_bits([0b1100101], 7), np.array([1, 1, 0, 0, 1, 0, 1])
        )

    def test_bit_errors_counts_xor_bits(self):
        assert bit_errors([0b0000000], [0b1010001], 7) == 3
        assert bit_errors([5, 9, 77], [5, 9, 77], 7) == 0
