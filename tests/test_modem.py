import warnings

import numpy as np
import pytest

from chirplab.channel import add_noise
from chirplab.chirps import (
    BETA_TABLE,
    FULL_PERIOD,
    IqBuffer,
    LoraParams,
    ReductionFactor,
)
from chirplab.modem import (
    LengthMismatchError,
    _peak_and_floor,
    _window_spectra,
    bit_errors,
    decide_symbols,
    demodulate,
    modulate,
)

from oracles import naive_spectra, symbols_to_bits

SF7 = LoraParams(sf=7, bw=125e3)
ALL_RF = [ReductionFactor(b) for b in BETA_TABLE]


def chirp(k: int, rf=FULL_PERIOD) -> IqBuffer:
    """Symbol k's chirp at sf 7 cut to rf: the transmitter with a one-symbol payload."""
    return modulate([k], SF7, rf)


DOWN = chirp(0).samples.conj()


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
        first = chirp(7, rf).samples
        second = chirp(70, rf).samples
        np.testing.assert_array_equal(buf.samples, np.concatenate([first, second]))

    @pytest.mark.parametrize("bad", [[7.9], [5, 3.2], [np.nan], [np.inf]])
    def test_rejects_non_integral_symbols(self, bad):
        with pytest.raises(ValueError, match="symbols must be integers"):
            modulate(bad, SF7, ReductionFactor(1.0))

    def test_integral_float_symbols_are_their_integers(self):
        rf = ReductionFactor(0.75)
        np.testing.assert_array_equal(modulate([7.0, 70.0], SF7, rf).samples, modulate([7, 70], SF7, rf).samples)

    @pytest.mark.parametrize("bad", [[-1], [128], [5, 200]])
    def test_rejects_out_of_range_symbols(self, bad):
        with pytest.raises(ValueError):
            modulate(bad, SF7, ReductionFactor(1.0))


def kernel_row(window: IqBuffer, params=SF7) -> np.ndarray:
    """The batch kernel's spectrum of one window, passed as a one-row block."""
    return _window_spectra(window.samples[None, :], params)[0]


class TestDechirp:
    # the dechirp step of the one kernel, seen in its spectrum
    def test_base_upchirp_becomes_dc(self):
        mags = kernel_row(chirp(0))
        assert mags[0] == pytest.approx(128.0, rel=1e-12)
        assert np.delete(mags, 0).max() < 1e-9

    def test_shifted_upchirp_becomes_tone(self):
        k = 41
        window = chirp(k)
        mags = kernel_row(window)
        want = naive_spectra(window.samples[None, :], 128)[0]
        assert mags.argmax() == want.argmax() == k
        assert np.max(np.abs(mags - want)) <= 1e-9 * want.max()

    def test_truncation_commutes_with_dechirp(self):
        # truncating before the kernel's dechirp equals truncating the full product, to the last bit
        k = 90
        rf = ReductionFactor(0.5)
        full_product = chirp(k).samples * DOWN
        trunc = kernel_row(chirp(k, rf))
        np.testing.assert_array_equal(trunc, np.abs(np.fft.fft(full_product[:64], 128)))


class TestSpectrumMagnitude:
    # the transform step of the one kernel: unnormalised, each row zero-padded to n bins
    def test_dc_tone(self):
        scales = np.array([1.0, 2.0, 0.5])
        mags = _window_spectra(scales[:, None] * chirp(0).samples, SF7)
        np.testing.assert_allclose(mags[:, 0], 128.0 * scales, rtol=1e-12)
        assert mags[:, 1:].max() < 1e-9

    def test_all_zero(self):
        mags = _window_spectra(np.zeros((2, 16), dtype=complex), SF7)
        np.testing.assert_array_equal(mags, np.zeros((2, 128)))

    def test_truncated_tone_keeps_bin_and_peak(self):
        k, m = 23, 64
        mags = kernel_row(chirp(k, ReductionFactor(0.5)))
        assert len(mags) == 128
        assert mags.argmax() == k
        assert mags[k] == pytest.approx(m, rel=1e-9)


class TestBatchKernel:
    @pytest.mark.parametrize("sf", [7, 10, 12])
    @pytest.mark.parametrize("beta", BETA_TABLE)
    def test_rows_equal_single_window_pair(self, sf, beta):
        # the one dechirp-and-transform, behind demod, preamble sync, header decode
        # and the gathered-chirp oracle: each row against its own window's pair of
        # the written-out downchirp and the direct O(n^2) DFT
        params = LoraParams(sf=sf, bw=125e3)
        rf = ReductionFactor(beta)
        rng = np.random.default_rng(sf)
        symbols = rng.integers(0, params.n, 4)
        windows = add_noise(modulate(symbols, params, rf).samples.reshape(4, -1), 0.0, rng)
        got = _window_spectra(windows, params)
        want = naive_spectra(windows, params.n)
        assert got.shape == want.shape == (4, params.n)
        assert (np.max(np.abs(got - want), axis=1) <= 1e-9 * want.max(axis=1)).all()


class TestDemodulateSymbol:
    # one m-sample window through demodulate with count 1: (symbol, peak, floor, snr_db)
    @staticmethod
    def demodulate_one(window: IqBuffer, rf=FULL_PERIOD):
        result = demodulate(window, SF7, rf, 1)
        return result.symbols[0], result.peaks[0], result.floors[0], result.snr_db[0]

    def test_exhaustive_noiseless_sf7_all_betas(self):
        for rf in ALL_RF:
            m = rf.m(SF7)
            for k in range(128):
                symbol, peak, _, _ = self.demodulate_one(chirp(k, rf), rf)
                assert symbol == k
                assert peak == pytest.approx(m, rel=1e-6)

    def test_noiseless_peak_ratio_is_beta(self):
        base = self.demodulate_one(chirp(5))[1]
        for beta in (0.875, 0.5):
            rf = ReductionFactor(beta)
            peak = self.demodulate_one(chirp(5, rf), rf)[1]
            assert peak / base == pytest.approx(beta, abs=1e-9)

    def test_noiseless_snr_estimate_is_large(self):
        assert self.demodulate_one(chirp(9))[3] >= 35.0

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            self.demodulate_one(IqBuffer(np.empty(0, dtype=complex), SF7.bw))

    def test_all_zero_window_ties_break_to_lowest_bin(self):
        symbol, peak, _, snr_db = self.demodulate_one(IqBuffer(np.zeros(128, dtype=complex), SF7.bw))
        assert symbol == 0
        assert peak == 0.0
        assert snr_db == 0.0

    def test_peak_is_max_bin_and_floor_is_median(self):
        rng = np.random.default_rng(3)
        window = IqBuffer(rng.standard_normal(128) + 1j * rng.standard_normal(128), SF7.bw)
        symbol, peak, floor, snr_db = self.demodulate_one(window)
        mags = naive_spectra(window.samples[None, :], 128)[0]
        assert symbol == mags.argmax()
        assert peak == pytest.approx(mags.max())
        assert floor == pytest.approx(np.median(np.delete(mags, mags.argmax())))
        assert snr_db == pytest.approx(20 * np.log10(peak / floor))


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

    def test_ratio_clamps_the_floor(self):
        mags = np.array([[0.0, 0.0, 0.0, 0.0], [8.0, 2.0, 4.0, 0.0], [1e-13, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]])
        *_, ratios = _peak_and_floor(mags)
        np.testing.assert_array_equal(ratios, [0.0, 4.0, 1e-13 / 1e-12, 3e12])


class TestDemodulate:
    @pytest.mark.parametrize("sf", [7, 8, 9, 10, 11, 12])
    def test_noiseless_roundtrip_random_symbols(self, sf):
        params = LoraParams(sf=sf, bw=125e3)
        rng = np.random.default_rng(sf)
        symbols = rng.integers(0, params.n, 50)
        for rf in ALL_RF:
            result = demodulate(modulate(symbols, params, rf), params, rf, len(symbols))
            np.testing.assert_array_equal(result.symbols, symbols)

    def test_result_is_aligned_columns(self):
        rng = np.random.default_rng(4)
        noisy = add_noise(modulate([3, 90, 127], SF7, FULL_PERIOD).samples, 0.0, rng)
        result = demodulate(IqBuffer(noisy, SF7.bw), SF7, FULL_PERIOD, 3)
        assert len(result) == 3
        columns = (result.symbols, result.peaks, result.floors, result.snr_db)
        assert [(c.shape, c.dtype.kind) for c in columns] == [((3,), "i")] + [((3,), "f")] * 3

    @pytest.mark.parametrize("sf, beta, count", [(7, 0.5, 2600), (12, 0.75, 70)])
    def test_blocks_give_the_one_batch_result(self, sf, beta, count):
        # 2600 sf 7 windows fill two 1024-window blocks and part of a third, 70 sf 12 windows two 32-window
        # blocks and part of a third; every column must be bit-identical to one transform of all windows
        params, rf = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta)
        rng = np.random.default_rng(sf)
        samples = add_noise(modulate(rng.integers(0, params.n, count), params, rf).samples, -5.0, rng)
        result = demodulate(IqBuffer(samples, params.bw), params, rf, count)
        symbols, peaks, floors, ratios = _peak_and_floor(_window_spectra(samples.reshape(count, -1), params))
        for got, want in ((result.symbols, symbols), (result.peaks, peaks), (result.floors, floors),
                          (result.snr_db, 20.0 * np.log10(np.maximum(ratios, 1.0)))):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_count_zero(self):
        result = demodulate(chirp(0), SF7, ReductionFactor(1.0), 0)
        assert len(result) == 0 and not result
        assert all(c.shape == (0,) for c in (result.symbols, result.peaks, result.floors, result.snr_db))

    def test_rejects_short_buffer(self):
        with pytest.raises(LengthMismatchError):
            demodulate(chirp(0), SF7, ReductionFactor(1.0), 2)

    @pytest.mark.parametrize("count, message", [(-1, "count must be >= 0, got -1"),
                                                (2.0, "count must be an integer, got 2.0"),
                                                (1.5, "count must be an integer, got 1.5")], ids=["-1", "2.0", "1.5"])
    def test_rejects_count_not_an_integer_at_least_zero(self, count, message):
        with pytest.raises(ValueError, match=message):
            demodulate(modulate([1, 2], SF7, FULL_PERIOD), SF7, FULL_PERIOD, count)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, -np.inf)])
    def test_rejects_a_non_finite_sample_before_the_transform(self, bad):
        samples = modulate([1, 2, 3, 4], SF7, ReductionFactor(0.5)).samples.copy()
        samples[[2 * 64 + 5, 3 * 64 + 1]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="symbol window 2 of 4 holds a non-finite sample"):
                demodulate(IqBuffer(samples, SF7.bw), SF7, ReductionFactor(0.5), 4)

    def test_reads_only_the_windows_it_decodes(self):
        samples = np.append(modulate([1, 2, 3], SF7, FULL_PERIOD).samples, [np.nan] * 128)
        result = demodulate(IqBuffer(samples, SF7.bw), SF7, FULL_PERIOD, 3)
        assert result.symbols.tolist() == [1, 2, 3]

    def test_eq10_truncated_product_equivalence(self):
        # demodulating a truncated symbol == demodulating the truncated full product
        rng = np.random.default_rng(11)
        for rf in ALL_RF:
            m = rf.m(SF7)
            for k in rng.integers(0, 128, 8):
                direct = demodulate(chirp(k, rf), SF7, rf, 1)
                full_product = chirp(k).samples * DOWN
                via_product = np.abs(np.fft.fft(full_product[:m], 128))
                assert direct.symbols[0] == via_product.argmax() == k
                assert direct.peaks[0] == via_product.max()

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

    @pytest.mark.parametrize("sf", [7, 12])
    def test_bit_errors_match_bit_expansion(self, sf):
        rng = np.random.default_rng(sf)
        sent, received = rng.integers(0, 1 << sf, (2, 5000))
        expected = int((symbols_to_bits(sent, sf) != symbols_to_bits(received, sf)).sum())
        assert bit_errors(sent, received, sf) == expected
