import numpy as np
import pytest

from chirplab.chirps import (
    BETA_TABLE,
    FULL_PERIOD,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    instantaneous_frequency,
)
from chirplab.framing import FrameSpec, build_frame
from chirplab.modem import modulate

from oracles import freq_close, naive_dft

SF7 = LoraParams(sf=7, bw=125e3)


def chirp(k, params=SF7, rf=FULL_PERIOD) -> IqBuffer:
    """Symbol k's chirp: the transmitter with a one-symbol payload."""
    return modulate([k], params, rf)


def down(params=SF7) -> np.ndarray:
    """The base downchirp: symbol 0's full-period chirp, conjugated."""
    return chirp(0, params).samples.conj()


class TestLoraParams:
    def test_derived_constants(self):
        assert SF7.n == 128
        assert SF7.t_s == 128 / 125e3
        assert SF7.t_s * SF7.bw == SF7.n

    @pytest.mark.parametrize("sf", [7, 8, 9, 10, 11, 12])
    @pytest.mark.parametrize("bw", [125e3, 250e3, 500e3])
    def test_allowed_grid(self, sf, bw):
        params = LoraParams(sf=sf, bw=bw)
        assert params.n == 2**sf

    @pytest.mark.parametrize("sf,bw", [(6, 125e3), (13, 125e3), (7, 100e3), (7, 0.0), (7.5, 125e3), ("7", 125e3)])
    def test_rejects_out_of_range(self, sf, bw):
        with pytest.raises(ValueError):
            LoraParams(sf=sf, bw=bw)

    @pytest.mark.parametrize("sf", [7.0, np.int64(7)])
    def test_integral_sf_is_stored_as_int(self, sf):
        params = LoraParams(sf=sf, bw=125e3)
        assert params.n == 128
        assert type(params.sf) is int
        assert params == SF7


class TestReductionFactor:
    def test_allowed_set_and_index_codes(self):
        assert BETA_TABLE == (1.0, 0.875, 0.75, 0.625, 0.5)
        for idx, beta in enumerate(BETA_TABLE):
            rf = ReductionFactor(beta)
            assert rf.index == idx
            assert ReductionFactor.from_index(idx).beta == beta
            assert beta == 1 - idx * 0.125

    @pytest.mark.parametrize("sf", [7, 8, 9, 10, 11, 12])
    def test_m_is_exact_for_every_sf(self, sf):
        params = LoraParams(sf=sf, bw=125e3)
        for beta in BETA_TABLE:
            rf = ReductionFactor(beta)
            m = rf.m(params)
            assert 1 <= m <= params.n
            assert m == beta * params.n  # exact: betas are eighths, n a power of two
        assert ReductionFactor(1.0).m(params) == params.n

    def test_beta_is_stored_as_float(self):
        assert type(ReductionFactor(1).beta) is float
        assert ReductionFactor(1) == ReductionFactor(1.0)

    @pytest.mark.parametrize("beta", [0.9, 0.0, 1.5, -0.5])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            ReductionFactor(beta)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_rejects_bad_index(self, index):
        with pytest.raises(ValueError):
            ReductionFactor.from_index(index)


class TestBaseChirps:
    def test_upchirp_sample_formula(self):
        buf = chirp(0)
        assert len(buf) == 128
        assert buf.sample_rate == SF7.bw
        j = np.arange(128)
        expected = np.exp(1j * np.pi * j * j / 128)
        assert buf.samples[0] == 1 + 0j
        np.testing.assert_allclose(buf.samples, expected, atol=1e-12)

    @pytest.mark.parametrize("sf", [7, 10, 12])
    def test_unit_modulus(self, sf):
        params = LoraParams(sf=sf, bw=125e3)
        for samples in (chirp(0, params).samples, down(params), chirp(3, params, ReductionFactor(0.625)).samples):
            np.testing.assert_allclose(np.abs(samples), 1.0, atol=1e-12)

    def test_downchirp_is_conjugate(self):
        up = chirp(0).samples
        assert down()[0] == 1 + 0j
        np.testing.assert_allclose(up * down(), np.ones(128), atol=1e-12)

    def test_upchirp_self_dechirp_peaks_at_dc(self):
        tone = chirp(0).samples * down()
        mags = np.abs(naive_dft(tone, 128))
        assert mags.argmax() == 0
        assert mags[0] == pytest.approx(128.0, abs=1e-9)

    def test_buffers_are_read_only(self):
        buf = chirp(0)
        with pytest.raises(ValueError):
            buf.samples[0] = 0


class TestShiftedUpchirp:
    # symbol k's chirp: sample j < m is upchirp[(j + k) mod n]
    @pytest.mark.parametrize("sf", [7, 10, 12])
    @pytest.mark.parametrize("beta", BETA_TABLE)
    def test_matches_closed_form(self, sf, beta):
        params, rf = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta)
        n, m = params.n, rf.m(params)
        j = np.arange(m)
        for k in (0, 1, 5, n // 3, n - 1):
            expected = np.exp(1j * np.pi * ((j + k) % n) ** 2 / n)
            assert np.max(np.abs(chirp(k, params, rf).samples - expected)) <= 1e-9

    def test_zero_shift_is_base(self):
        # symbol 0's chirp is the upchirp the preamble repeats, to the last bit
        frame = build_frame(FrameSpec(payload=(5,), rf=FULL_PERIOD), SF7)
        np.testing.assert_array_equal(chirp(0).samples, frame.samples[:128])
        np.testing.assert_array_equal(chirp(0).samples, frame.samples[128:256])

    def test_rotation_formula(self):
        # the cyclic-rotation identity holds exactly, at every sf and beta
        for sf in (7, 10, 12):
            params = LoraParams(sf=sf, bw=125e3)
            n = params.n
            up = chirp(0, params).samples
            for rf in map(ReductionFactor, BETA_TABLE):
                j = np.arange(rf.m(params))
                for k in (1, 37, n // 3, n - 1):
                    np.testing.assert_array_equal(chirp(k, params, rf).samples, up[(j + k) % n])

    @pytest.mark.parametrize("k", [-1, 128, 500])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(ValueError, match=f"symbol {k} outside \\[0, 128\\)"):
            chirp(k)

    @pytest.mark.parametrize("k", [7.9, 0.5, np.nan, np.inf])
    def test_rejects_non_integral_symbols(self, k):
        # the symbol rule of modulate: 7.9 is not rounded down to symbol 7
        with pytest.raises(ValueError, match="symbols must be integers"):
            chirp(k)

    def test_integral_float_symbol_is_its_integer(self):
        np.testing.assert_array_equal(chirp(7.0).samples, chirp(7).samples)

    @pytest.mark.parametrize("k", [1, 32, 64, 100, 127])
    def test_dechirp_tone_at_bin_k(self, k):
        tone = chirp(k).samples * down()
        mags = np.abs(naive_dft(tone, 128))
        assert mags.argmax() == k
        assert mags[k] == pytest.approx(128.0, abs=1e-9)
        off = np.delete(mags, k)
        assert off.max() <= 1e-9 * 128

    def test_cyclic_shift_group_property(self):
        for k in (5, 40, 90):
            twice = np.roll(chirp(k).samples, -k)
            np.testing.assert_array_equal(twice, chirp((2 * k) % 128).samples)

    def test_dechirp_tone_exhaustive_off_bin_bound(self):
        n = SF7.n
        mags = np.abs(np.fft.fft(modulate(range(n), SF7, FULL_PERIOD).samples.reshape(n, n) * down(), axis=1))
        np.testing.assert_allclose(np.diag(mags), n, rtol=1e-12)
        np.fill_diagonal(mags, 0.0)
        assert mags.max() <= 1e-9 * n


class TestTruncate:
    # a truncated chirp is the first m = beta * n samples of the full one
    def test_beta_1_identity(self):
        # at beta 1 nothing is cut: back-to-back chirps of symbol k are the base sequence advanced by k
        for k in (0, 21, 127):
            np.testing.assert_array_equal(modulate([k, k], SF7, FULL_PERIOD).samples,
                                          np.roll(modulate([0, 0], SF7, FULL_PERIOD).samples, -k))

    def test_truncated_lengths(self):
        assert len(chirp(0, rf=ReductionFactor(0.875))) == 112
        half = chirp(0, rf=ReductionFactor(0.5))
        assert len(half) == 64
        np.testing.assert_array_equal(half.samples, chirp(0).samples[:64])

    def test_truncations_compose(self):
        # the truncations nest: a shorter chirp is the prefix of every longer one
        for b1 in BETA_TABLE:
            for b2 in BETA_TABLE:
                if b2 > b1:
                    continue
                longer = chirp(21, rf=ReductionFactor(b1)).samples
                shorter = chirp(21, rf=ReductionFactor(b2)).samples
                np.testing.assert_array_equal(shorter, longer[: ReductionFactor(b2).m(SF7)])


class TestInstantaneousFrequency:
    def test_constant_buffer_is_zero(self):
        buf = IqBuffer(np.ones(16, dtype=complex), SF7.bw)
        np.testing.assert_array_equal(instantaneous_frequency(buf), np.zeros(15))

    def test_rejects_short_buffer(self):
        with pytest.raises(ValueError):
            instantaneous_frequency(IqBuffer(np.ones(1, dtype=complex), SF7.bw))

    def test_upchirp_ramps_by_bw_over_n(self):
        f = instantaneous_frequency(chirp(0))
        assert len(f) == 127
        bw, n = SF7.bw, SF7.n
        # finite differences of the quadratic phase: f[j] = (2j+1)/(2n) * bw, aliased
        expected = (2 * np.arange(127) + 1) / (2 * n) * bw
        assert freq_close(f, expected, bw, 1e-6 * bw)
        steps = np.mod(np.diff(f), bw)
        np.testing.assert_allclose(steps, bw / n, atol=1e-6 * bw)

    def test_downchirp_ramps_down(self):
        f = instantaneous_frequency(IqBuffer(down(), SF7.bw))
        bw, n = SF7.bw, SF7.n
        expected = -(2 * np.arange(127) + 1) / (2 * n) * bw
        assert freq_close(f, expected, bw, 1e-6 * bw)
        steps = np.mod(-np.diff(f), bw)
        np.testing.assert_allclose(steps, bw / n, atol=1e-6 * bw)

    def test_shifted_chirp_two_segment_trajectory(self):
        # sample[j] = upchirp[(j+k) mod n]: the ramp starts at ~k/n * bw and
        # wraps where the rotation crosses the buffer end, at j = n - k.
        k = 32
        bw, n = SF7.bw, SF7.n
        f = instantaneous_frequency(chirp(k))
        expected = (2 * ((np.arange(127) + k) % n) + 1) / (2 * n) * bw
        assert freq_close(f, expected, bw, 1e-6 * bw)
        first = f[: n - k - 1]
        second = f[n - k:]
        np.testing.assert_allclose(np.mod(np.diff(first), bw), bw / n, atol=1e-6 * bw)
        np.testing.assert_allclose(np.mod(np.diff(second), bw), bw / n, atol=1e-6 * bw)
        assert first[0] == pytest.approx((2 * k + 1) / (2 * n) * bw, rel=1e-9)
