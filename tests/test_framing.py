import warnings

import numpy as np
import pytest

from chirplab.channel import ChannelConfig, awgn
from chirplab.chirps import (
    BETA_TABLE,
    FULL_PERIOD,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    base_downchirp,
    base_upchirp,
)
from chirplab.framing import (
    ChecksumMismatchError,
    FrameSpec,
    PreambleNotFoundError,
    UnknownBetaIndexError,
    build_frame,
    decode_frame,
    detect_preamble,
    time_on_air,
    time_saving,
)
from chirplab.modem import LengthMismatchError, modulate

from oracles import exhaustive_detect_preamble

SF7 = LoraParams(sf=7, bw=125e3)


def make_frame(payload, beta, preamble_len=8, params=SF7):
    spec = FrameSpec(payload=tuple(payload), rf=ReductionFactor(beta), preamble_len=preamble_len)
    return spec, build_frame(spec, params)


class TestBuildFrame:
    def test_empty_payload_sample_count(self):
        _, buf = make_frame([], 1.0)
        assert len(buf) == int((8 + 2.25 + 3) * 128)  # 1696

    def test_payload_adds_truncated_symbols(self):
        _, empty = make_frame([], 0.875)
        _, five = make_frame([1, 2, 3, 4, 5], 0.875)
        assert len(five) - len(empty) == 560

    @pytest.mark.parametrize("beta", BETA_TABLE)
    @pytest.mark.parametrize("preamble_len", [6, 8, 12])
    def test_sample_count_identity(self, beta, preamble_len):
        payload = list(range(17))
        spec, buf = make_frame(payload, beta, preamble_len)
        m = spec.rf.m(SF7)
        assert len(buf) == int((preamble_len + 2.25 + 3) * 128) + len(payload) * m

    def test_layout_sections(self):
        spec, buf = make_frame([9, 110], 0.5)
        n = 128
        up = base_upchirp(SF7).samples
        down = base_downchirp(SF7).samples
        for i in range(8):
            np.testing.assert_array_equal(buf.samples[i * n:(i + 1) * n], up)
        sfd = buf.samples[8 * n: 8 * n + 2 * n + n // 4]
        np.testing.assert_array_equal(sfd, np.concatenate([down, down, down[: n // 4]]))
        header_start = 8 * n + 2 * n + n // 4
        header = modulate(spec.header_symbols(SF7), SF7, FULL_PERIOD).samples
        np.testing.assert_array_equal(buf.samples[header_start: header_start + 3 * n], header)

    def test_header_symbols(self):
        spec = FrameSpec(payload=(1, 2, 3), rf=ReductionFactor(0.5))
        assert spec.header_symbols(SF7) == (3, 4, 7)

    def test_preamble_and_header_always_full_period(self):
        for beta in BETA_TABLE:
            spec, buf = make_frame([0] * 10, beta)
            overhead = len(buf) - 10 * spec.rf.m(SF7)
            assert overhead == int((8 + 2.25 + 3) * 128)

    def test_rejects_oversized_payload(self):
        spec = FrameSpec(payload=tuple([0] * 128), rf=FULL_PERIOD)
        with pytest.raises(ValueError):
            build_frame(spec, SF7)


class TestDetectPreamble:
    def test_clean_frame_at_zero(self):
        _, buf = make_frame([5, 6, 7], 1.0)
        assert detect_preamble(buf, SF7) == 0

    def test_prepended_zeros(self):
        _, buf = make_frame([5, 6, 7], 0.5)
        shifted = IqBuffer(np.concatenate([np.zeros(300, dtype=complex), buf.samples]), SF7.bw)
        assert detect_preamble(shifted, SF7) == 300

    def test_prepended_noise(self):
        _, buf = make_frame([64], 0.875)
        rng = np.random.default_rng(8)
        lead = 0.05 * (rng.standard_normal(451) + 1j * rng.standard_normal(451))
        noisy = IqBuffer(np.concatenate([lead, buf.samples]), SF7.bw)
        assert detect_preamble(noisy, SF7) == 451

    def test_pure_noise_not_found(self):
        rng = np.random.default_rng(30)
        scale = 10 ** (-(-30.0) / 20) / np.sqrt(2)  # -30 dB equivalent power vs unit signal
        noise = scale * (rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
        with pytest.raises(PreambleNotFoundError):
            detect_preamble(IqBuffer(noise, SF7.bw), SF7)

    def test_too_short_buffer(self):
        with pytest.raises(PreambleNotFoundError):
            detect_preamble(IqBuffer(np.ones(64, dtype=complex), SF7.bw), SF7)

    def test_sf12_noisy_frame_with_random_lead_in(self):
        params = LoraParams(sf=12, bw=125e3)
        rng = np.random.default_rng(12)
        lead = int(rng.integers(1, 3 * params.n))
        spec = FrameSpec(payload=tuple(int(s) for s in rng.integers(0, params.n, 4)), rf=ReductionFactor(0.5))
        clean = IqBuffer(np.concatenate([np.zeros(lead, dtype=complex), build_frame(spec, params).samples]), params.bw)
        noisy = awgn(clean, ChannelConfig(snr_db=-15.0, seed=12))
        assert detect_preamble(noisy, params) == lead


def sync_result(detect, samples, params, preamble_len, peak_ratio=4.0):
    try:
        return detect(IqBuffer(samples, params.bw), params, preamble_len, peak_ratio)
    except PreambleNotFoundError:
        return None


class TestScreenedSyncIsExact:
    """detect_preamble against the full spectral search over all n alignments.

    Each case asserts the same offset, or PreambleNotFoundError from both.
    """

    @staticmethod
    def random_capture(rng, sf, snr_db=None):
        """(params, preamble_len, preamble start, samples) of one frame after a zero lead-in of 0..3n."""
        params = LoraParams(sf=sf, bw=125e3)
        n = params.n
        preamble_len = int(rng.integers(6, 12))
        payload = tuple(int(s) for s in rng.integers(0, n, int(rng.integers(0, 10))))
        spec = FrameSpec(payload=payload, rf=ReductionFactor(float(rng.choice(BETA_TABLE))),
                         preamble_len=preamble_len)
        lead = int(rng.integers(0, 3 * n + 1))
        buf = IqBuffer(np.concatenate([np.zeros(lead, dtype=complex), build_frame(spec, params).samples]), params.bw)
        if snr_db is not None:
            buf = awgn(buf, ChannelConfig(snr_db=snr_db, seed=int(rng.integers(1 << 30))))
        return params, preamble_len, lead, np.array(buf.samples)

    def assert_exact(self, samples, params, preamble_len, peak_ratio=4.0):
        # the sync must stay quiet even where a NaN or infinite sample spoils windows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fast = sync_result(detect_preamble, samples, params, preamble_len, peak_ratio)
        assert fast == sync_result(exhaustive_detect_preamble, samples, params, preamble_len, peak_ratio)
        return fast

    @pytest.mark.parametrize("sf", [7, 8, 9])
    def test_frames_from_below_sync_threshold_to_noiseless(self, sf):
        rng = np.random.default_rng(100 + sf)
        # -14 dB is below the sf 7 sync threshold; each sf step adds 3 dB of processing gain
        shift = -3.0 * (sf - 7)
        offsets = []
        for snr_db in (-14.0, -11.0, -8.0, -5.0, 0.0, 10.0, None):
            for _ in range(2):
                params, preamble_len, _, samples = self.random_capture(
                    rng, sf, None if snr_db is None else snr_db + shift)
                offsets.append(self.assert_exact(samples, params, preamble_len))
        assert None in offsets and any(o is not None for o in offsets)

    @pytest.mark.parametrize("sf", [7, 8, 9])
    def test_noise_only(self, sf):
        rng = np.random.default_rng(200 + sf)
        params = LoraParams(sf=sf, bw=125e3)
        for preamble_len in (6, 8, 11):
            size = int(rng.integers(preamble_len * params.n, 24 * params.n))
            noise = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            self.assert_exact(noise, params, preamble_len)

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_60db_burst_next_to_preamble(self, side):
        rng = np.random.default_rng(300 if side == "before" else 301)
        for sf in (7, 8, 9):
            params, preamble_len, lead, samples = self.random_capture(rng, sf, snr_db=0.0)
            n = params.n
            width = int(rng.integers(n // 4, n + 1))
            begin = max(0, lead - width) if side == "before" else lead + preamble_len * n
            amplitude = 10 ** (60.0 / 20) / np.sqrt(2)
            samples[begin: begin + width] += amplitude * (rng.standard_normal(width) + 1j * rng.standard_normal(width))
            self.assert_exact(samples, params, preamble_len)

    @pytest.mark.parametrize("sf", [7, 8])
    def test_flat_spectra_at_the_screen_bound(self, sf):
        # A window holding one nonzero sample has a flat spectrum, so |X_0|^2
        # equals the window energy and rounding alone decides whether bin 0
        # is the argmax; with peak_ratio 1 such windows are hits.
        rng = np.random.default_rng(500 + sf)
        params = LoraParams(sf=sf, bw=125e3)
        n = params.n
        offsets = []
        for _ in range(4):
            samples = np.zeros(16 * n, dtype=complex)
            where = np.arange(0, len(samples), n) + rng.integers(0, n, 16)
            samples[where] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            for preamble_len in (2, 3, 4):
                offsets.append(self.assert_exact(samples, params, preamble_len, 1.0))
        assert any(o is not None for o in offsets)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)])
    def test_one_nonfinite_sample(self, bad):
        rng = np.random.default_rng(400)
        for sf in (7, 8):
            params, preamble_len, lead, samples = self.random_capture(rng, sf, snr_db=5.0)
            n = params.n
            # lead-in, inside the preamble, just past it, and the last sample
            for where in (lead // 2, lead + n // 2, lead + preamble_len * n + int(rng.integers(0, 2 * n)),
                          len(samples) - 1):
                spoiled = samples.copy()
                spoiled[where] = bad
                self.assert_exact(spoiled, params, preamble_len)


class TestDecodeFrame:
    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("beta", BETA_TABLE)
    def test_noiseless_roundtrip(self, sf, beta):
        params = LoraParams(sf=sf, bw=125e3)
        rng = np.random.default_rng(sf * 100 + int(beta * 8))
        payload = list(rng.integers(0, params.n, 23))
        spec = FrameSpec(payload=tuple(payload), rf=ReductionFactor(beta))
        buf = build_frame(spec, params)
        decoded, rf, diag = decode_frame(buf, 0, params)
        assert decoded == payload
        assert rf.beta == beta
        assert [r.symbol for r in diag.header] == list(spec.header_symbols(params))
        assert len(diag.payload) == len(payload)

    def test_thousand_random_specs_across_grid(self):
        rng = np.random.default_rng(1000)
        combos = [(sf, beta) for sf in (7, 8, 9, 10, 11, 12) for beta in BETA_TABLE]
        for trial in range(1000):
            sf, beta = combos[trial % len(combos)]
            params = LoraParams(sf=sf, bw=125e3)
            payload = tuple(int(s) for s in rng.integers(0, params.n, int(rng.integers(0, 30))))
            preamble_len = int(rng.integers(6, 12))
            spec = FrameSpec(payload=payload, rf=ReductionFactor(beta), preamble_len=preamble_len)
            decoded, rf, _ = decode_frame(build_frame(spec, params), 0, params, preamble_len)
            assert decoded == list(payload)
            assert rf.beta == beta

    def test_roundtrip_with_detect_and_offset(self):
        spec, buf = make_frame([11, 22, 33, 44], 0.625)
        shifted = IqBuffer(np.concatenate([np.zeros(777, dtype=complex), buf.samples]), SF7.bw)
        offset = detect_preamble(shifted, SF7)
        assert offset == 777
        decoded, rf, _ = decode_frame(shifted, offset, SF7)
        assert decoded == [11, 22, 33, 44]
        assert rf.beta == 0.625

    def test_checksum_mismatch(self):
        # header with checksum symbol that contradicts length + beta index
        n = 128
        parts = [
            np.tile(base_upchirp(SF7).samples, 8),
            np.concatenate([base_downchirp(SF7).samples] * 2 + [base_downchirp(SF7).samples[: n // 4]]),
            modulate([3, 0, 99], SF7, FULL_PERIOD).samples,  # checksum should be 3
            modulate([1, 2, 3], SF7, FULL_PERIOD).samples,
        ]
        buf = IqBuffer(np.concatenate(parts), SF7.bw)
        with pytest.raises(ChecksumMismatchError):
            decode_frame(buf, 0, SF7)

    def test_unknown_beta_index(self):
        # consistent checksum but beta index beyond the table
        n = 128
        parts = [
            np.tile(base_upchirp(SF7).samples, 8),
            np.concatenate([base_downchirp(SF7).samples] * 2 + [base_downchirp(SF7).samples[: n // 4]]),
            modulate([2, 9, 11], SF7, FULL_PERIOD).samples,
            modulate([1, 2], SF7, FULL_PERIOD).samples,
        ]
        buf = IqBuffer(np.concatenate(parts), SF7.bw)
        with pytest.raises(UnknownBetaIndexError):
            decode_frame(buf, 0, SF7)

    def test_truncated_buffer(self):
        _, buf = make_frame([1, 2, 3, 4], 1.0)
        clipped = IqBuffer(buf.samples[:-200], SF7.bw)
        with pytest.raises(LengthMismatchError):
            decode_frame(clipped, 0, SF7)

    def test_recovery_at_20db(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            beta = BETA_TABLE[trial % len(BETA_TABLE)]
            payload = list(rng.integers(0, 128, 12))
            spec = FrameSpec(payload=tuple(payload), rf=ReductionFactor(beta))
            noisy = awgn(build_frame(spec, SF7), ChannelConfig(snr_db=20.0, seed=trial))
            offset = detect_preamble(noisy, SF7)
            decoded, rf, _ = decode_frame(noisy, offset, SF7)
            assert offset == 0
            assert decoded == payload
            assert rf.beta == beta


class TestAirtime:
    def test_report_fields_sf7(self):
        spec = FrameSpec(payload=tuple([0] * 20), rf=ReductionFactor(0.5))
        report = time_on_air(spec, SF7)
        t_s = SF7.t_s
        assert t_s == pytest.approx(1.024e-3)
        assert report.preamble_samples == 8 * 128 + 2 * 128 + 32
        assert report.header_samples == 3 * 128
        assert report.payload_samples == 20 * 64
        assert report.total_s == report.preamble_s + report.header_s + report.payload_s
        assert report.payload_s == pytest.approx(20 * 0.5 * t_s)
        assert report.effective_symbol_rate == pytest.approx(1 / (0.5 * t_s))

    def test_effective_rate_multiplier(self):
        base = time_on_air(FrameSpec(payload=(0,), rf=FULL_PERIOD), SF7)
        fast = time_on_air(FrameSpec(payload=(0,), rf=ReductionFactor(0.875)), SF7)
        assert fast.effective_symbol_rate / base.effective_symbol_rate == pytest.approx(1 / 0.875)
        assert round(fast.effective_symbol_rate / base.effective_symbol_rate, 3) == 1.143

    def test_payload_airtime_halves_at_half_beta(self):
        full = time_on_air(FrameSpec(payload=tuple(range(40)), rf=FULL_PERIOD), SF7)
        half = time_on_air(FrameSpec(payload=tuple(range(40)), rf=ReductionFactor(0.5)), SF7)
        assert half.payload_s == full.payload_s / 2

    def test_saving_matches_length_comparison(self):
        # T_saving > 0 iff the beta frame (3-symbol header) is shorter than a
        # baseline frame with a 2-symbol header and full-period payload
        n = 128
        for beta in BETA_TABLE:
            for n_s in (1, 2, 5, 8, 20):
                spec = FrameSpec(payload=tuple([0] * n_s), rf=ReductionFactor(beta))
                report = time_on_air(spec, SF7)
                baseline_samples = report.preamble_samples + 2 * n + n_s * n
                saving_samples = baseline_samples - report.total_samples
                assert report.saving_s == pytest.approx(saving_samples / SF7.bw, abs=1e-15)
                assert (report.saving_s > 0) == (saving_samples > 0)


class TestTimeSaving:
    def test_beta_one_costs_one_symbol(self):
        for n_s in (0, 1, 5, 100):
            assert time_saving(n_s, FULL_PERIOD, SF7) == -SF7.t_s

    def test_twenty_symbols_at_half(self):
        assert time_saving(20, ReductionFactor(0.5), SF7) == 9 * SF7.t_s

    def test_break_even_is_exact_zero(self):
        assert time_saving(2, ReductionFactor(0.5), SF7) == 0.0
        assert time_saving(8, ReductionFactor(0.875), SF7) == 0.0
        assert time_saving(4, ReductionFactor(0.75), SF7) == 0.0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            time_saving(-1, FULL_PERIOD, SF7)
