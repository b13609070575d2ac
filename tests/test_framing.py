import functools
import warnings

import numpy as np
import pytest

from chirplab import framing
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
from chirplab.modem import LengthMismatchError, _window_spectra, modulate

from oracles import exhaustive_detect_preamble, screen_statistics

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

    def test_rejects_fractional_payload_symbols(self):
        # the payload used to be truncated to [7, 3] and sent without a word
        with pytest.raises(ValueError, match="symbols must be integers"):
            build_frame(FrameSpec(payload=(7.9, 3.2), rf=FULL_PERIOD), SF7)

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

    @pytest.mark.parametrize("sf", [7, 9])
    def test_noiseless_frames_check_few_windows(self, sf, monkeypatch):
        # the windows of at most three candidate runs reach the spectral check
        checked = []

        def counting_spectra(windows, params):
            checked.append(len(windows))
            return _window_spectra(windows, params)

        monkeypatch.setattr(framing, "_window_spectra", counting_spectra)
        params = LoraParams(sf=sf, bw=125e3)
        n = params.n
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spec = FrameSpec(payload=tuple(int(s) for s in rng.integers(0, n, 120)), rf=ReductionFactor(0.5))
            lead = int(rng.integers(0, 3 * n + 1))
            buf = IqBuffer(np.concatenate([np.zeros(lead, dtype=complex), build_frame(spec, params).samples]), params.bw)
            checked.clear()
            assert detect_preamble(buf, params) == lead
            assert sum(checked) <= 3 * (spec.preamble_len - 1)

    @pytest.mark.parametrize("sf", [7, 9])
    def test_screened_rows_follow_the_lead_in(self, sf, monkeypatch):
        # rows are screened once each, in order, and only up to the first
        # verified run, so 1000 symbols of noise after the frame add none
        screened = []
        screen = framing._screen_windows

        def counting_screen(samples, n, first, stop):
            screened.extend(range(first, stop))
            return screen(samples, n, first, stop)

        monkeypatch.setattr(framing, "_screen_windows", counting_screen)
        params = LoraParams(sf=sf, bw=125e3)
        n = params.n
        need = framing.DEFAULT_PREAMBLE_LEN - 1
        rng = np.random.default_rng(900 + sf)
        tail = rng.standard_normal(1000 * n) + 1j * rng.standard_normal(1000 * n)
        # leads in row 0, and from row 1 on, where the run's rows straddle the
        # end of the first block (rows 0 to need - 1)
        for lead in (0, 1, n - 1, n, n + n // 3, 2 * n + 5, 3 * n):
            spec = FrameSpec(payload=tuple(int(s) for s in rng.integers(0, n, 120)), rf=ReductionFactor(0.5))
            frame = np.concatenate([np.zeros(lead, dtype=complex), build_frame(spec, params).samples])
            rows = []
            for samples in (frame, np.concatenate([frame, tail])):
                screened.clear()
                assert detect_preamble(IqBuffer(samples, params.bw), params) == lead
                assert screened == list(range(len(screened)))
                rows.append(len(screened))
            assert rows[0] == rows[1] <= lead // n + need + 2


class TestScreenWindows:
    """_screen_windows against screen_statistics, its direct per-start oracle."""

    @pytest.mark.parametrize("sf", [7, 8])
    def test_matches_direct_oracle(self, sf):
        rng = np.random.default_rng(1000 + sf)
        n = 1 << sf
        bound = framing.SCREEN_ENERGY_FRACTION * max(1.0, 2.0 / (1.0 + framing.PREAMBLE_PEAK_RATIO ** -2))
        counts = np.zeros(4, dtype=int)  # windows: passing, usable, decided, unusable
        for scale in (1e-3, 1.0, 1e3):
            for bad in (np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)):
                # noise with a run of upchirps, cut off inside a symbol, one or two non-finite samples
                size = int(rng.integers(4 * n, 9 * n))
                samples = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
                start = int(rng.integers(0, size - 3 * n))
                samples[start: start + 3 * n] += 3 * scale * np.tile(framing._base_ramp(n), 3)
                samples[rng.integers(0, size, int(rng.integers(1, 3)))] = bad
                rows = size // n
                first = int(rng.integers(0, rows))
                stop = int(rng.integers(first + 1, rows + 1))
                grid = framing._screen_windows(samples, n, first, stop)
                corr2, energy = screen_statistics(samples, n, first, stop)
                unusable = np.isnan(energy)
                assert not grid[unusable].any()
                decided = ~unusable & (np.abs(corr2 - bound * energy) > 1e-9 * bound * energy)
                np.testing.assert_array_equal(grid[decided], (corr2 >= bound * energy)[decided])
                counts += [grid.sum(), (~unusable).sum(), decided.sum(), unusable.sum()]
        passing, usable, decided, unusable = counts
        assert passing > 0 and unusable > 0 and decided >= 0.99 * usable


def sync_result(detect, samples, params, preamble_len):
    try:
        return detect(IqBuffer(samples, params.bw), params, preamble_len)
    except PreambleNotFoundError:
        return None


class TestScreenedSyncIsExact:
    """detect_preamble against the full spectral search over all n alignments.

    Each case asserts the same offset, or PreambleNotFoundError from both.
    """

    @staticmethod
    def random_capture(rng, sf, snr_db=None, preamble_len=None):
        """(params, preamble_len, preamble start, samples) of one frame after a zero lead-in of 0..3n.

        preamble_len is drawn from 6..11 unless given.
        """
        params = LoraParams(sf=sf, bw=125e3)
        n = params.n
        if preamble_len is None:
            preamble_len = int(rng.integers(6, 12))
        payload = tuple(int(s) for s in rng.integers(0, n, int(rng.integers(0, 10))))
        spec = FrameSpec(payload=payload, rf=ReductionFactor(float(rng.choice(BETA_TABLE))),
                         preamble_len=preamble_len)
        lead = int(rng.integers(0, 3 * n + 1))
        buf = IqBuffer(np.concatenate([np.zeros(lead, dtype=complex), build_frame(spec, params).samples]), params.bw)
        if snr_db is not None:
            buf = awgn(buf, ChannelConfig(snr_db=snr_db, seed=int(rng.integers(1 << 30))))
        return params, preamble_len, lead, np.array(buf.samples)

    def assert_exact(self, samples, params, preamble_len):
        # the sync must stay quiet even where a NaN or infinite sample spoils windows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fast = sync_result(detect_preamble, samples, params, preamble_len)
        # the reference takes the sync's ratio, which a test may patch
        reference = functools.partial(exhaustive_detect_preamble, peak_ratio=framing.PREAMBLE_PEAK_RATIO)
        assert fast == sync_result(reference, samples, params, preamble_len)
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
    def test_flat_spectra_at_the_screen_bound(self, sf, monkeypatch):
        # A window holding one nonzero sample has a flat spectrum, so |X_0|^2
        # equals the window energy and rounding alone decides whether bin 0
        # is the argmax; with a peak ratio of 1 such windows are hits.
        monkeypatch.setattr(framing, "PREAMBLE_PEAK_RATIO", 1.0)
        rng = np.random.default_rng(500 + sf)
        params = LoraParams(sf=sf, bw=125e3)
        n = params.n
        offsets = []
        for _ in range(4):
            samples = np.zeros(16 * n, dtype=complex)
            where = np.arange(0, len(samples), n) + rng.integers(0, n, 16)
            samples[where] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            for preamble_len in (2, 3, 4):
                offsets.append(self.assert_exact(samples, params, preamble_len))
        assert any(o is not None for o in offsets)

    @pytest.mark.parametrize("sf", [7, 8])
    def test_windows_at_the_derived_bound(self, sf):
        # A hit with peak ratio R has |X_0|^2 >= 2 E / (1 + R^-2). These windows
        # meet that bound up to rounding: a dechirped spectrum with bin 0 at 1,
        # n/2 - 1 bins just under 1 and n/2 just under 1/R, at random phases. In
        # groups of two they follow a window 60 dB louder, whose rounding in the
        # screen's 2n-point transform outweighs their excess over the bound but
        # not the screen's margin.
        rng = np.random.default_rng(800 + sf)
        params = LoraParams(sf=sf, bw=125e3)
        n = params.n
        ratio = framing.PREAMBLE_PEAK_RATIO
        bins = np.concatenate([np.full(n // 2 - 1, 1.0 - 1e-15), np.full(n // 2, (1.0 - 3e-15) / ratio)])
        offsets = []
        for _ in range(4):
            windows = []
            for _ in range(8):
                loud = 1e3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                spectra = np.concatenate([[1.0], rng.permutation(bins)]) * np.exp(2j * np.pi * rng.random((2, n)))
                windows += [loud, *(np.fft.ifft(spectra, axis=1) * framing._base_ramp(n))]
            lead = np.zeros(int(rng.integers(0, 2 * n)), dtype=complex)
            samples = np.concatenate([lead, *windows])
            for preamble_len in (2, 3):
                offsets.append(self.assert_exact(samples, params, preamble_len))
        assert None not in offsets

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

    @pytest.mark.parametrize("preamble_len", [1, 2])
    def test_one_window_runs(self, preamble_len):
        # a run is one window, so every screened window is a candidate; at sf 10
        # a noisy row holds more of them than one spectral check takes
        rng = np.random.default_rng(600 + preamble_len)
        for sf in (7, 8, 9, 10):
            for snr_db in (-10.0 - 3.0 * (sf - 7), 0.0, None):
                params, _, _, samples = self.random_capture(rng, sf, snr_db, preamble_len)
                self.assert_exact(samples, params, preamble_len)
            size = int(rng.integers(params.n, 12 * params.n))
            self.assert_exact(rng.standard_normal(size) + 1j * rng.standard_normal(size), params, preamble_len)

    @pytest.mark.parametrize("snr_db", [0.0, None])
    def test_captures_cut_inside_or_right_after_the_preamble(self, snr_db):
        rng = np.random.default_rng(700 if snr_db is None else 701)
        for sf in (7, 8, 9):
            params, preamble_len, lead, samples = self.random_capture(rng, sf, snr_db)
            n = params.n
            # cut right after the last upchirp; where the first run of
            # preamble_len - 1 upchirps ends, so that its last window ends at the
            # buffer's last sample; one sample short of that; inside the run
            for end in (lead + preamble_len * n, lead + (preamble_len - 1) * n,
                        lead + (preamble_len - 1) * n - 1, lead + int(rng.integers(n, (preamble_len - 1) * n))):
                self.assert_exact(samples[:end], params, preamble_len)


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
        assert diag.header.symbols.tolist() == list(spec.header_symbols(params))
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

    @pytest.mark.parametrize("preamble_len", [0, -3, -8])
    def test_rejects_preamble_len_below_one(self, preamble_len):
        _, buf = make_frame([1, 2, 3], 1.0)
        with pytest.raises(ValueError):
            detect_preamble(buf, SF7, preamble_len)
        with pytest.raises(ValueError):
            decode_frame(buf, 0, SF7, preamble_len)

    @pytest.mark.parametrize("preamble_len", [2.5, 8.0, 8.5])
    def test_rejects_preamble_len_not_an_integer(self, preamble_len):
        _, buf = make_frame([1, 2, 3], 1.0)
        for call in (lambda: time_on_air(FrameSpec(payload=(1, 2, 3), rf=FULL_PERIOD, preamble_len=preamble_len), SF7),
                     lambda: build_frame(FrameSpec(payload=(1, 2, 3), rf=FULL_PERIOD, preamble_len=preamble_len), SF7),
                     lambda: detect_preamble(buf, SF7, preamble_len),
                     lambda: decode_frame(buf, 0, SF7, preamble_len)):
            with pytest.raises(ValueError, match="preamble_len must be an integer"):
                call()

    @pytest.mark.parametrize("offset, message", [(-1888, "offset must be >= 0, got -1888"),
                                                 (-1, "offset must be >= 0, got -1"),
                                                 (1888.0, "offset must be an integer, got 1888.0"),
                                                 (1.5, "offset must be an integer, got 1.5")],
                             ids=["-1888", "-1", "1888.0", "1.5"])
    def test_rejects_offset_not_an_integer_at_least_zero(self, offset, message):
        # two back-to-back frames: -1888 must not count from the end onto the second one
        _, first = make_frame([4, 5, 6], 0.5)
        _, second = make_frame([1, 2, 3], 0.5)
        buf = IqBuffer(np.concatenate([first.samples, second.samples]), SF7.bw)
        assert len(first) == 1888
        assert decode_frame(buf, 1888, SF7)[0] == [1, 2, 3]
        with pytest.raises(ValueError, match=message):
            decode_frame(buf, offset, SF7)

    def test_truncated_buffer(self):
        _, buf = make_frame([1, 2, 3, 4], 1.0)
        clipped = IqBuffer(buf.samples[:-200], SF7.bw)
        with pytest.raises(LengthMismatchError):
            decode_frame(clipped, 0, SF7)

    def test_non_finite_lead_in_still_decodes(self):
        # only the windows decode_frame decodes are checked for non-finite samples
        _, buf = make_frame([1, 2, 3, 4, 5, 6], 0.5)
        capture = IqBuffer(np.concatenate([np.full(200, np.nan, dtype=complex), buf.samples]), SF7.bw)
        offset = detect_preamble(capture, SF7)
        assert offset == 200
        assert decode_frame(capture, offset, SF7)[0] == [1, 2, 3, 4, 5, 6]

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

    @pytest.mark.parametrize("payload", [(7.9,), (-1,), (128,), (np.nan,), (0,) * 128],
                             ids=["fraction", "negative", "n", "nan", "n-zeros"])
    def test_rejects_what_build_frame_rejects(self, payload):
        # no airtime for a frame that cannot be built
        spec = FrameSpec(payload=payload, rf=FULL_PERIOD)
        with pytest.raises(ValueError):
            build_frame(spec, SF7)
        with pytest.raises(ValueError):
            time_on_air(spec, SF7)

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
