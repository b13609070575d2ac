"""Physical-layer packet assembly, synchronization, and airtime accounting.

Frame layout (sample-exact): preamble_len base upchirps, 2.25 base downchirps
(two full plus the first n/4 samples of a third, used only as a spacer), then
three full-period header symbols [payload length, beta index, checksum], then
the payload modulated at the reduced period. Preamble and header always use
the full symbol period; only payload symbols are truncated.

The header checksum is (length + beta_index) mod n. The beta index code is
defined by chirps.BETA_TABLE (index i encodes beta = 1 - i/8).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chirps import (
    BETA_TABLE,
    FULL_PERIOD,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    _base_ramp,
)
from .modem import (
    NOISE_FLOOR_MIN,
    DemodResult,
    _peak_and_floor,
    _window_spectra,
    demodulate,
    modulate,
)

DEFAULT_PREAMBLE_LEN = 8
# Minimum peak-over-floor ratio for a window to count as a preamble hit;
# the max/median ratio of pure-noise spectra stays well below this.
PREAMBLE_PEAK_RATIO = 4.0
# A preamble hit needs bin 0 to be the largest of the window's n bins. By
# Parseval their squared magnitudes average to the window energy E, so a hit
# has |X_0|^2 >= E, and X_0 is the window's correlation with the base upchirp.
# The screen tests that bound at 0.9 E. The 10% margin absorbs rounding: a
# window with a flat spectrum (one nonzero sample) meets the bound with
# equality, and the screen's correlation comes from a 2n-point transform over
# a block that may also hold a far louder neighbour. Tested at exactly E, the
# flat windows of the exactness tests are lost to rounding.
SCREEN_ENERGY_FRACTION = 0.9


class PreambleNotFoundError(Exception):
    """No sample offset produced a qualifying run of preamble decisions."""


class ChecksumMismatchError(Exception):
    """Header checksum symbol does not match length + beta index."""


class UnknownBetaIndexError(Exception):
    """Header beta-index symbol is outside the defined code table."""


@dataclass(frozen=True)
class FrameSpec:
    """Payload symbols plus the framing parameters that wrap them."""

    payload: tuple
    rf: ReductionFactor
    preamble_len: int = DEFAULT_PREAMBLE_LEN

    def __post_init__(self):
        object.__setattr__(self, "payload", tuple(int(s) for s in self.payload))
        if self.preamble_len < 1:
            raise ValueError("preamble_len must be >= 1")

    def header_symbols(self, params: LoraParams) -> tuple[int, int, int]:
        """(length, beta index, checksum) for this spec; all in [0, n)."""
        n = params.n
        if len(self.payload) >= n:
            raise ValueError(f"payload of {len(self.payload)} symbols does not fit a length symbol (< {n})")
        length = len(self.payload)
        checksum = (length + self.rf.index) % n
        return length, self.rf.index, checksum


@dataclass(frozen=True)
class FrameDiagnostics:
    """Per-symbol demodulation results from a decoded frame."""

    header: list[DemodResult]
    payload: list[DemodResult]


@dataclass(frozen=True)
class AirtimeReport:
    """Airtime of one frame, split by section, with the truncation saving."""

    preamble_s: float
    header_s: float
    payload_s: float
    total_s: float = field(init=False)
    saving_s: float = 0.0
    effective_symbol_rate: float = 0.0
    preamble_samples: int = 0
    header_samples: int = 0
    payload_samples: int = 0

    def __post_init__(self):
        object.__setattr__(self, "total_s", self.preamble_s + self.header_s + self.payload_s)

    @property
    def total_samples(self) -> int:
        return self.preamble_samples + self.header_samples + self.payload_samples


def _preamble_samples(preamble_len: int, n: int) -> int:
    """Samples from the preamble start to the header: the upchirps and the 2.25-downchirp spacer."""
    return preamble_len * n + 2 * n + n // 4


def build_frame(spec: FrameSpec, params: LoraParams) -> IqBuffer:
    """Assemble the full frame waveform; every section at critical sampling."""
    n = params.n
    header = spec.header_symbols(params)
    up = _base_ramp(n)
    # the downchirp spacer is the preamble section of a frame without upchirps
    parts = [np.tile(up, spec.preamble_len), np.resize(np.conj(up), _preamble_samples(0, n))]
    parts.append(modulate(header, params, FULL_PERIOD).samples)
    if spec.payload:
        parts.append(modulate(spec.payload, params, spec.rf).samples)
    return IqBuffer(np.concatenate(parts), params.bw)


def _screen_windows(samples: np.ndarray, n: int) -> np.ndarray:
    """Which windows can be preamble hits, as a (len // n, n) grid.

    Entry [i, a] is for the window at start a + i n; starts past len - n are
    False. Tests |corr[s]|^2 >= SCREEN_ENERGY_FRACTION * E[s] at every start
    by overlap-save: row b holds the starts [b n, (b + 1) n), whose windows
    lie in samples [b n, (b + 2) n), that is in blocks b and b + 1, and one
    2n-point transform gives the row's correlations. Each energy is a suffix sum of block b plus a prefix
    sum of block b + 1, so it adds only samples inside its window. Non-finite
    samples are zeroed so that they cannot spoil a block, and every window
    holding one fails: its spectrum is NaN, so the exact check never counts
    it a hit.
    """
    finite = np.isfinite(samples)
    blocks = len(samples) // n
    padded = np.zeros((blocks + 1) * n, dtype=np.complex128)
    padded[: len(samples)] = np.where(finite, samples, 0)
    segments = np.lib.stride_tricks.sliding_window_view(padded, 2 * n)[::n]
    template = np.conj(np.fft.fft(_base_ramp(n), 2 * n))
    corr = np.fft.ifft(np.fft.fft(segments, axis=1) * template, axis=1)[:, :n]
    power = (padded.real ** 2 + padded.imag ** 2).reshape(blocks + 1, n)
    energy = np.cumsum(power[:-1, ::-1], axis=1)[:, ::-1]
    energy[:, 1:] += np.cumsum(power[1:, :-1], axis=1)
    passing = corr.real ** 2 + corr.imag ** 2 >= SCREEN_ENERGY_FRACTION * energy
    # samples no hit can hold: the non-finite ones and the padding past the end
    unusable = np.ones(len(padded), dtype=bool)
    unusable[: len(samples)] = ~finite
    held = np.concatenate(([0], np.cumsum(unusable)))
    return passing & (held[n: len(padded)] == held[: blocks * n]).reshape(blocks, n)


def _first_run(samples: np.ndarray, params: LoraParams, align: int, need: int, peak_ratio: float):
    """Start of the earliest run of need consecutive hits at one alignment, or None."""
    n = params.n
    count = (len(samples) - align) // n
    windows = samples[align: align + count * n].reshape(count, n)
    # a window holding a NaN or infinite sample gets a NaN ratio, never a hit
    with np.errstate(invalid="ignore"):
        bins, peaks, floors = _peak_and_floor(_window_spectra(windows, params))
        hit = (bins == 0) & (peaks / np.maximum(floors, NOISE_FLOOR_MIN) >= peak_ratio)
    run = 0
    for i, ok in enumerate(hit):
        run = run + 1 if ok else 0
        if run >= need:
            return align + (i - run + 1) * n
    return None


def detect_preamble(buf: IqBuffer, params: LoraParams,
                    preamble_len: int = DEFAULT_PREAMBLE_LEN,
                    peak_ratio: float = PREAMBLE_PEAK_RATIO) -> int:
    """Locate the preamble start to integer-sample alignment.

    Looks, over every alignment in [0, n), for at least preamble_len - 1
    consecutive full-symbol windows (whole-symbol steps apart) whose dechirped
    spectrum peaks at bin 0 with a peak-over-floor ratio of at least
    peak_ratio. Returns the sample offset where the earliest qualifying run
    begins; raises PreambleNotFoundError when nothing qualifies.

    A screen over every start sample (see _screen_windows) rules out the
    windows that cannot be hits, and only the alignments with a run of
    preamble_len - 1 passing windows get the exact spectral check. As every
    hit passes the screen, the result equals that of checking all n
    alignments.
    """
    n = params.n
    need = max(1, preamble_len - 1)
    if len(buf) < need * n:
        raise PreambleNotFoundError(f"buffer shorter than the {need} symbols of a preamble run")
    grid = _screen_windows(buf.samples, n)
    runs = np.zeros((len(grid) + 1, n), dtype=np.intp)
    np.cumsum(grid, axis=0, out=runs[1:])
    qualifies = (runs[need:] - runs[:-need]) == need
    aligns = np.flatnonzero(qualifies.any(axis=0))
    # no run at an alignment can start before its first passing run
    earliest = aligns + qualifies[:, aligns].argmax(axis=0) * n
    best = None
    for bound, align in sorted(zip(earliest.tolist(), aligns.tolist())):
        if best is not None and bound >= best:
            break
        start = _first_run(buf.samples, params, align, need, peak_ratio)
        if start is not None and (best is None or start < best):
            best = start
    if best is None:
        raise PreambleNotFoundError("no preamble run found above the peak-ratio threshold")
    return best


def decode_frame(buf: IqBuffer, offset: int, params: LoraParams,
                 preamble_len: int = DEFAULT_PREAMBLE_LEN) -> tuple[list[int], ReductionFactor, FrameDiagnostics]:
    """Decode header and payload of a frame whose preamble starts at offset."""
    n = params.n
    header_start = offset + _preamble_samples(preamble_len, n)
    header_results = demodulate(IqBuffer(buf.samples[header_start:], params.bw), params, FULL_PERIOD, 3)
    length_sym, beta_sym, checksum_sym = (r.symbol for r in header_results)
    if (length_sym + beta_sym) % n != checksum_sym:
        raise ChecksumMismatchError(
            f"header checksum {checksum_sym} != ({length_sym} + {beta_sym}) mod {n}"
        )
    if beta_sym >= len(BETA_TABLE):
        raise UnknownBetaIndexError(f"beta index {beta_sym} outside table of {len(BETA_TABLE)} entries")
    rf = ReductionFactor.from_index(beta_sym)
    payload_start = header_start + 3 * n
    payload_buf = IqBuffer(buf.samples[payload_start:], params.bw)
    payload_results = demodulate(payload_buf, params, rf, length_sym)
    payload = [r.symbol for r in payload_results]
    return payload, rf, FrameDiagnostics(header=header_results, payload=payload_results)


def time_on_air(spec: FrameSpec, params: LoraParams) -> AirtimeReport:
    """Airtime accounting from exact integer sample counts."""
    n = params.n
    spec.header_symbols(params)  # validates payload length
    m = spec.rf.m(params)
    preamble_samples = _preamble_samples(spec.preamble_len, n)
    header_samples = 3 * n
    payload_samples = len(spec.payload) * m
    return AirtimeReport(
        preamble_s=preamble_samples / params.bw,
        header_s=header_samples / params.bw,
        payload_s=payload_samples / params.bw,
        saving_s=time_saving(len(spec.payload), spec.rf, params),
        effective_symbol_rate=params.bw / m,
        preamble_samples=preamble_samples,
        header_samples=header_samples,
        payload_samples=payload_samples,
    )


def time_saving(n_s: int, rf: ReductionFactor, params: LoraParams) -> float:
    """Airtime saved by truncating n_s payload symbols, net of the one-symbol header overhead.

    (n_s * (1 - beta) - 1) * t_s; negative when the overhead dominates,
    zero at the break-even point n_s * (1 - beta) = 1.
    """
    if n_s < 0:
        raise ValueError("symbol count must be non-negative")
    return (n_s * (1.0 - rf.beta) - 1.0) * params.t_s
