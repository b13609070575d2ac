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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chirps import (
    _BLOCK_SAMPLES,
    BETA_TABLE,
    FULL_PERIOD,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    _base_ramp,
    _symbol_values,
    check_integer,
)
from .modem import DemodResult, _peak_and_floor, _window_spectra, demodulate, modulate

DEFAULT_PREAMBLE_LEN = 8
# Minimum peak-over-floor ratio for a window to count as a preamble hit;
# the max/median ratio of pure-noise spectra stays well below this.
PREAMBLE_PEAK_RATIO = 4.0
# A preamble hit with peak ratio R has |X_0|^2 = P as its largest squared bin,
# and its floor (order statistic (n - 2) / 2) is at most sqrt(P) / R, so n / 2
# bins are at most P / R^2 and the other n / 2 at most P. By Parseval the n
# squared bins sum to n E, E the window energy, so P >= 2 E / (1 + R^-2), and
# P >= E in any case. X_0 is the window's correlation with the base upchirp.
# The screen tests that bound times 0.9. The 10% margin absorbs rounding: a
# window can meet the bound with equality (a flat spectrum at R = 1), and the
# screen's correlation comes from a 2n-point transform over a block that may
# also hold a far louder neighbour. Tested at the bound itself, windows that
# meet it with equality are lost to rounding.
SCREEN_ENERGY_FRACTION = 0.9


class PreambleNotFoundError(Exception):
    """No sample offset produced a qualifying run of preamble decisions."""


class ChecksumMismatchError(Exception):
    """Header checksum symbol does not match length + beta index."""


class UnknownBetaIndexError(Exception):
    """Header beta-index symbol is outside the defined code table."""


def check_payload_length(length: int, n: int) -> int:
    """The length rule: length, or ValueError unless the header's length symbol, in [0, n), can carry it."""
    if length >= n:
        raise ValueError(f"payload of {length} symbols does not fit a length symbol (< {n})")
    return length


@dataclass(frozen=True)
class FrameSpec:
    """Payload symbols plus the framing parameters that wrap them."""

    payload: tuple
    rf: ReductionFactor
    preamble_len: int = DEFAULT_PREAMBLE_LEN

    def __post_init__(self):
        object.__setattr__(self, "payload", tuple(self.payload))
        check_integer("preamble_len", self.preamble_len, 1)

    def header_symbols(self, params: LoraParams) -> tuple[int, int, int]:
        """(length, beta index, checksum), all in [0, n); ValueError for a payload build_frame cannot send."""
        n = params.n
        length = check_payload_length(len(self.payload), n)
        _symbol_values(self.payload, n)
        return length, self.rf.index, (length + self.rf.index) % n


@dataclass(frozen=True)
class FrameDiagnostics:
    """The demodulation records of a decoded frame: one for the 3 header windows, one for the payload's."""

    header: DemodResult
    payload: DemodResult


@dataclass(frozen=True)
class AirtimeReport:
    """Airtime of one frame, split by section, with the truncation saving."""

    preamble_s: float
    header_s: float
    payload_s: float
    saving_s: float
    effective_symbol_rate: float
    preamble_samples: int
    header_samples: int
    payload_samples: int

    @property
    def total_s(self) -> float:
        return self.preamble_s + self.header_s + self.payload_s

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
    parts = [np.tile(up, spec.preamble_len), np.resize(np.conj(up), _preamble_samples(0, n)),
             modulate(header, params, FULL_PERIOD).samples, modulate(spec.payload, params, spec.rf).samples]
    return IqBuffer(np.concatenate(parts), params.bw)


@lru_cache(maxsize=None)
def _screen_template(n: int) -> np.ndarray:
    """conj(fft(u, 2n)) of the base upchirp u: the screen's overlap-save correlation template."""
    template = np.conj(np.fft.fft(_base_ramp(n), 2 * n))
    template.setflags(write=False)
    return template


def _screen_windows(samples: np.ndarray, n: int, first: int, stop: int) -> np.ndarray:
    """Which windows of rows first to stop - 1 can be preamble hits, as a (stop - first, n) grid.

    Row b holds the starts [b n, (b + 1) n), and entry [i, a] is for the
    window at start a + (first + i) n; starts past len - n are False. Tests
    |corr[s]|^2 >= SCREEN_ENERGY_FRACTION * max(1, 2 / (1 + R^-2)) * E[s], R
    the PREAMBLE_PEAK_RATIO of the moment, at every start by overlap-save: the
    windows of row b lie in samples [b n, (b + 2) n), that is in blocks b and
    b + 1, so only the blocks first to stop are read, and one 2n-point
    transform gives a row's correlations. Each energy is a suffix sum of
    block b plus a prefix sum of block b + 1, so it adds only samples inside
    its window. A sample no hit can hold, non-finite or past the buffer's
    end, is zeroed in the transform, so that it cannot spoil a block, and
    has infinite power, so that no window holding it passes. A chunk with
    no such sample, the usual case, is used as it is.
    """
    chunk = samples[first * n: (stop + 1) * n]
    blocks = stop - first
    finite = np.isfinite(chunk)
    power = chunk.real ** 2 + chunk.imag ** 2
    if len(chunk) < (blocks + 1) * n or not finite.all():
        padded = np.zeros((blocks + 1) * n, dtype=np.complex128)
        padded_power = np.full((blocks + 1) * n, np.inf)
        np.copyto(padded[: len(chunk)], chunk, where=finite)
        np.copyto(padded_power[: len(chunk)], power, where=finite)
        chunk, power = padded, padded_power
    chunk, power = chunk.reshape(blocks + 1, n), power.reshape(blocks + 1, n)
    segments = np.concatenate((chunk[:-1], chunk[1:]), axis=1)
    corr = np.fft.ifft(np.fft.fft(segments, axis=1) * _screen_template(n), axis=1)[:, :n]
    energy = power[:-1, ::-1].cumsum(axis=1)[:, ::-1]
    energy[:, 1:] += power[1:, :-1].cumsum(axis=1)
    bound = SCREEN_ENERGY_FRACTION * max(1.0, 2.0 / (1.0 + PREAMBLE_PEAK_RATIO ** -2))
    return corr.real ** 2 + corr.imag ** 2 >= bound * energy


def detect_preamble(buf: IqBuffer, params: LoraParams,
                    preamble_len: int = DEFAULT_PREAMBLE_LEN) -> int:
    """Locate the preamble start to integer-sample alignment.

    Looks, over every alignment in [0, n), for at least preamble_len - 1
    consecutive full-symbol windows (whole-symbol steps apart) whose dechirped
    spectrum peaks at bin 0 with a peak-over-floor ratio of at least
    PREAMBLE_PEAK_RATIO. Returns the sample offset where the earliest
    qualifying run begins; raises PreambleNotFoundError when nothing qualifies.

    A screen (see _screen_windows) rules out the windows that cannot be hits.
    Its rows are screened lazily, each once, in blocks of growing size: first
    the preamble_len - 1 rows that a run starting in row 0 touches, then 1,
    2, 4, ... more. The rows are taken in order, and a row is taken once the
    rows its runs reach are screened: the windows of every run of
    preamble_len - 1 passing windows that starts in it get one batched
    spectral check (split only past _BLOCK_SAMPLES samples), and the earliest start whose
    windows are all hits is the result, so the search stops at the first
    verified run. As every hit passes the screen and every start in an
    earlier row is an earlier sample, it equals that of checking all n
    alignments.
    """
    n = params.n
    need = max(1, check_integer("preamble_len", preamble_len, 1) - 1)
    samples = buf.samples
    if len(samples) < need * n:
        raise PreambleNotFoundError(f"buffer shorter than the {need} symbols of a preamble run")
    rows = len(samples) // n
    grid = np.empty((rows, n), dtype=bool)
    # a run starting at s holds the samples [s, s + need n); the grid holds no
    # start past len - n, so every gathered run lies in the buffer
    span = np.arange(need * n)
    # at most _BLOCK_SAMPLES samples per check: on noise a row of one-window runs
    # can hold a fifth of its n starts as candidates
    block = max(1, _BLOCK_SAMPLES // (need * n))
    row, screened = 0, 0
    while screened < rows:
        # the first block is the need rows of row 0's runs; past it, blocks of 1, 2, 4, ... rows
        stop = min(rows, 2 * screened - need + 1 if screened else need)
        grid[screened: stop] = _screen_windows(samples, n, screened, stop)
        screened = stop
        # the runs starting in rows row to screened - need, from passing counts over need rows
        runs = np.zeros((screened - row + 1, n), dtype=np.intp)
        grid[row: screened].cumsum(axis=0, out=runs[1:])
        qualifies = (runs[need:] - runs[:-need]) == need
        for i in qualifies.any(axis=1).nonzero()[0]:
            candidates = (row + i) * n + qualifies[i].nonzero()[0]
            for lo in range(0, len(candidates), block):
                starts = candidates[lo: lo + block]
                run_windows = samples[starts[:, None] + span].reshape(-1, n)
                bins, _, _, ratios = _peak_and_floor(_window_spectra(run_windows, params))
                hit = (bins == 0) & (ratios >= PREAMBLE_PEAK_RATIO)
                complete = hit.reshape(len(starts), need).all(axis=1)
                first = complete.argmax()
                if complete[first]:
                    return int(starts[first])
        row += len(qualifies)
    raise PreambleNotFoundError("no preamble run found above the peak-ratio threshold")


def decode_frame(buf: IqBuffer, offset: int, params: LoraParams,
                 preamble_len: int = DEFAULT_PREAMBLE_LEN) -> tuple[list[int], ReductionFactor, FrameDiagnostics]:
    """Decode header and payload of a frame whose preamble starts at offset, an integer >= 0."""
    n = params.n
    offset, preamble_len = check_integer("offset", offset, 0), check_integer("preamble_len", preamble_len, 1)
    header_start = offset + _preamble_samples(preamble_len, n)
    header = demodulate(IqBuffer(buf.samples[header_start:], params.bw), params, FULL_PERIOD, 3)
    length_sym, beta_sym, checksum_sym = header.symbols.tolist()
    if (length_sym + beta_sym) % n != checksum_sym:
        raise ChecksumMismatchError(
            f"header checksum {checksum_sym} != ({length_sym} + {beta_sym}) mod {n}"
        )
    if beta_sym >= len(BETA_TABLE):
        raise UnknownBetaIndexError(f"beta index {beta_sym} outside table of {len(BETA_TABLE)} entries")
    rf = ReductionFactor.from_index(beta_sym)
    payload = demodulate(IqBuffer(buf.samples[header_start + 3 * n:], params.bw), params, rf, length_sym)
    return payload.symbols.tolist(), rf, FrameDiagnostics(header=header, payload=payload)


def time_on_air(spec: FrameSpec, params: LoraParams) -> AirtimeReport:
    """Airtime accounting from exact integer sample counts."""
    n = params.n
    spec.header_symbols(params)  # rejects what build_frame rejects
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
    return (check_integer("n_s", n_s, 0) * (1.0 - rf.beta) - 1.0) * params.t_s
