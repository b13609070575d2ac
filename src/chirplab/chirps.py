"""Chirp parameters, the one base chirp sequence _base_ramp, and the rules every module shares.

Complex baseband, critically sampled at the chirp bandwidth (one sample per chip), so a full symbol is
n = 2**sf samples and FFT bin index equals symbol index after dechirping. modem.modulate gathers each
symbol's chirp from the base upchirp, framing tiles it, and the receivers dechirp by its conjugate.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SPREADING_FACTORS = (7, 8, 9, 10, 11, 12)
BANDWIDTHS_HZ = (125_000.0, 250_000.0, 500_000.0)

# Allowed symbol-period reduction factors, ordered by header index code.
# Index i encodes beta = 1 - i/8; every value is an exact binary fraction,
# so m = beta * n is an exact integer for all supported sf.
BETA_TABLE = (1.0, 0.875, 0.75, 0.625, 0.5)

# the one temporary-size rule: a file read or a batch of transforms spans at most this many samples (2 MB)
_BLOCK_SAMPLES = 1 << 17


def check_integer(name: str, value, minimum: int) -> int:
    """The one integer rule: value as an int; ValueError unless it is an integer (not 2.0, not "2") >= minimum."""
    # a plain int skips the abstract-class check, the slow part of this rule
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_distinct(name: str, values) -> tuple:
    """The one grid-list rule: values as a tuple; ValueError unless it holds at least one value and none twice."""
    if not (values := tuple(values)) or len(set(values)) < len(values):
        raise ValueError(f"need at least one {name} and none twice, got {list(values)}")
    return values


@dataclass(frozen=True)
class LoraParams:
    """Spreading factor, bandwidth, and the symbol timing they induce; an integral sf such as 7.0 is stored as int."""

    sf: int
    bw: float

    def __post_init__(self):
        if self.sf not in SPREADING_FACTORS:
            raise ValueError(f"sf {self.sf} is not one of {SPREADING_FACTORS}")
        if float(self.bw) not in BANDWIDTHS_HZ:
            raise ValueError(f"bw must be one of {BANDWIDTHS_HZ} Hz, got {self.bw}")
        object.__setattr__(self, "sf", int(self.sf))
        object.__setattr__(self, "bw", float(self.bw))

    @property
    def n(self) -> int:
        """Samples (and chips, and symbol values) per full symbol: 2**sf."""
        return 1 << self.sf

    @property
    def t_s(self) -> float:
        """Full symbol period in seconds."""
        return self.n / self.bw


@dataclass(frozen=True)
class ReductionFactor:
    """Symbol-period reduction factor beta, stored as float, and its header index code."""

    beta: float
    index: int = field(init=False)

    def __post_init__(self):
        if self.beta not in BETA_TABLE:
            raise ValueError(f"beta must be one of {BETA_TABLE}, got {self.beta}")
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "index", BETA_TABLE.index(self.beta))

    @classmethod
    def from_index(cls, index: int) -> "ReductionFactor":
        index = check_integer("beta index", index, 0)
        if index >= len(BETA_TABLE):
            raise ValueError(f"beta index must be in [0, {len(BETA_TABLE)}), got {index}")
        return cls(BETA_TABLE[index])

    def m(self, params: LoraParams) -> int:
        """Truncated sample count: round(beta * n). Exact for all allowed beta."""
        return round(self.beta * params.n)


FULL_PERIOD = ReductionFactor(1.0)


@dataclass
class IqBuffer:
    """A finite sequence of complex baseband samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        self.samples.setflags(write=False)

    def __len__(self) -> int:
        return len(self.samples)


@lru_cache(maxsize=None)
def _base_ramp(n: int) -> np.ndarray:
    # Phase pi*j^2/n with j^2 reduced mod 2n in integer arithmetic, keeping
    # the argument of exp small; this makes the cyclic-rotation identity
    # u0[(j+k) mod n] hold to the last bit.
    j = np.arange(n, dtype=np.int64)
    ramp = np.exp(1j * np.pi * ((j * j) % (2 * n)) / n)
    ramp.setflags(write=False)
    return ramp


def _symbol_values(symbols, n: int) -> np.ndarray:
    """The symbols as an int64 array: the one symbol rule, which modem.modulate and FrameSpec apply."""
    values = np.asarray(symbols)
    if values.dtype.kind not in "bi":  # floats, and integers int64 may not hold: judged as Python numbers
        values = np.asarray(symbols, dtype=object)
        try:
            with np.errstate(invalid="ignore"):  # NaN and inf leave NaN, which is not 0
                integral = (values % 1 == 0).all()
        except TypeError:  # not a real number: a string, None, a complex value
            integral = False
        if not integral:
            raise ValueError("symbols must be integers")
    outside = (values < 0) | (values >= n)
    if outside.any():
        raise ValueError(f"symbol {int(values[outside.argmax()])} outside [0, {n})")
    return values.astype(np.int64)


def instantaneous_frequency(buf: IqBuffer) -> np.ndarray:
    """Per-step finite-difference frequency in Hz, one value per sample pair.

    f[j] = angle(s[j+1] * conj(s[j])) / (2*pi) * sample_rate, aliased into
    (-sample_rate/2, sample_rate/2].
    """
    if len(buf) < 2:
        raise ValueError("need at least 2 samples to difference a phase")
    s = buf.samples
    return np.angle(s[1:] * np.conj(s[:-1])) / (2.0 * np.pi) * buf.sample_rate
