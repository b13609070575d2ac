"""IQ capture files: raw interleaved little-endian float32 pairs (cf32).

No in-band header; metadata travels in a sidecar text file of key=value
lines next to the capture (``<path>.meta``). The sidecar records at least
sf and bw, plus beta for symbol captures and preamble_len for frames, and
versions the beta index code table.
"""
from __future__ import annotations

import os

import numpy as np

from .chirps import _BLOCK_SAMPLES, BANDWIDTHS_HZ, BETA_TABLE, SPREADING_FACTORS, IqBuffer
from .framing import PREAMBLE_LENS

SIDECAR_SUFFIX = ".meta"
FORMAT_VERSION = "cf32.v1"
BETA_TABLE_VERSION = "v1"

# sidecar keys read as typed values: (parse, the values a capture can carry)
_SIDECAR_VALUES = {
    "sf": (int, SPREADING_FACTORS.__contains__),
    "bw": (float, BANDWIDTHS_HZ.__contains__),
    "beta": (float, BETA_TABLE.__contains__),
    "preamble_len": (int, PREAMBLE_LENS.__contains__),
}


class IqFormatError(Exception):
    """An IQ capture or its sidecar is malformed."""


def sidecar_path(iq_path) -> str:
    return str(iq_path) + SIDECAR_SUFFIX


def write_iq(path, buf: IqBuffer, meta: dict):
    """Write samples as cf32 and the metadata sidecar next to it."""
    np.asarray(buf.samples, dtype="<c8").tofile(path)
    lines = {"format": FORMAT_VERSION, "beta_table": BETA_TABLE_VERSION}
    lines.update(meta)
    with open(sidecar_path(path), "w", encoding="utf-8") as handle:
        for key, value in lines.items():
            handle.write(f"{key}={value}\n")


def read_sidecar(path) -> dict:
    """Sidecar key=value pairs, sf, bw, beta and preamble_len typed and checked, other values as strings.

    A sidecar that is missing, not UTF-8 or repeats a key, a foreign format
    or beta_table, or a value no capture can carry raises IqFormatError.
    The file is read and decoded whole, then split into lines as text mode
    splits them: at CR LF, a lone CR and LF only, so a form feed, U+0085 or
    U+2028 stays inside its line (str.splitlines would end the line there).
    """
    meta_path = sidecar_path(path)
    meta = {}
    try:
        with open(meta_path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise IqFormatError(f"missing sidecar {meta_path}") from None
    except UnicodeDecodeError:
        raise IqFormatError(f"{meta_path}: not UTF-8 text") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(map(str.strip, lines), 1):
        if not line or line[0] == "#":
            continue
        if "=" not in line:
            raise IqFormatError(f"{meta_path}:{lineno}: expected key=value, got {line!r}")
        key, value = map(str.strip, line.split("=", 1))
        if key in meta:
            raise IqFormatError(f"{meta_path}:{lineno}: key '{key}' repeated")
        meta[key] = value
    for key, supported in (("format", FORMAT_VERSION), ("beta_table", BETA_TABLE_VERSION)):
        if key in meta and meta[key] != supported:
            raise IqFormatError(f"{meta_path}: {key}={meta[key]} is not the supported {supported}")
    for key, (parse, possible) in _SIDECAR_VALUES.items():
        if key not in meta:
            continue
        try:
            value = parse(meta[key])
        except ValueError:
            value = None
        if value is None or not possible(value):
            raise IqFormatError(f"{meta_path}: {key}={meta[key]} is not a value a capture can carry")
        meta[key] = value
    return meta


def read_iq(path, sample_rate: float) -> IqBuffer:
    """Read a cf32 capture into one complex128 array sized from the open file, _BLOCK_SAMPLES samples at a time.

    Each piece is read straight into one reused complex64 staging array, then widened into its slice.

    IqFormatError for a dangling half-sample, or a file that does not hold the size it had when opened (a pipe).
    """
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size % 8 != 0:
                raise IqFormatError(f"{path}: size is not a multiple of 8 bytes (float32 I/Q pairs)")
            samples = np.empty(size // 8, dtype=np.complex128)
            staging = np.empty(min(samples.size, _BLOCK_SAMPLES), dtype="<c8")
            for lo in range(0, samples.size, _BLOCK_SAMPLES):
                part = samples[lo: lo + _BLOCK_SAMPLES]
                piece = staging[: part.size]
                if handle.readinto(piece) != 8 * part.size:
                    raise IqFormatError(f"{path}: ended before the {size} bytes it reported")
                part[...] = piece
            if handle.read(1):
                raise IqFormatError(f"{path}: holds more than the {size} bytes it reported")
    except (FileNotFoundError, NotADirectoryError):
        raise IqFormatError(f"no such IQ file: {path}") from None
    return IqBuffer(samples, sample_rate)
