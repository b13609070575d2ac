"""IQ capture files: raw interleaved little-endian float32 pairs (cf32).

No in-band header; metadata travels in a sidecar text file of key=value
lines next to the capture (``<path>.meta``). The sidecar records at least
sf and bw, plus beta for symbol captures and preamble_len for frames, and
versions the beta index code table.
"""
from __future__ import annotations

import os

import numpy as np

from .chirps import IqBuffer

SIDECAR_SUFFIX = ".meta"
FORMAT_VERSION = "cf32.v1"
BETA_TABLE_VERSION = "v1"


class IqFormatError(Exception):
    """An IQ capture or its sidecar is malformed."""


def sidecar_path(iq_path) -> str:
    return str(iq_path) + SIDECAR_SUFFIX


def write_iq(path, buf: IqBuffer, meta: dict):
    """Write samples as cf32 and the metadata sidecar next to it."""
    np.asarray(buf.samples, dtype="<c8").tofile(path)
    lines = {"format": FORMAT_VERSION, "beta_table": BETA_TABLE_VERSION}
    lines.update(meta)
    with open(sidecar_path(path), "w") as handle:
        for key, value in lines.items():
            handle.write(f"{key}={value}\n")


def read_sidecar(path) -> dict:
    """Sidecar key=value pairs; a format or beta_table other than this version's is rejected."""
    meta_path = sidecar_path(path)
    if not os.path.exists(meta_path):
        raise IqFormatError(f"missing sidecar {meta_path}")
    meta = {}
    with open(meta_path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise IqFormatError(f"{meta_path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            meta[key.strip()] = value.strip()
    for key, supported in (("format", FORMAT_VERSION), ("beta_table", BETA_TABLE_VERSION)):
        if meta.get(key, supported) != supported:
            raise IqFormatError(f"{meta_path}: {key}={meta[key]} is not the supported {supported}")
    return meta


def read_iq(path, sample_rate: float) -> IqBuffer:
    """Read a cf32 capture; rejects files with a dangling half-sample."""
    if not os.path.exists(path):
        raise IqFormatError(f"no such IQ file: {path}")
    if os.path.getsize(path) % 8 != 0:
        raise IqFormatError(f"{path}: size is not a multiple of 8 bytes (float32 I/Q pairs)")
    samples = np.fromfile(path, dtype="<c8").astype(np.complex128)
    return IqBuffer(samples, sample_rate)
