"""Byte pins: the SHA-256 of every output of a few small CLI runs, per stream version.

README promises that a row reproduces exactly from its seed and parameters,
and that a change to the mapping from seed to output bytes bumps
STREAM_VERSION. These digests hold that mapping: a change that alters any
output without a bump fails here. Digests are recorded under one NumPy
version; under another, transforms may round differently, so the test skips
and names both versions.
"""
import contextlib
import hashlib
import io
import shlex

import numpy as np
import pytest

from chirplab import cli
from chirplab.montecarlo import STREAM_VERSION

# stream version -> (NumPy version the digests were recorded under, {output: sha256 of its bytes})
PINNED = {
    2: ("2.4.6", {
        "ber.csv": "c4ec29e069a33dbb77e0469f4e0ff08c88b34d39d77d23f980b511fc84c413b3",
        "bins.csv": "0cdc37824d02a9850e82e9319f4e7e0a688dc0d9d0d4ba36b7e69c4a60901442",
        "frame-decode.out": "7e1f8bdc2f13c7dfd2d1be28ab46850f41c661b1c5b9e948b52a1b67ca44875a",
        "frame.cf32": "0773a584f53d1675fd0ffd03c44734b5185a2b8baa203e15edd4bed90bc5c24b",
        "frame.cf32.meta": "35856e82cb01ecc39892b23efb74c44624abd838006745c216a3e77c0f22154e",
        "peak.csv": "a4985b8b61a54a4bf6a35ffefa79f227f9760c54a42f5ee8df60d7971e7e0ba4",
        "select.out": "de5f029f8286117dd7da22cb67ec850861390c554b1b3773deafd54e72692b14",
        "table.csv": "c7083085d33ce2429ea797ae9b91f990662943d95d3bbacf3614ee4bc425b0d9",
        "toa.out": "9d8ceb03d2b8f1dd264aeaa3ddbb4c95dff83cc21df1d43711a4536417c6f218",
    }),
    3: ("2.4.6", {
        "ber.csv": "37eb889ba9ea5c4d0ac8e09ce79826ab268b520b67eaa390331dc615f95ea259",
        "bins.csv": "e02985dcef6aa3ebbbe37a801c806846ac376325bf7080448d67cb7a64cf0281",
        "frame-decode.out": "7e1f8bdc2f13c7dfd2d1be28ab46850f41c661b1c5b9e948b52a1b67ca44875a",
        "frame.cf32": "0773a584f53d1675fd0ffd03c44734b5185a2b8baa203e15edd4bed90bc5c24b",
        "frame.cf32.meta": "35856e82cb01ecc39892b23efb74c44624abd838006745c216a3e77c0f22154e",
        "peak.csv": "34fccc4b992d93dc940e9c94f949554b116d4408a9faeac976db59f097e03914",
        "select.out": "de5f029f8286117dd7da22cb67ec850861390c554b1b3773deafd54e72692b14",
        "table.csv": "43e90489f21174e829998153d79325985c9368c12a6fa16a9e3fda50f5f90784",
        "toa.out": "9d8ceb03d2b8f1dd264aeaa3ddbb4c95dff83cc21df1d43711a4536417c6f218",
    }),
}
# outputs the trial engine never touches: the waveform channel keeps its own Philox stream
ENGINE_FREE = ("frame-decode.out", "frame.cf32", "frame.cf32.meta", "toa.out")

# (argv, the name of its stdout output or None); {d} is the output directory
COMMANDS = (
    ("ber-sweep --sf 7,10 --betas 1.0,0.5 --snr-start -8 --snr-stop -7 --snr-step 0.5 "
     "--trials 2000 --seed 5 --out {d}/ber.csv", None),
    ("peak-experiment --sf 7 --betas 1.0,0.5 --snr-start -5 --snr-stop -5 --trials 200 --seed 3 "
     "--out {d}/peak.csv --bins-out {d}/bins.csv", None),
    ("calibrate --sf 7 --betas 1.0,0.5 --target-ser 0.01 --trials 2000 --seed 9 --out {d}/table.csv", None),
    ("frame-encode --sf 7 --beta 0.75 --payload '5 17 99 0 127 64 3 3' --snr 0 --seed 4 --out {d}/frame.cf32", None),
    ("frame-decode --in {d}/frame.cf32", "frame-decode.out"),
    ("toa --sf 9 --beta 0.625 --ns 20", "toa.out"),
    ("select --table {d}/table.csv --in {d}/history.txt --sf 7", "select.out"),
)
FILES = ("ber.csv", "peak.csv", "bins.csv", "table.csv", "frame.cf32", "frame.cf32.meta")
NAMES = sorted(FILES + tuple(name for _, name in COMMANDS if name))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Bytes of every pinned output: the files the commands write and the stdout of the others."""
    assert STREAM_VERSION in PINNED, f"no digests recorded for stream version {STREAM_VERSION}"
    recorded_numpy, _ = PINNED[STREAM_VERSION]
    if recorded_numpy != np.__version__:
        pytest.skip(f"digests recorded under NumPy {recorded_numpy}, running NumPy {np.__version__}")
    d = tmp_path_factory.mktemp("pin")
    (d / "history.txt").write_text("-1.0\n-2.5\n0.5\n")
    got = {}
    for template, stdout_name in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(shlex.split(template.format(d=shlex.quote(str(d))))) == 0, template
        if stdout_name:
            got[stdout_name] = out.getvalue().encode()
    for name in FILES:
        got[name] = (d / name).read_bytes()
    return got


@pytest.mark.parametrize("name", ENGINE_FREE)
def test_engine_free_outputs_keep_their_v2_bytes(outputs, name):
    # stream version 3 changed only the trial engine's generator and chunk size
    assert hashlib.sha256(outputs[name]).hexdigest() == PINNED[2][1][name], f"{name} changed since stream version 2"


def test_every_output_has_a_pin():
    assert sorted(PINNED[STREAM_VERSION][1]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_output_bytes_match_pin(outputs, name):
    digest = hashlib.sha256(outputs[name]).hexdigest()
    assert digest == PINNED[STREAM_VERSION][1][name], f"{name} changed: bump STREAM_VERSION and re-record"
