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

from chirplab import cli, iqfile
from chirplab.channel import ChannelConfig, awgn
from chirplab.chirps import LoraParams, ReductionFactor
from chirplab.modem import modulate
from chirplab.montecarlo import STREAM_VERSION

# stream version -> (NumPy version the digests were recorded under, {output: sha256 of its bytes})
PINNED = {
    2: ("2.4.6", {
        "ber.csv": "c4ec29e069a33dbb77e0469f4e0ff08c88b34d39d77d23f980b511fc84c413b3",
        "bins.csv": "0cdc37824d02a9850e82e9319f4e7e0a688dc0d9d0d4ba36b7e69c4a60901442",
        "chirp.cf32": "d9d31895751dad3953ba50766f6028a346e6817f88fbbc20edf395cecadb00a7",
        "chirp.cf32.freq.csv": "dd5db144dbc10a4aee06714ef58613a43f5d83ae15abd06adc556d208c1d142c",
        "chirp.cf32.meta": "942ea456c4fdc276707b63904bbdc6be99c8251de0aad2694951b42d777f0f50",
        "down.cf32": "adb81c30e650c2256d5904f2eb6fcba3a4ecc23bca53257fac6dd2e5e54e424c",
        "down.cf32.freq.csv": "90e370effadce211d9a80915422fe47c9919a3f81625fbd67a7ebc1e30d1797f",
        "down.cf32.meta": "c8a41a56634f4b0c7c607da2cc5170765550a9055c8b28c451ceb4ccc32501fb",
        "frame-decode.out": "7e1f8bdc2f13c7dfd2d1be28ab46850f41c661b1c5b9e948b52a1b67ca44875a",
        "frame.cf32": "0773a584f53d1675fd0ffd03c44734b5185a2b8baa203e15edd4bed90bc5c24b",
        "frame.cf32.meta": "35856e82cb01ecc39892b23efb74c44624abd838006745c216a3e77c0f22154e",
        "mod.cf32": "7a7e8c2c6198db164a328db150bc32b3bd889875d619db6906e62841f9184f0d",
        "mod.cf32.meta": "980ee6677296ce2a92d2c58011c11fda0900e0ac68b65580bd45209ed55cf688",
        "mod.freq.csv": "02016a2c8603002289e4d7b247835eab1a29739857cd8410ed453da4aba70d6d",
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
    4: ("2.4.6", {
        "ber.csv": "34085363c9c471523369abf8e9d1540798c69e0e82139ad80dd6506adbef97b1",
        "bins.csv": "e6c73ab19562a2e1b0f58637d8c77c57d9e4be41cfe3e73e805e6ad63ce457a3",
        "bins-points.csv": "dbc341c8ac3d33cb491e1fa6982a444e765279173a23acdb3cffff66eb4764bd",
        "chirp.cf32": "d9d31895751dad3953ba50766f6028a346e6817f88fbbc20edf395cecadb00a7",
        "chirp.cf32.freq.csv": "dd5db144dbc10a4aee06714ef58613a43f5d83ae15abd06adc556d208c1d142c",
        "chirp.cf32.meta": "942ea456c4fdc276707b63904bbdc6be99c8251de0aad2694951b42d777f0f50",
        "demod-10a.out": "e772c1fde78a772ebe2a694b589f846b0d81d568f74db5b28c6c9f2eecae2a06",
        "demod-10b.out": "4c6a8ee162c0ebc96d117ea43c8ebb086e3fdde573a0917f1f0bb59d0e5667c0",
        "demod-12.out": "f8e4f819017d89b0dc7961d99e53fec204a87d3e1f040c6b38f8f930101a7697",
        "demod-7a.out": "0e017743187139b1d875b21387b658d9ad16d18a15f9e61e19aa41f1e0b26d97",
        "demod-7b.out": "d261dc32c08cd75f6aea205dbb3ece35355fd8516294f6ca67f7cb5d51a1cb10",
        "demod-mod.out": "6f0955968bddb7fd5ad8d4b6e611bd1c1d61c44088c0e0c515deea028dad5939",
        "down.cf32": "adb81c30e650c2256d5904f2eb6fcba3a4ecc23bca53257fac6dd2e5e54e424c",
        "down.cf32.freq.csv": "90e370effadce211d9a80915422fe47c9919a3f81625fbd67a7ebc1e30d1797f",
        "down.cf32.meta": "c8a41a56634f4b0c7c607da2cc5170765550a9055c8b28c451ceb4ccc32501fb",
        "frame-decode-10a.out": "ddde6f486ff53c126f7795a3e4b290ac1642d45094933c1d06644d6c53dfd9c4",
        "frame-decode-10b.out": "07fee1ee34b0377d54724c513d85159897fc14f95104a112a0c25ffcc45ca7f9",
        "frame-decode-12.out": "b59eaba86421df9f8a3cf88aca491122665d837484855747b4c536c96c0cba6c",
        "frame-decode-7a.out": "fb319cdd1349e3ef3063d7ab1a5d297fb58955619ff52e157da6849b1051aed8",
        "frame-decode-7b.out": "a13b7b852cbd019ce5205725042548275915af7db308c595f882b0b0fe0f7a91",
        "frame-decode.out": "7e1f8bdc2f13c7dfd2d1be28ab46850f41c661b1c5b9e948b52a1b67ca44875a",
        "frame.cf32": "0773a584f53d1675fd0ffd03c44734b5185a2b8baa203e15edd4bed90bc5c24b",
        "frame.cf32.meta": "35856e82cb01ecc39892b23efb74c44624abd838006745c216a3e77c0f22154e",
        "frame10a.cf32": "8f34312e7893b12dc17c23e9c177f21cc5fc8162f00569232311c12233befede",
        "frame10b.cf32": "73c8b0d6a5ef4afa56b065f818eace3b92c11dc0cec03c214549db1d5fd45706",
        "frame12.cf32": "c29a75f8669c4f2c1d71e7feddd2f62d35a394668d2af35d584032b555deb677",
        "frame7a.cf32": "5250a52c06efc7e20e431e2b26033e3890d660190f5a4ac514a05980e739a032",
        "frame7b.cf32": "7e57f99c9ede9a1a5407dd9e5f551884f448eadb7d150da40576868ae7c2819c",
        "mod.cf32": "7a7e8c2c6198db164a328db150bc32b3bd889875d619db6906e62841f9184f0d",
        "mod.cf32.meta": "980ee6677296ce2a92d2c58011c11fda0900e0ac68b65580bd45209ed55cf688",
        "mod.freq.csv": "02016a2c8603002289e4d7b247835eab1a29739857cd8410ed453da4aba70d6d",
        "peak.csv": "aa86959ad7e7e059f2b5bb7b5dd4dc2f376f43d6b2ea1770cfe86024c91c938c",
        "peak-points.csv": "ee5a05d820c62a440d7ad65b47ab44c8f5c25e832491ff2c8045a35cb0e5d824",
        "select.out": "de5f029f8286117dd7da22cb67ec850861390c554b1b3773deafd54e72692b14",
        "table.csv": "f9030bdd3987c7f4b931e702010c67edda2e66593c96271b74fc8a9e9fff51af",
        "toa.out": "9d8ceb03d2b8f1dd264aeaa3ddbb4c95dff83cc21df1d43711a4536417c6f218",
    }),
}
# outputs the trial engine never touches: the transmitter, and the waveform channel with its own Philox stream
ENGINE_FREE = ("chirp.cf32", "chirp.cf32.freq.csv", "chirp.cf32.meta", "down.cf32", "down.cf32.freq.csv",
               "down.cf32.meta", "frame-decode.out", "frame.cf32", "frame.cf32.meta", "mod.cf32", "mod.cf32.meta",
               "mod.freq.csv", "toa.out")
# stream version 4 re-drew only the full-period (beta = 1) trials: the sha256 of each CSV's beta < 1 rows
# without the cells that name the version or divide by a beta = 1 row (truncated_rows), recorded under version 3
TRUNCATED_ROWS_V3 = {
    "ber.csv": "18281d5e7f0b5bb4955f97ff2b6309e6016b4960498c293e9b293c7f25f045bf",
    "bins.csv": "ecd1df08d6facbf72b57cd9c886e76b93452b1c34dc6819c092fc88a3cd4ec7f",
    "peak.csv": "20d24da95b55b7e6779fb873971f8cc2d4fe758bb08b12b825a4c77eb26661a8",
    "table.csv": "3d8ee6fbdacd710069cddf6e9bbf4fe230e96af1644e7c9165669fd8fff432c0",
}
MOVED_COLUMNS = ("stream", "mean_peak_ratio_vs_beta1")

# (argv, the name of its stdout output or None); {d} is the output directory
COMMANDS = (
    ("ber-sweep --sf 7,10 --betas 1.0,0.5 --snr-start -8 --snr-stop -7 --snr-step 0.5 "
     "--trials 2000 --seed 5 --out {d}/ber.csv", None),
    ("peak-experiment --sf 7 --betas 1.0,0.5 --snr-start -5 --snr-stop -5 --trials 200 --seed 3 "
     "--out {d}/peak.csv --bins-out {d}/bins.csv", None),
    # several points, from far below the thresholds (most trials take the full row) to above sf 7's
    ("peak-experiment --sf 7,10 --betas 0.75,0.5 --snr-start -30 --snr-stop 0 --snr-step 10 --trials 600 "
     "--seed 11 --out {d}/peak-points.csv --bins-out {d}/bins-points.csv", None),
    ("calibrate --sf 7 --betas 1.0,0.5 --target-ser 0.01 --trials 2000 --seed 9 --out {d}/table.csv", None),
    ("frame-encode --sf 7 --beta 0.75 --payload '5 17 99 0 127 64 3 3' --snr 0 --seed 4 --out {d}/frame.cf32", None),
    ("frame-decode --in {d}/frame.cf32", "frame-decode.out"),
    ("toa --sf 9 --beta 0.625 --ns 20", "toa.out"),
    ("select --table {d}/table.csv --in {d}/history.txt --sf 7", "select.out"),
    ("chirp --sf 9 --symbol 77 --beta 0.625 --out {d}/chirp.cf32", None),
    ("chirp --sf 7 --down --beta 0.5 --out {d}/down.cf32", None),
    ("mod --sf 10 --beta 0.75 --payload '3 900 17' --out {d}/mod.cf32 --freq-out {d}/mod.freq.csv", None),
    # the receive chain on noisy frames at sf 7, 10 and 12: payloads of odd and even length, one symbol error at sf 12
    ("frame-encode --sf 7 --beta 1.0 --payload '5 17 99 0 127 64 3' --snr -5 --seed 31 --out {d}/frame7a.cf32", None),
    ("frame-decode --in {d}/frame7a.cf32", "frame-decode-7a.out"),
    ("frame-encode --sf 7 --beta 0.625 --payload '1 2 3 4 5 6 7 8 9 10 11 12' --snr -5 --seed 32 "
     "--out {d}/frame7b.cf32", None),
    ("frame-decode --in {d}/frame7b.cf32", "frame-decode-7b.out"),
    ("frame-encode --sf 10 --beta 0.875 --payload '1000 3 512 77 900 12' --snr -14 --seed 33 "
     "--out {d}/frame10a.cf32", None),
    ("frame-decode --in {d}/frame10a.cf32", "frame-decode-10a.out"),
    ("frame-encode --sf 10 --beta 0.75 --payload '0 1023 511 256 4' --snr -14 --seed 34 --out {d}/frame10b.cf32", None),
    ("frame-decode --in {d}/frame10b.cf32", "frame-decode-10b.out"),
    ("frame-encode --sf 12 --beta 0.5 --payload '4000 17 2048 3' --snr -19 --seed 35 --out {d}/frame12.cf32", None),
    ("frame-decode --in {d}/frame12.cf32", "frame-decode-12.out"),
    # peaks, floors and SNRs of noisy symbols (NOISY_SYMBOLS), several spanning more than one transform block,
    # and of the noiseless mod.cf32
    ("demod --in {d}/sym7a.cf32", "demod-7a.out"),
    ("demod --in {d}/sym7b.cf32", "demod-7b.out"),
    ("demod --in {d}/sym10a.cf32", "demod-10a.out"),
    ("demod --in {d}/sym10b.cf32", "demod-10b.out"),
    ("demod --in {d}/sym12.cf32 --count 37", "demod-12.out"),
    ("demod --in {d}/mod.cf32", "demod-mod.out"),
)
FILES = ("ber.csv", "peak.csv", "bins.csv", "peak-points.csv", "bins-points.csv", "table.csv", "frame.cf32",
         "frame.cf32.meta", "chirp.cf32", "chirp.cf32.meta", "chirp.cf32.freq.csv", "down.cf32", "down.cf32.meta",
         "down.cf32.freq.csv", "mod.cf32", "mod.cf32.meta", "mod.freq.csv", "frame7a.cf32", "frame7b.cf32",
         "frame10a.cf32", "frame10b.cf32", "frame12.cf32")
# symbol captures the fixture writes for demod: (name, sf, beta, symbols, snr_db, seed of symbols and noise)
NOISY_SYMBOLS = (
    ("sym7a.cf32", 7, 1.0, 31, -8.0, 41),
    ("sym7b.cf32", 7, 0.5, 1100, -6.0, 42),
    ("sym10a.cf32", 10, 0.875, 50, -15.0, 43),
    ("sym10b.cf32", 10, 0.625, 130, -14.0, 44),
    ("sym12.cf32", 12, 0.75, 40, -20.0, 45),
)
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
    for name, sf, beta, count, snr_db, seed in NOISY_SYMBOLS:
        params = LoraParams(sf=sf, bw=125_000.0)
        clean = modulate(np.random.default_rng(seed).integers(0, params.n, count), params, ReductionFactor(beta))
        iqfile.write_iq(d / name, awgn(clean, ChannelConfig(snr_db=snr_db, seed=seed)),
                        {"sf": sf, "bw": params.bw, "beta": beta})
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
    # stream versions 3 and 4 changed only the trial engine
    assert hashlib.sha256(outputs[name]).hexdigest() == PINNED[2][1][name], f"{name} changed since stream version 2"


def truncated_rows(data: bytes) -> bytes:
    """The rows of a CSV whose beta is below 1, each without its MOVED_COLUMNS cells."""
    header, *rows = data.decode().splitlines()
    columns = header.split(",")
    keep = [k for k, column in enumerate(columns) if column not in MOVED_COLUMNS]
    beta = columns.index("beta")
    kept = [",".join(cells[k] for k in keep) for cells in (row.split(",") for row in rows) if float(cells[beta]) < 1.0]
    assert kept, "no beta < 1 rows"
    return "\n".join(kept).encode()


@pytest.mark.parametrize("name", sorted(TRUNCATED_ROWS_V3))
def test_truncated_rows_keep_their_v3_bytes(outputs, name):
    assert hashlib.sha256(truncated_rows(outputs[name])).hexdigest() == TRUNCATED_ROWS_V3[name], \
        f"a beta < 1 row of {name} changed since stream version 3"


def test_every_output_has_a_pin():
    assert sorted(PINNED[STREAM_VERSION][1]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_output_bytes_match_pin(outputs, name):
    digest = hashlib.sha256(outputs[name]).hexdigest()
    assert digest == PINNED[STREAM_VERSION][1][name], f"{name} changed: bump STREAM_VERSION and re-record"
