import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chirplab import cli, experiments, iqfile
from chirplab.adaptive import TABLE_CSV_COLUMNS
from chirplab.chirps import _BLOCK_SAMPLES, FULL_PERIOD, IqBuffer, LoraParams, ReductionFactor
from chirplab.framing import FrameSpec, build_frame
from chirplab.modem import modulate
from chirplab.montecarlo import STREAM_VERSION

SF7 = LoraParams(sf=7, bw=125e3)


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_table(path, rows, header=TABLE_CSV_COLUMNS):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


class TestIqFile:
    def test_write_read_identity(self, tmp_path):
        path = tmp_path / "capture.cf32"
        rng = np.random.default_rng(0)
        samples = (rng.standard_normal(300) + 1j * rng.standard_normal(300)).astype(np.complex64)
        buf = IqBuffer(samples, SF7.bw)
        iqfile.write_iq(path, buf, {"sf": 7, "bw": 125000.0, "beta": 1.0})
        back = iqfile.read_iq(path, SF7.bw)
        np.testing.assert_array_equal(back.samples, buf.samples)
        meta = iqfile.read_sidecar(path)
        assert meta["sf"] == 7 and type(meta["sf"]) is int
        assert meta["bw"] == 125000.0 and type(meta["bw"]) is float
        assert meta["beta"] == 1.0 and type(meta["beta"]) is float
        assert meta["format"] == iqfile.FORMAT_VERSION
        assert meta["beta_table"] == iqfile.BETA_TABLE_VERSION

    def test_cf32_is_little_endian_float32_pairs(self, tmp_path):
        path = tmp_path / "one.cf32"
        iqfile.write_iq(path, IqBuffer(np.array([1 + 2j, -3 - 4j]), SF7.bw), {})
        raw = np.fromfile(path, dtype="<f4")
        np.testing.assert_array_equal(raw, [1.0, 2.0, -3.0, -4.0])

    def test_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "bad.cf32"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(iqfile.IqFormatError):
            iqfile.read_iq(path, SF7.bw)

    def test_reads_a_capture_of_several_pieces(self, tmp_path):
        path = tmp_path / "long.cf32"
        rng = np.random.default_rng(2)
        rng.standard_normal(2 * (2 * _BLOCK_SAMPLES + 3)).astype("<f4").tofile(path)
        back = iqfile.read_iq(path, SF7.bw).samples
        assert back.dtype == np.complex128 and len(back) == 2 * _BLOCK_SAMPLES + 3
        np.testing.assert_array_equal(back, np.fromfile(path, "<c8").astype(np.complex128))

    @pytest.mark.parametrize("reported, fault", [(8, "ended before the 48 bytes"), (-8, "holds more than the 32 bytes")])
    def test_rejects_a_file_that_does_not_hold_its_reported_size(self, tmp_path, monkeypatch, reported, fault):
        path = tmp_path / "five.cf32"
        path.write_bytes(b"\x00" * 40)
        fstat = iqfile.os.fstat
        monkeypatch.setattr(iqfile.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + reported))
        with pytest.raises(iqfile.IqFormatError, match=fault):
            iqfile.read_iq(path, SF7.bw)

    def test_path_errors(self, tmp_path):
        # a missing file, or a path through a file, is a bad capture (exit 3); a directory is an OSError (exit 1)
        (tmp_path / "file").write_bytes(b"")
        for missing in (tmp_path / "absent.cf32", tmp_path / "file" / "x.cf32"):
            with pytest.raises(iqfile.IqFormatError, match="no such IQ file"):
                iqfile.read_iq(missing, SF7.bw)
        with pytest.raises(IsADirectoryError):
            iqfile.read_iq(tmp_path, SF7.bw)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
    def test_rejects_a_pipe(self):
        # a pipe reports size 0 whatever it holds
        read_end, write_end = os.pipe()
        os.write(write_end, b"\x00" * 16)
        os.close(write_end)
        try:
            with pytest.raises(iqfile.IqFormatError, match="holds more than the 0 bytes"):
                iqfile.read_iq(f"/dev/fd/{read_end}", SF7.bw)
        finally:
            os.close(read_end)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.cf32"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(iqfile.IqFormatError):
            iqfile.read_sidecar(path)

    def test_sidecar_typed_values(self, tmp_path):
        path = tmp_path / "frame.cf32"
        iqfile.write_iq(path, IqBuffer(np.zeros(4), SF7.bw),
                        {"sf": 12, "bw": 500000.0, "beta": 0.625, "preamble_len": 3, "note": "7"})
        meta = iqfile.read_sidecar(path)
        assert [(meta[key], type(meta[key])) for key in ("sf", "bw", "beta", "preamble_len")] == [
            (12, int), (500000.0, float), (0.625, float), (3, int)]
        # keys the reader does not know pass through as strings
        assert meta["note"] == "7"

    @pytest.mark.parametrize("key, value", [("sf", "abc"), ("sf", "6"), ("bw", "1e3"), ("beta", "0.3"),
                                            ("beta", "nan"), ("preamble_len", "0")])
    def test_sidecar_value_no_capture_carries(self, tmp_path, key, value):
        path = tmp_path / "bad.cf32"
        iqfile.write_iq(path, IqBuffer(np.zeros(4), SF7.bw), {"sf": 7, "bw": 125000.0, key: value})
        with pytest.raises(iqfile.IqFormatError, match=f"{key}={value} is not a value"):
            iqfile.read_sidecar(path)


class TestModDemod:
    def test_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "syms.cf32"
        code, _, _ = run(capsys, "mod", "--sf", 7, "--bw", 125000, "--beta", 1.0,
                         "--payload", "10 20 30", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "demod", "--in", path)
        assert code == 0
        assert out.splitlines()[0] == "10 20 30"

    def test_mod_sample_count_at_0875(self, tmp_path, capsys):
        path = tmp_path / "five.cf32"
        code, _, _ = run(capsys, "mod", "--sf", 7, "--beta", 0.875,
                         "--payload", "1 2 3 4 5", "--out", path)
        assert code == 0
        assert len(iqfile.read_iq(path, SF7.bw)) == 560

    def test_hex_payload(self, tmp_path, capsys):
        path = tmp_path / "hex.cf32"
        code, _, _ = run(capsys, "mod", "--sf", 8, "--payload", "0x10 0xff 3", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "demod", "--in", path)
        assert out.splitlines()[0] == "16 255 3"

    def test_demod_reports_peak_floor_snr(self, tmp_path, capsys):
        path = tmp_path / "one.cf32"
        run(capsys, "mod", "--sf", 7, "--payload", "77", "--out", path)
        _, out, _ = run(capsys, "demod", "--in", path)
        fields = out.splitlines()[1].split()
        assert fields[1] == "77"
        assert float(fields[2]) == pytest.approx(128.0, abs=1e-6)
        assert float(fields[4]) >= 35.0

    def test_demod_length_mismatch_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ragged.cf32"
        buf = IqBuffer(modulate([0], SF7, FULL_PERIOD).samples[:100], SF7.bw)
        iqfile.write_iq(path, buf, {"sf": 7, "bw": 125000.0, "beta": 1.0})
        code, _, err = run(capsys, "demod", "--in", path)
        assert code == cli.EXIT_LENGTH_MISMATCH
        assert "samples" in err

    def test_payload_symbol_out_of_range(self, tmp_path, capsys):
        code, _, err = run(capsys, "mod", "--sf", 7, "--payload", "200",
                           "--out", tmp_path / "x.cf32")
        assert code == 1
        assert "outside" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(capsys, "demod", "--in", "/nonexistent/file.cf32")
        assert code == cli.EXIT_BAD_FILE


class TestChirpCommand:
    def test_frequency_dump_two_segments(self, tmp_path, capsys):
        path = tmp_path / "k32.cf32"
        code, _, _ = run(capsys, "chirp", "--sf", 7, "--symbol", 32, "--out", path)
        assert code == 0
        with open(str(path) + ".freq.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 127
        freqs = np.array([float(r["freq_hz"]) for r in rows])
        bw, n, k = 125e3, 128, 32
        expected = (2 * ((np.arange(127) + k) % n) + 1) / (2 * n) * bw
        wrapped = np.mod(freqs - expected, bw)
        wrapped = np.minimum(wrapped, bw - wrapped)
        assert wrapped.max() < 1e-3
        steps = np.mod(np.diff(freqs[: n - k - 1]), bw)
        np.testing.assert_allclose(steps, bw / n, atol=1e-3)

    def test_downchirp_dump(self, tmp_path, capsys):
        path = tmp_path / "down.cf32"
        code, _, _ = run(capsys, "chirp", "--sf", 7, "--down", "--out", path)
        assert code == 0
        back = iqfile.read_iq(path, SF7.bw)
        assert len(back) == 128
        assert back.samples[0] == pytest.approx(1 + 0j)

    @pytest.mark.parametrize("k", [0, 5, 127])
    def test_down_is_the_conjugate_of_the_symbol_chirp(self, tmp_path, capsys, k):
        path = tmp_path / "down.cf32"
        code, _, _ = run(capsys, "chirp", "--sf", 7, "--down", "--symbol", k, "--beta", 0.5, "--out", path)
        assert code == 0
        want = modulate([k], SF7, ReductionFactor(0.5)).samples.astype(np.complex64).conj()
        np.testing.assert_array_equal(iqfile.read_iq(path, SF7.bw).samples, want)


class TestToa:
    def test_rate_multiplier_and_saving(self, capsys):
        code, out, _ = run(capsys, "toa", "--sf", 7, "--beta", 0.875, "--ns", 20)
        assert code == 0
        values = dict(line.split("=") for line in out.splitlines())
        assert float(values["rate_multiplier"]) == pytest.approx(1.143, abs=5e-4)
        assert float(values["saving_s"]) == pytest.approx((20 * 0.125 - 1) * SF7.t_s)

    def test_t_saving_examples(self, capsys):
        _, out, _ = run(capsys, "toa", "--sf", 7, "--beta", 0.5, "--ns", 20)
        values = dict(line.split("=") for line in out.splitlines())
        assert float(values["saving_s"]) == 9 * SF7.t_s
        _, out, _ = run(capsys, "toa", "--sf", 7, "--beta", 1.0, "--ns", 20)
        values = dict(line.split("=") for line in out.splitlines())
        assert float(values["saving_s"]) == -SF7.t_s


class TestFrameCommands:
    def test_roundtrip_noiseless(self, tmp_path, capsys):
        path = tmp_path / "frame.cf32"
        code, _, _ = run(capsys, "frame-encode", "--sf", 7, "--beta", 0.5,
                         "--payload", "8 16 24", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "frame-decode", "--in", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "8 16 24"
        assert lines[1].startswith("beta=0.5 index=4")

    def test_roundtrip_through_20db_channel(self, tmp_path, capsys):
        for seed in range(5):
            path = tmp_path / f"frame{seed}.cf32"
            run(capsys, "frame-encode", "--sf", 7, "--beta", 0.875, "--payload", "99 3 77",
                "--snr", 20.0, "--seed", seed, "--out", path)
            code, out, _ = run(capsys, "frame-decode", "--in", path)
            assert code == 0
            assert out.splitlines()[0] == "99 3 77"

    def test_empty_payload_prints_no_snr_line(self, tmp_path, capsys):
        path = tmp_path / "empty.cf32"
        run(capsys, "frame-encode", "--sf", 7, "--beta", 0.75, "--payload", "", "--out", path)
        code, out, _ = run(capsys, "frame-decode", "--in", path)
        assert code == 0
        assert out == "\nbeta=0.75 index=2 offset=0\n"

    def test_negative_seed_message_names_the_seed(self, tmp_path, capsys):
        path = tmp_path / "frame.cf32"
        code, _, err = run(capsys, "frame-encode", "--sf", 7, "--payload", 1, "--snr", 0, "--seed", -1, "--out", path)
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"
        # without a channel the seed is unused
        code, _, _ = run(capsys, "frame-encode", "--sf", 7, "--payload", 1, "--seed", -1, "--out", path)
        assert code == 0

    @pytest.mark.parametrize("missing", ["sf", "bw"])
    def test_sidecar_missing_key_exit_code(self, tmp_path, capsys, missing):
        path = tmp_path / "frame.cf32"
        run(capsys, "frame-encode", "--sf", 7, "--payload", "1 2", "--out", path)
        meta = iqfile.sidecar_path(path)
        with open(meta) as handle:
            lines = [line for line in handle if not line.startswith(f"{missing}=")]
        with open(meta, "w") as handle:
            handle.writelines(lines)
        code, _, err = run(capsys, "frame-decode", "--in", path)
        assert code == cli.EXIT_BAD_FILE
        assert missing in err

    def test_no_preamble_exit_code(self, tmp_path, capsys):
        path = tmp_path / "noise.cf32"
        rng = np.random.default_rng(1)
        noise = 0.03 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
        iqfile.write_iq(path, IqBuffer(noise, SF7.bw), {"sf": 7, "bw": 125000.0})
        code, _, _ = run(capsys, "frame-decode", "--in", path)
        assert code == cli.EXIT_NO_PREAMBLE

    def test_checksum_exit_code(self, tmp_path, capsys):
        n = 128
        up = modulate([0], SF7, FULL_PERIOD).samples
        parts = [
            np.tile(up, 8),
            np.concatenate([up.conj()] * 2 + [up.conj()[:n // 4]]),
            modulate([2, 0, 9], SF7, FULL_PERIOD).samples,
        ]
        path = tmp_path / "badsum.cf32"
        iqfile.write_iq(path, IqBuffer(np.concatenate(parts), SF7.bw), {"sf": 7, "bw": 125000.0})
        code, _, _ = run(capsys, "frame-decode", "--in", path)
        assert code == cli.EXIT_CHECKSUM

    def test_unknown_beta_exit_code(self, tmp_path, capsys):
        n = 128
        up = modulate([0], SF7, FULL_PERIOD).samples
        parts = [
            np.tile(up, 8),
            np.concatenate([up.conj()] * 2 + [up.conj()[:n // 4]]),
            modulate([1, 7, 8, 1], SF7, FULL_PERIOD).samples,
        ]
        path = tmp_path / "badbeta.cf32"
        iqfile.write_iq(path, IqBuffer(np.concatenate(parts), SF7.bw), {"sf": 7, "bw": 125000.0})
        code, _, _ = run(capsys, "frame-decode", "--in", path)
        assert code == cli.EXIT_UNKNOWN_BETA


class TestSweepCommands:
    def test_ber_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code, _, _ = run(capsys, "ber-sweep", "--sf", "7", "--betas", "1.0,0.5",
                         "--snr-start", -9.0, "--snr-stop", -9.0, "--trials", 2000, "--seed", 5, "--out", out)
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert float(rows[1]["ser"]) > float(rows[0]["ser"])

    def test_ber_sweep_rejects_unknown_sf_before_any_trial(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_error_trials", lambda *args: calls.append(args) or [])
        code, _, err = run(capsys, "ber-sweep", "--sf", "7,13", "--betas", "1.0", "--trials", 200000,
                           "--out", tmp_path / "x.csv")
        assert code == 1
        assert "sf 13" in err
        assert calls == []

    def test_peak_experiment_csv(self, tmp_path, capsys):
        out = tmp_path / "peak.csv"
        code, _, _ = run(capsys, "peak-experiment", "--betas", "1.0,0.875",
                         "--snr-start", 300.0, "--snr-stop", 300.0, "--trials", 20, "--out", out)
        assert code == 0
        with open(out, newline="") as handle:
            rows = {float(r["beta"]): r for r in csv.DictReader(handle)}
        assert float(rows[0.875]["mean_peak_ratio_vs_beta1"]) == pytest.approx(0.875, abs=1e-6)


class TestCalibrateSelect:
    def test_calibrate_deterministic_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        args = ["calibrate", "--sf", "7", "--betas", "1.0,0.5", "--target-ser", 0.01,
                "--trials", 2000, "--seed", 11]
        assert run(capsys, *args, "--out", out1)[0] == 0
        assert run(capsys, *args, "--out", out2)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_calibration_error_exit_code(self, tmp_path, capsys, monkeypatch):
        from chirplab import adaptive

        def unreachable(*args, **kwargs):
            raise adaptive.CalibrationError("target SER unreachable in range")

        monkeypatch.setattr(cli.adaptive, "calibrate_thresholds", unreachable)
        code, _, err = run(capsys, "calibrate", "--sf", "7", "--trials", 100000,
                           "--out", tmp_path / "t.csv")
        assert code == cli.EXIT_CALIBRATION
        assert "unreachable" in err

    GOOD = [(7, beta, req, 0.001, 100000, 0, STREAM_VERSION)
            for beta, req in ((1.0, -7.5), (0.875, -7.0), (0.75, -6.0), (0.625, -5.0), (0.5, -4.5))]

    @staticmethod
    def select(tmp_path, capsys, history_text, table_rows, *flags, header=TABLE_CSV_COLUMNS):
        table = tmp_path / "table.csv"
        write_table(table, table_rows, header)
        history = tmp_path / "history.txt"
        history.write_text(history_text)
        return run(capsys, "select", "--table", table, "--in", history, "--sf", 7, *flags)

    def test_select_from_history_file(self, tmp_path, capsys):
        code, out, _ = self.select(tmp_path, capsys, "-1.0\n-2.0\n-1.5\n", self.GOOD)
        assert code == 0
        assert out.strip() == "beta=0.5 index=4"

    def test_select_poor_link_returns_beta_one(self, tmp_path, capsys):
        code, out, _ = self.select(tmp_path, capsys, "-30.0\n-30.0\n", self.GOOD)
        assert code == 0
        assert out.strip() == "beta=1.0 index=0"

    def test_zero_margin_is_more_aggressive(self, tmp_path, capsys):
        _, out, _ = self.select(tmp_path, capsys, "-4.2\n", self.GOOD)
        assert out.strip() == "beta=0.875 index=1"
        _, out, _ = self.select(tmp_path, capsys, "-4.2\n", self.GOOD, "--margin-db", 0)
        assert out.strip() == "beta=0.5 index=4"

    def select_error(self, tmp_path, capsys, table_rows, **kwargs):
        code, out, err = self.select(tmp_path, capsys, "-1.0\n", table_rows, **kwargs)
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        return err

    def test_select_table_without_the_sf(self, tmp_path, capsys):
        err = self.select_error(tmp_path, capsys, [(8, *row[1:]) for row in self.GOOD])
        assert "sf=7" in err

    @pytest.mark.parametrize("header", [None, TABLE_CSV_COLUMNS])
    def test_select_empty_table(self, tmp_path, capsys, header):
        err = self.select_error(tmp_path, capsys, [], header=header)
        assert ("lacks columns" if header is None else "no rows") in err

    def test_select_table_missing_a_column(self, tmp_path, capsys):
        err = self.select_error(tmp_path, capsys, [row[:5] for row in self.GOOD],
                                header=TABLE_CSV_COLUMNS[:5])
        assert "lacks columns ['seed']" in err

    @pytest.mark.parametrize("column, value", [(3, 0.01), (4, 20000), (5, 1)])
    def test_select_table_with_mixed_metadata(self, tmp_path, capsys, column, value):
        rows = [list(row) for row in self.GOOD]
        rows[2][column] = value
        assert "mixes" in self.select_error(tmp_path, capsys, rows)

    def test_select_table_with_nan_target_ser(self, tmp_path, capsys):
        # NaN never equals NaN, so a mix check run first would call two NaN cells a mix
        rows = [(*row[:3], "nan", *row[4:]) for row in self.GOOD]
        assert "target SER must lie in (0, 1), got nan" in self.select_error(tmp_path, capsys, rows)

    @pytest.mark.parametrize("history, message", [
        (b"-1.0\nabc\n", "{path}:2: could not convert string to float: 'abc'"),
        (b"-1.0\n\n# note\nnan\n", "{path}:4: packet SNR is NaN"),
        (b"-1.0\n\xff\n", "{path}: not UTF-8 text"),
    ], ids=["bad-line", "nan-line", "not-utf8"])
    def test_select_history_errors_name_the_file(self, tmp_path, capsys, history, message):
        table, path = tmp_path / "table.csv", tmp_path / "history.txt"
        write_table(table, self.GOOD)
        path.write_bytes(history)
        code, out, err = run(capsys, "select", "--table", table, "--in", path, "--sf", 7)
        assert code == 1 and out == ""
        assert err == f"error: {message.format(path=path)}\n"

    def test_select_table_cell_error_names_the_table(self, tmp_path, capsys):
        rows = [(*row[:4], "2000.5", *row[5:]) for row in self.GOOD]
        err = self.select_error(tmp_path, capsys, rows)
        assert err == f"error: threshold table {tmp_path / 'table.csv'}:2: trials='2000.5' is not a valid int\n"

    def test_select_over_calibrated_betas(self, tmp_path, capsys):
        # a table from `calibrate --betas 1.0,0.5`: 0.5 is the only truncation on offer
        code, out, _ = self.select(tmp_path, capsys, "-1.0\n", [self.GOOD[0], self.GOOD[4]])
        assert code == 0
        assert out.strip() == "beta=0.5 index=4"

    @pytest.mark.parametrize("command", ["ber-sweep", "peak-experiment", "calibrate"])
    def test_negative_seed_message_names_the_seed(self, tmp_path, capsys, command):
        code, _, err = run(capsys, command, "--seed", -1, "--out", tmp_path / "x.csv")
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("capacity", [0, -2])
    def test_select_capacity_below_one(self, tmp_path, capsys, capacity):
        code, out, err = self.select(tmp_path, capsys, "-1.0\n", self.GOOD, "--capacity", capacity)
        assert code == 1 and out == ""
        assert err == f"error: link history capacity must be >= 1, got {capacity}\n"

    @pytest.mark.parametrize("stream, code", [("1", 1), (None, 0)])
    def test_select_checks_table_stream(self, tmp_path, capsys, stream, code):
        # a stream-1 table was calibrated on other noise; a table without the column is read as current
        if stream is None:
            rows, header = [row[:6] for row in self.GOOD], TABLE_CSV_COLUMNS[:6]
        else:
            rows, header = [(*row[:6], stream) for row in self.GOOD], TABLE_CSV_COLUMNS
        got, out, err = self.select(tmp_path, capsys, "-1.0\n", rows, header=header)
        assert got == code
        assert ("stream" in err) if code else out.strip() == "beta=0.5 index=4"

    def test_select_table_with_beta_inversion(self, tmp_path, capsys):
        # beta 0.625 needing less SNR than beta 0.75 breaks the monotone order selection relies on
        rows = [list(row) for row in self.GOOD]
        rows[3][2] = -6.5
        assert "non-increasing in beta" in self.select_error(tmp_path, capsys, rows)


@pytest.fixture(scope="module")
def malformed_inputs(tmp_path_factory):
    """A directory of captures, tables and histories, most of them broken in one way."""
    root = tmp_path_factory.mktemp("malformed")
    frame = build_frame(FrameSpec(payload=(1, 2, 3), rf=ReductionFactor(0.5)), SF7)
    iqfile.write_iq(root / "frame.cf32", frame, {"sf": 7, "bw": 125000.0, "preamble_len": 8})
    for name, key, value in (("v9", "beta_table", "v9"), ("cf64", "format", "cf64.v7")):
        iqfile.write_iq(root / f"{name}.cf32", frame, {"sf": 7, "bw": 125000.0, key: value})
    iqfile.write_iq(root / "ragged.cf32", IqBuffer(modulate([0], SF7, FULL_PERIOD).samples[:100], SF7.bw),
                    {"sf": 7, "bw": 125000.0, "beta": 1.0})
    symbols = modulate([1, 2, 3], SF7, ReductionFactor(0.5))
    iqfile.write_iq(root / "mod.cf32", symbols, {"sf": 7, "bw": 125000.0, "beta": 0.5})
    # a capture path that is a directory, beside a good sidecar
    (root / "dir.cf32").mkdir()
    (root / "dir.cf32.meta").write_text("sf=7\nbw=125000.0\nbeta=0.5\npreamble_len=8\n")
    # sidecar values that no capture carries, each the only fault of its capture
    iqfile.write_iq(root / "beta_0.3.cf32", symbols, {"sf": 7, "bw": 125000.0, "beta": 0.3})
    for name, key, value in (("sf_abc", "sf", "abc"), ("bw_1e3", "bw", "1e3"), ("preamble_x", "preamble_len", "x")):
        iqfile.write_iq(root / f"{name}.cf32", frame, {"sf": 7, "bw": 125000.0, "preamble_len": 8, key: value})
    # one sample that is not finite, inside a decoded window: the payload, the header, a bare symbol
    for name, buf, where, bad, meta in (("inf_payload", frame, 1696 + 2 * 64 + 5, np.inf, {"preamble_len": 8}),
                                        ("nan_header", frame, 1312 + 128 + 7, np.nan, {"preamble_len": 8}),
                                        ("nan_symbol", symbols, 64 + 3, np.nan, {"beta": 0.5})):
        samples = buf.samples.copy()
        samples[where] = bad
        iqfile.write_iq(root / f"{name}.cf32", IqBuffer(samples, SF7.bw), {"sf": 7, "bw": 125000.0, **meta})
    # mod.cf32's sidecar with one more line: a key given twice, a byte that is not UTF-8
    for name, extra in (("sf_twice", b"sf=9\n"), ("not_utf8", b"note=\xff\n")):
        iqfile.write_iq(root / f"{name}.cf32", symbols, {"sf": 7, "bw": 125000.0, "beta": 0.5})
        with open(iqfile.sidecar_path(root / f"{name}.cf32"), "ab") as handle:
            handle.write(extra)
    good = TestCalibrateSelect.GOOD
    write_table(root / "good.csv", good)
    write_table(root / "dup.csv", good + [good[0]])
    write_table(root / "no_beta1.csv", good[1:])
    # values no calibration produces, each in a table that the other checks pass
    write_table(root / "nan_threshold.csv", [(7, 1.0, "nan", *good[0][3:]), good[4]])
    write_table(root / "beta_0.9.csv", good[:1] + [(7, 0.9, -7.2, *good[0][3:])] + good[1:])
    write_table(root / "sf_99.csv", good + [(99, 1.0, -20.0, *good[0][3:])])
    write_table(root / "nan_target.csv", [(*good[0][:3], "nan", *good[0][4:])])
    write_table(root / "target_1.5.csv", [(*good[0][:3], 1.5, *good[0][4:])])
    write_table(root / "trials_-5.csv", [(*row[:4], -5, *row[5:]) for row in good])
    write_table(root / "seed_-3.csv", [(*row[:5], -3, *row[6:]) for row in good])
    write_table(root / "trials_cell.csv", [(*row[:4], "10000.5", *row[5:]) for row in good])
    (root / "not_utf8.csv").write_bytes((root / "good.csv").read_bytes() + b"\xff\n")
    (root / "history.txt").write_text("-1.0\n")
    (root / "bad_history.txt").write_text("-1.0\nloud\n")
    (root / "nan_first.txt").write_text("nan\n10\n")
    (root / "nan_last.txt").write_text("10\nnan\n")
    (root / "not_utf8.txt").write_bytes(b"-1.0\n\xff\n")
    return root


# (argv, documented exit code); {d} is the malformed_inputs directory
MALFORMED_ARGV = [
    ("chirp --sf 6 --out {d}/x.cf32", 1),
    ("chirp --sf 7 --beta 0.9 --out {d}/x.cf32", 1),
    ("chirp --sf 7 --symbol 128 --out {d}/x.cf32", 1),
    ("chirp --sf 7 --down --symbol 500 --beta 0.5 --out {d}/x.cf32", 1),
    ("mod --sf 7 --payload 200 --out {d}/x.cf32", 1),
    ("mod --sf 7 --payload 0xzz --out {d}/x.cf32", 1),
    ("mod --sf seven --payload 1 --out {d}/x.cf32", 2),
    ("mod --sf 7 --payload 18446744073709551616 --out {d}/x.cf32", 1),
    ("mod --sf 7 --payload -99999999999999999999999 --out {d}/x.cf32", 1),
    ("chirp --sf 7 --symbol 99999999999999999999999 --out {d}/x.cf32", 1),
    ("frame-encode --sf 7 --payload 9223372036854775808 --out {d}/x.cf32", 1),
    ("demod --in {d}/absent.cf32", 3),
    ("demod --in {d}/cf64.cf32", 3),
    ("demod --in {d}/ragged.cf32", 4),
    ("demod --in {d}/beta_0.3.cf32", 3),
    ("demod --in {d}/sf_twice.cf32", 3),
    ("demod --in {d}/not_utf8.cf32", 3),
    ("demod --in {d}/dir.cf32", 1),
    ("demod --in {d}/nan_symbol.cf32", 1),
    ("demod --in {d}/mod.cf32 --beta 0.3", 2),
    ("demod --in {d}/mod.cf32 --sf 7", 2),
    ("demod --in {d}/mod.cf32 --bw 250000", 2),
    ("toa --sf 7 --ns -5", 1),
    ("toa --sf 7 --ns 1 --preamble-len 0", 1),
    ("toa --sf 7 --ns 200", 1),
    ("toa --sf 7", 2),
    ("toa --sf 7 --ns 100000000000000000000", 1),
    ("frame-encode --sf 7 --payload 1 --preamble-len 0 --out {d}/x.cf32", 1),
    ("frame-encode --sf 7 --payload 1 --snr nan --out {d}/x.cf32", 1),
    ("frame-encode --sf 7 --payload 1 --snr 0 --seed -1 --out {d}/x.cf32", 1),
    ("frame-encode --sf 7 --payload 1 --snr -7000 --out {d}/x.cf32", 1),
    ("frame-encode --sf 7 --payload 1 --snr=-inf --out {d}/x.cf32", 1),
    ("frame-encode --sf 7 --payload 1 --snr -800 --out {d}/x.cf32", 1),
    ("frame-decode --in {d}/frame.cf32 --preamble-len -3", 2),
    ("frame-decode --in {d}/frame.cf32 --preamble-len -8", 2),
    ("frame-decode --in {d}/v9.cf32", 3),
    ("frame-decode --in {d}/cf64.cf32", 3),
    ("frame-decode --in {d}/frame.cf32 --sf 6", 2),
    ("frame-decode --in {d}/sf_abc.cf32", 3),
    ("frame-decode --in {d}/bw_1e3.cf32", 3),
    ("frame-decode --in {d}/preamble_x.cf32", 3),
    ("frame-decode --in {d}/dir.cf32", 1),
    ("frame-decode --in {d}/inf_payload.cf32", 1),
    ("frame-decode --in {d}/nan_header.cf32", 1),
    ("frame-decode --in {d}/frame.cf32 --bw 250000", 2),
    ("peak-experiment --bw 250000 --out {d}/x.csv", 2),
    ("peak-experiment --snr-start nan --out {d}/x.csv", 1),
    ("peak-experiment --snr-step 0 --out {d}/x.csv", 1),
    ("peak-experiment --betas 0.9 --out {d}/x.csv", 1),
    ("peak-experiment --betas= --out {d}/x.csv", 1),
    ("peak-experiment --seed -1 --out {d}/x.csv", 1),
    ("peak-experiment --snr-start -7000 --snr-stop -7000 --out {d}/x.csv", 1),
    ("peak-experiment --betas 0.5,0.5 --out {d}/x.csv", 1),
    ("peak-experiment --sf 7,8,7 --out {d}/x.csv", 1),
    ("peak-experiment --snr 0 --out {d}/x.csv", 2),
    ("ber-sweep --snr-stop inf --out {d}/x.csv", 1),
    ("ber-sweep --snr-step nan --out {d}/x.csv", 1),
    ("ber-sweep --snr-start 1 --snr-stop 0 --out {d}/x.csv", 1),
    ("ber-sweep --trials 0 --out {d}/x.csv", 1),
    ("ber-sweep --sf 7,x --out {d}/x.csv", 1),
    ("ber-sweep --sf= --out {d}/x.csv", 1),
    ("ber-sweep --out {d}/absent/x.csv --snr-start 300 --snr-stop 300", 1),
    ("ber-sweep --seed -1 --out {d}/x.csv", 1),
    ("ber-sweep --snr-start -7000 --snr-stop -7000 --out {d}/x.csv", 1),
    ("ber-sweep --betas 1.0 --snr-start -6160 --snr-stop -6160 --trials 100 --out {d}/x.csv", 1),
    ("ber-sweep --sf 7,7 --out {d}/x.csv", 1),
    ("ber-sweep --betas 1.0,0.5,1 --out {d}/x.csv", 1),
    ("ber-sweep --snr 0 --out {d}/x.csv", 2),
    ("ber-sweep --bw 250000 --out {d}/x.csv", 2),
    ("calibrate --target-ser 0 --out {d}/x.csv", 1),
    ("calibrate --target-ser -0.5 --out {d}/x.csv", 1),
    ("calibrate --target-ser 1.5 --out {d}/x.csv", 1),
    ("calibrate --target-ser nan --out {d}/x.csv", 1),
    ("calibrate --trials 10 --out {d}/x.csv", 1),
    ("calibrate --betas 0.9 --out {d}/x.csv", 1),
    ("calibrate --betas= --out {d}/x.csv", 1),
    ("calibrate --seed -1 --out {d}/x.csv", 1),
    ("calibrate --sf 7,7 --out {d}/x.csv", 1),
    ("calibrate --betas 1.0,1.0 --out {d}/x.csv", 1),
    ("calibrate --out", 2),
    ("calibrate --bw 250000 --out {d}/x.csv", 2),
    ("select --table {d}/dup.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/no_beta1.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/absent.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/nan_threshold.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/beta_0.9.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/sf_99.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/nan_target.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/target_1.5.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/trials_-5.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/seed_-3.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/trials_cell.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/not_utf8.csv --in {d}/history.txt --sf 7", 1),
    ("select --table {d}/good.csv --in {d}/bad_history.txt --sf 7", 1),
    ("select --table {d}/good.csv --in {d}/not_utf8.txt --sf 7", 1),
    ("select --table {d}/good.csv --in {d}/nan_first.txt --sf 7", 1),
    ("select --table {d}/good.csv --in {d}/nan_last.txt --sf 7", 1),
    ("select --table {d}/good.csv --in {d}/history.txt --sf 7 --margin-db nan", 1),
    ("select --table {d}/good.csv --in {d}/history.txt --sf 7 --aggressive", 2),
    ("select --table {d}/good.csv --in {d}/history.txt --sf 7 --marg 0", 2),
    ("select --table {d}/good.csv --in {d}/history.txt --sf 7 --capacity 100000000000000000000", 1),
]


@pytest.mark.parametrize("argv, code", MALFORMED_ARGV, ids=[argv.replace("{d}/", "") for argv, _ in MALFORMED_ARGV])
def test_malformed_input_exits_with_documented_code(malformed_inputs, capsys, argv, code):
    """main() is what the entry point runs: an exception escaping it would print a traceback."""
    try:
        got = cli.main(argv.format(d=malformed_inputs).split())
    except SystemExit as exc:  # argparse
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert any(line.startswith("error:") or ": error:" in line for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, symbol", [
    (("mod", "--payload", "18446744073709551616"), 18446744073709551616),
    (("mod", "--payload", "5 -99999999999999999999999"), -99999999999999999999999),
    (("chirp", "--symbol", "99999999999999999999999"), 99999999999999999999999),
    (("frame-encode", "--payload", "9223372036854775808"), 9223372036854775808),
    (("frame-encode", "--payload", "5 9223372036854775809"), 9223372036854775809),
])
def test_symbol_beyond_int64_gets_the_range_message(tmp_path, capsys, argv, symbol):
    code, _, err = run(capsys, *argv, "--sf", 7, "--out", tmp_path / "x.cf32")
    assert (code, err) == (1, f"error: symbol {symbol} outside [0, 128)\n")


@pytest.mark.parametrize("argv, window", [("frame-decode --in {d}/inf_payload.cf32", "2 of 3"),
                                          ("frame-decode --in {d}/nan_header.cf32", "1 of 3"),
                                          ("demod --in {d}/nan_symbol.cf32", "1 of 3")])
def test_non_finite_decoded_window_prints_one_error_line(malformed_inputs, argv, window):
    """In a fresh interpreter, so that a RuntimeWarning NumPy prints would reach stderr."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "chirplab.cli", *argv.format(d=malformed_inputs).split()],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: symbol window {window} holds a non-finite sample\n"


class TestUnknownFlag:
    def test_argparse_exit_code_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["toa", "--sf", "7", "--ns", "1", "--bogus"])
        assert exc.value.code == 2


def test_readme_cli_examples_parse():
    """Every `chirplab` line of README's CLI block names only flags the parser takes; nothing is run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("chirplab ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
