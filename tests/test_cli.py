import csv

import numpy as np
import pytest

from chirplab import cli, iqfile
from chirplab.adaptive import TABLE_CSV_COLUMNS
from chirplab.chirps import IqBuffer, LoraParams, ReductionFactor, base_upchirp, shifted_upchirp
from chirplab.framing import FrameSpec, build_frame

SF7 = LoraParams(sf=7, bw=125e3)


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert meta["sf"] == "7"
        assert meta["beta"] == "1.0"
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

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.cf32"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(iqfile.IqFormatError):
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
        buf = IqBuffer(base_upchirp(SF7).samples[:100], SF7.bw)
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
        from chirplab.modem import modulate
        from chirplab.chirps import base_downchirp, FULL_PERIOD
        n = 128
        parts = [
            np.tile(base_upchirp(SF7).samples, 8),
            np.concatenate([base_downchirp(SF7).samples] * 2 + [base_downchirp(SF7).samples[:n // 4]]),
            modulate([2, 0, 9], SF7, FULL_PERIOD).samples,
        ]
        path = tmp_path / "badsum.cf32"
        iqfile.write_iq(path, IqBuffer(np.concatenate(parts), SF7.bw), {"sf": 7, "bw": 125000.0})
        code, _, _ = run(capsys, "frame-decode", "--in", path)
        assert code == cli.EXIT_CHECKSUM

    def test_unknown_beta_exit_code(self, tmp_path, capsys):
        from chirplab.modem import modulate
        from chirplab.chirps import base_downchirp, FULL_PERIOD
        n = 128
        parts = [
            np.tile(base_upchirp(SF7).samples, 8),
            np.concatenate([base_downchirp(SF7).samples] * 2 + [base_downchirp(SF7).samples[:n // 4]]),
            modulate([1, 7, 8], SF7, FULL_PERIOD).samples,
            shifted_upchirp(SF7, 1).samples,
        ]
        path = tmp_path / "badbeta.cf32"
        iqfile.write_iq(path, IqBuffer(np.concatenate(parts), SF7.bw), {"sf": 7, "bw": 125000.0})
        code, _, _ = run(capsys, "frame-decode", "--in", path)
        assert code == cli.EXIT_UNKNOWN_BETA


class TestSweepCommands:
    def test_ber_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code, _, _ = run(capsys, "ber-sweep", "--sf", "7", "--betas", "1.0,0.5",
                         "--snr", -9.0, "--trials", 2000, "--seed", 5, "--out", out)
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert float(rows[1]["ser"]) > float(rows[0]["ser"])

    def test_peak_experiment_csv(self, tmp_path, capsys):
        out = tmp_path / "peak.csv"
        code, _, _ = run(capsys, "peak-experiment", "--betas", "1.0,0.875",
                         "--snr", 300.0, "--trials", 20, "--out", out)
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

    GOOD = [(7, beta, req, 0.001, 100000, 0)
            for beta, req in ((1.0, -7.5), (0.875, -7.0), (0.75, -6.0), (0.625, -5.0), (0.5, -4.5))]

    @staticmethod
    def select(tmp_path, capsys, history_text, table_rows, *flags, header=TABLE_CSV_COLUMNS):
        table = tmp_path / "table.csv"
        with open(table, "w", newline="") as handle:
            writer = csv.writer(handle)
            if header:
                writer.writerow(header)
            writer.writerows(table_rows)
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

    def test_aggressive_flag_zeroes_margin(self, tmp_path, capsys):
        _, out, _ = self.select(tmp_path, capsys, "-4.2\n", self.GOOD)
        assert out.strip() == "beta=0.875 index=1"
        _, out, _ = self.select(tmp_path, capsys, "-4.2\n", self.GOOD, "--aggressive")
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

    def test_select_table_with_beta_inversion(self, tmp_path, capsys):
        # beta 0.625 needing less SNR than beta 0.75 breaks the monotone order selection relies on
        rows = [list(row) for row in self.GOOD]
        rows[3][2] = -6.5
        assert "non-increasing in beta" in self.select_error(tmp_path, capsys, rows)


class TestUnknownFlag:
    def test_argparse_exit_code_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["toa", "--sf", "7", "--ns", "1", "--bogus"])
        assert exc.value.code == 2
