"""Command-line surface: formats, round trips, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moczsim
from moczsim import ModulationParams, autocorrelation, encode, sequence_from_csv
from moczsim.cli import main, parse_bit_string
from test_simulate import BAD_CONFIG_IDS, BAD_CONFIGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBitParsing:
    def test_plain_binary(self):
        np.testing.assert_array_equal(parse_bit_string("10"), [1, 0])

    def test_prefixed_binary(self):
        np.testing.assert_array_equal(parse_bit_string("0b0110"), [0, 1, 1, 0])

    def test_hex_with_explicit_width(self):
        np.testing.assert_array_equal(parse_bit_string("0x5", 4), [0, 1, 0, 1])
        np.testing.assert_array_equal(parse_bit_string("0x2", 2), [1, 0])

    def test_hex_needs_width(self):
        with pytest.raises(ValueError):
            parse_bit_string("0x5")

    def test_rejects_junk_and_overflow(self):
        with pytest.raises(ValueError):
            parse_bit_string("102")
        with pytest.raises(ValueError):
            parse_bit_string("0x5", 2)
        with pytest.raises(ValueError):
            parse_bit_string("10", 3)


class TestEncodeDecode:
    def test_encode_frozen_example(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--k", "2", "--bits", "10")
        assert code == 0
        samples = sequence_from_csv(out)
        np.testing.assert_allclose(samples, [0.632456, 0.447214, -0.632456], atol=1e-6)

    def test_decode_round_trip(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.csv"
        code, _, _ = run_cli(
            capsys, "encode", "--k", "2", "--bits", "10", "--out", str(seq_path)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "decode", "--k", "2", str(seq_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["bits"] == "10"
        assert len(doc["margins"]) == 2
        assert doc["margins"][0] > 0 > doc["margins"][1]

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_property(self, k, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        bits = "".join(str(b) for b in rng.integers(0, 2, k))
        path = tmp_path_factory.mktemp("rt") / "seq.csv"
        assert main(["encode", "--k", str(k), "--bits", bits, "--out", str(path)]) == 0
        x = sequence_from_csv(path.read_text())
        from moczsim import dizet_decode

        decoded = dizet_decode(x, ModulationParams(k))
        assert "".join(str(int(b)) for b in decoded.bits) == bits

    def test_autocorr_command(self, capsys):
        code, out, _ = run_cli(capsys, "autocorr", "--k", "2", "--bits", "10")
        assert code == 0
        got = sequence_from_csv(out)
        want = autocorrelation(encode([1, 0], ModulationParams(2)))
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestAmbiguityGrid:
    def test_grid_shape_and_determinism(self, capsys):
        args = ("af", "--k", "31", "--bits", "1" * 31, "--max-lag", "10", "--doppler-bins", "8")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        rows = [ln for ln in out1.strip().splitlines() if not ln.startswith("#")]
        assert len(rows) == 21
        assert all(len(row.split()) == 8 for row in rows)
        grid = np.array([[float(v) for v in row.split()] for row in rows])
        assert grid[10, 4] == pytest.approx(1.0, abs=1e-6)  # lag 0, Doppler 0


class TestExperimentCommands:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "modulation": {"k": 31, "lambda": 0.5},
            "channel_model": "awgn",
            "snr_grid_db": [4.0, 8.0],
            "trials": 2000,
            "seed": 7,
            "batch_size": 500,
        }
        doc.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_ber_outputs_are_byte_identical_across_runs(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["ber", "--config", str(cfg), "--out", str(out1), "--seed", "7"]) == 0
        assert main(["ber", "--config", str(cfg), "--out", str(out2), "--seed", "7"]) == 0
        capsys.readouterr()
        assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()
        header = (out1 / "ber.csv").read_text().splitlines()[0]
        assert header == "snr_db,ber,packets,bit_errors,bpsk_ref"

    def test_radar_command(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path,
            modulation={"k": 127, "lambda": 0.5},
            trials=3,
            schedule={"segment_deg": [-8.0, 8.0], "frames_per_cpi": 4},
            targets=[{"range_m": 60.0, "velocity_mps": 10.0, "angle_deg": 0.5}],
        )
        out = tmp_path / "radar_out"
        assert main(["radar", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "radar.csv").read_text().strip().splitlines()
        assert rows[0] == (
            "range_m,detection_rate,rmse_range_m,rmse_velocity_mps,rmse_angle_deg,"
            "false_alarm_rate,trials"
        )
        assert len(rows) == 2
        summary = json.loads((out / "radar_summary.json").read_text())
        assert summary["records"][0]["detection_rate"] == 1.0
        sample = summary["sample_detections"][0][0]
        assert set(sample) == {
            "cell",
            "range_m",
            "velocity_mps",
            "angle_deg",
            "statistic",
            "threshold",
        }
        assert sample["statistic"] > sample["threshold"]
        assert sample["range_m"] == pytest.approx(60.0, abs=1.5)

    def test_negative_snr_overrides_are_values(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, trials=10)
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "ber", "--config", str(cfg), "--out", str(out), "--snr-db", "-1e1", "-2.5", "0"
        )
        assert code == 0, err
        summary = json.loads((out / "ber_summary.json").read_text())
        assert [r["snr_db"] for r in summary["records"]] == [-10.0, -2.5, 0.0]

    def test_calibrate_cfar_command(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, cfar={"pfa": 0.5, "window": 12, "guard": 2, "os_rank": 18})
        out_dir = tmp_path / "cfar_out"
        code, out, _ = run_cli(
            capsys, "calibrate-cfar", "--config", str(cfg), "--cells", "100000",
            "--out", str(out_dir),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["records"][0]["pfa_empirical"] == pytest.approx(0.5, rel=0.15)
        rows = (out_dir / "cfar.csv").read_text().strip().splitlines()
        assert rows[0] == "pfa_target,pfa_empirical,ci_low,ci_high,cells,detections,alpha"
        assert len(rows) == 2

    def test_cfar_block_with_a_huge_multiplier_loads(self, capsys, tmp_path):
        # alpha = 2 * (1e13 - 1): beyond the 1e12 ceiling of the earlier solver.
        cfg = self.write_config(
            tmp_path, trials=10, cfar={"pfa": 1e-13, "window": 1, "guard": 0, "os_rank": 1}
        )
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 0, err
        echo = json.loads((tmp_path / "out" / "ber_summary.json").read_text())
        assert echo["config"]["cfar"]["pfa"] == 1e-13


# Run in a fresh interpreter in which any scipy import fails. Each experiment
# command must still run, and no scipy module may have been loaded.
SCIPY_FREE_RUN = """
import sys
from pathlib import Path


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import moczsim
from moczsim import cli

work = Path(sys.argv[1])
for argv in (
    ["ber", "--config", str(work / "ber.json"), "--out", str(work / "ber")],
    ["radar", "--config", str(work / "radar.json"), "--out", str(work / "radar")],
    ["calibrate-cfar", "--config", str(work / "ber.json"), "--cells", "1000"],
):
    assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_runtime_imports_no_scipy(tmp_path):
    (tmp_path / "ber.json").write_text(
        json.dumps({"modulation": {"k": 31}, "snr_grid_db": [6.0], "trials": 50, "cfar": {"pfa": 0.5}})
    )
    (tmp_path / "radar.json").write_text(
        json.dumps(
            {
                "modulation": {"k": 31},
                "trials": 1,
                "schedule": {"segment_deg": [-8.0, 8.0], "frames_per_cpi": 2},
                "targets": [{"range_m": 60.0, "velocity_mps": 10.0, "angle_deg": 0.5}],
            }
        )
    )
    src = str(Path(moczsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_invalid_bits_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--k", "2", "--bits", "12")
        assert code == 2
        assert "configuration error" in err

    def test_bad_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "ber", "--config", str(bad))
        assert code == 2

    def test_bad_thread_count_exit_2(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": {"k": 31}, "trials": 10}))
        monkeypatch.setenv("MOCZSIM_THREADS", "0")
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg))
        assert code == 2
        assert "MOCZSIM_THREADS" in err

    @pytest.mark.parametrize("doc, key", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_config_exit_2(self, capsys, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg))
        assert code == 2
        assert key in err

    def test_bad_section_value_exit_2_from_radar(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": {"frames_per_cpi": 0}}))
        code, out, err = run_cli(capsys, "radar", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "schedule: frames_per_cpi must be >= 1" in err
        assert not (tmp_path / "radar.csv").exists()

    @pytest.mark.parametrize("text", ["nan,0", "1,inf", "1e400,0", "abc,1"])
    @pytest.mark.parametrize("command", [["decode", "--k", "2"], ["autocorr", "--in"]])
    def test_non_finite_samples_exit_2_naming_the_line(self, capsys, tmp_path, command, text):
        seq = tmp_path / "seq.csv"
        seq.write_text(f"1,0\n{text}\n1,0\n")
        code, out, err = run_cli(capsys, *command, str(seq))
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_zero_trials_override_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": {"k": 31}, "trials": 10}))
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg), "--trials", "0")
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_snr_override_exit_2(self, capsys, tmp_path, snr):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": {"k": 31}, "trials": 10}))
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg), f"--snr-db={snr}")
        assert code == 2
        assert "snr_grid_db[0]" in err

    def test_minus_inf_snr_reaches_the_config_check(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": {"k": 31}, "trials": 10}))
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg), "--snr-db", "-inf")
        assert code == 2
        assert "snr_grid_db[0]" in err

    @pytest.mark.parametrize("fault", [KeyError("k"), TypeError("t")])
    def test_internal_fault_exit_4(self, capsys, tmp_path, monkeypatch, fault):
        def broken(cfg):
            raise fault

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": {"k": 31}, "trials": 10}))
        monkeypatch.setattr("moczsim.cli.run_ber", broken)
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg))
        assert code == 4
        assert "internal error" in err

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ber", "--config", str(tmp_path / "nope.json"))
        assert code == 3
        assert "I/O error" in err

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
