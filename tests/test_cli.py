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
from test_simulate import BAD_CONFIG_IDS, BAD_CONFIGS, RADAR_BAD_CONFIG_IDS, RADAR_BAD_CONFIGS
from test_simulate import SHORT_FRAME_CONFIG_IDS, SHORT_FRAME_CONFIGS

ROOT = Path(__file__).resolve().parent.parent


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

        decoded, _ = dizet_decode(x, ModulationParams(k))
        assert "".join(str(int(b)) for b in decoded) == bits

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


# (command, base document, --set overrides, the same edits made to the document)
SET_RUNS = [
    (
        "ber",
        {"modulation": {"k": 31}, "snr_grid_db": [4.0, 8.0], "trials": 200, "seed": 7},
        ["seed=3", "channel_model=rayleigh_flat", "snr_grid_db=[-2.5, 5]",
         "modulation.lambda=0.6"],
        {"seed": 3, "channel_model": "rayleigh_flat", "snr_grid_db": [-2.5, 5],
         "modulation": {"k": 31, "lambda": 0.6}},
    ),
    (
        "radar",
        {
            "modulation": {"k": 127},
            "trials": 3,
            "schedule": {"segment_deg": [-8.0, 8.0], "frames_per_cpi": 4},
            "targets": [{"range_m": 60.0, "velocity_mps": 10.0, "angle_deg": 0.5}],
        },
        ["trials=2", "schedule.frames_per_cpi=2", "cfar.pfa=1e-3",
         'targets=[{"range_m": 45.0, "velocity_mps": -5.0}]'],
        {
            "trials": 2,
            "schedule": {"segment_deg": [-8.0, 8.0], "frames_per_cpi": 2},
            "cfar": {"pfa": 1e-3},
            "targets": [{"range_m": 45.0, "velocity_mps": -5.0}],
        },
    ),
    (
        "calibrate-cfar",
        {"modulation": {"k": 31}, "trials": 2000, "cfar": {"pfa": 0.5, "window": 12}},
        ["trials=98", "cfar.pfa=0.25"],
        {"trials": 98, "cfar": {"pfa": 0.25, "window": 12}},
    ),
]

# (a bad --set, text the loader's exit-2 message must contain)
BAD_OVERRIDES = [
    ("trails=5", "unknown configuration key 'trails'"),
    ("modulation.kk=31", "unknown configuration key 'modulation.kk'"),
    ("trials=five", "trials must be an integer, got 'five'"),
    ("modulation.lambda=true", "modulation.lambda must be a number, got True"),
    ("snr_grid_db=4", "snr_grid_db must be a list"),
    ("cfar.pfa=2", "cfar: pfa"),
    ("trials", "override 'trials' must have the form key=value"),
    ("trials.k=5", "trials must be an object, got 10"),
    ("modulation.k.bits=5", "modulation.k must be an object, got 31"),
    ("snr_grid_db.0=1", "snr_grid_db must be an object, got [6.0]"),
    (
        'targets=[{"range_m":30.0,"velocity_mps":1e308}]',
        "targets[0].velocity_mps = 1e+308 m/s: the Doppler phase over the CPI overflows",
    ),
]
BAD_OVERRIDE_IDS = [
    "unknown-key", "unknown-section-key", "string-for-integer", "bool-for-number",
    "number-for-list",
    "section-check", "no-equals", "path-through-integer", "path-through-section-integer",
    "path-through-list", "doppler-phase-overflow",
]


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
        assert main(["ber", "--config", str(cfg), "--out", str(out1), "--set", "seed=7"]) == 0
        assert main(["ber", "--config", str(cfg), "--out", str(out2), "--set", "seed=7"]) == 0
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
            "range_m,detection_rate,detection_ci_low,detection_ci_high,rmse_range_m,"
            "rmse_velocity_mps,rmse_angle_deg,false_alarm_rate,false_alarm_ci_low,"
            "false_alarm_ci_high,trials"
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
            capsys, "ber", "--config", str(cfg), "--out", str(out),
            "--set", "snr_grid_db=[-10,-2.5,0]",
        )
        assert code == 0, err
        summary = json.loads((out / "ber_summary.json").read_text())
        assert [r["snr_db"] for r in summary["records"]] == [-10.0, -2.5, 0.0]
        assert summary["config"]["snr_grid_db"] == [-10.0, -2.5, 0.0]

    @pytest.mark.parametrize(
        "command, base, overrides, edits", SET_RUNS, ids=["ber", "radar", "cfar"]
    )
    def test_set_writes_what_the_hand_edited_file_writes(
        self, capsys, tmp_path, command, base, overrides, edits
    ):
        outputs = []
        for name, doc, argv in (
            ("set", base, [a for o in overrides for a in ("--set", o)]),
            ("edited", {**base, **edits}, []),
        ):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / name
            code, stdout, err = run_cli(
                capsys, command, "--config", str(cfg), "--out", str(out), *argv
            )
            assert code == 0, err
            files = sorted(out.iterdir())
            assert len(files) == 2
            written = [(f.name, f.read_bytes()) for f in files]
            outputs.append((stdout.replace(str(out), ""), written))
        assert outputs[0] == outputs[1]

    def test_ber_at_k2047_runs_from_the_shipped_awgn_config(self, capsys, tmp_path):
        # A K=2047 codeword is longer than the default 1024-sample frame,
        # which only the radar reads, so the sweep runs.
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "ber", "--config", str(ROOT / "configs" / "awgn.json"),
            "--set", "modulation.k=2047", "--set", "trials=300", "--out", str(out),
        )
        assert code == 0, err
        records = json.loads((out / "ber_summary.json").read_text())["records"]
        assert [r["packets"] for r in records] == [300] * 7
        assert records[0]["ber"] > records[-1]["ber"]

    def test_calibrate_cfar_command(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, cfar={"pfa": 0.5, "window": 12, "guard": 2, "os_rank": 18})
        out_dir = tmp_path / "cfar_out"
        code, out, _ = run_cli(
            capsys, "calibrate-cfar", "--config", str(cfg), "--set", "trials=98",
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
    ["calibrate-cfar", "--config", str(work / "ber.json"), "--set", "trials=1"],
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

    @pytest.mark.parametrize("doc, key", RADAR_BAD_CONFIGS, ids=RADAR_BAD_CONFIG_IDS)
    def test_short_radar_frame_exit_2_from_radar(self, capsys, tmp_path, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "radar", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert key in err
        assert not (tmp_path / "radar.csv").exists()

    @pytest.mark.parametrize("doc, key", RADAR_BAD_CONFIGS, ids=RADAR_BAD_CONFIG_IDS)
    def test_short_radar_frame_runs_ber(self, capsys, tmp_path, doc, key):
        # The BER sweep does not read the frame.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "trials": 10}))
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0, err

    @pytest.mark.parametrize("doc", [d for _, d in SHORT_FRAME_CONFIGS], ids=SHORT_FRAME_CONFIG_IDS)
    def test_short_frame_with_many_rf_chains_runs_radar(self, capsys, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "trials": 2, "range_grid_m": []}))
        code, _, err = run_cli(capsys, "radar", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0, err
        (rec,) = json.loads((tmp_path / "radar_summary.json").read_text())["records"]
        assert rec["detection_rate"] == 1.0
        assert np.isfinite(rec["rmse_range_m"]) and np.isfinite(rec["rmse_angle_deg"])

    @pytest.mark.parametrize("doc", [d for _, d in SHORT_FRAME_CONFIGS], ids=SHORT_FRAME_CONFIG_IDS)
    def test_short_frame_with_many_rf_chains_runs_ber(self, capsys, tmp_path, doc):
        # The BER sweep reads neither the frame nor the RF chains.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "trials": 10}))
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0, err

    def test_bad_section_value_exit_2_from_radar(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": {"frames_per_cpi": 0}}))
        code, out, err = run_cli(capsys, "radar", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "schedule: frames_per_cpi must be >= 1" in err
        assert not (tmp_path / "radar.csv").exists()

    def test_range_whose_fourth_power_overflows_exit_2_from_radar(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"link": {"w": 1e-75}, "trials": 1, "targets": [{"range_m": 1e80}]})
        )
        code, out, err = run_cli(capsys, "radar", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "targets[0].range_m = 1e+80 m: range_m**4 overflows a float" in err
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

    @staticmethod
    def bad_override_err(capsys, tmp_path, override):
        """Run ``ber --set override``; check it exits 2 writing nothing, return stderr."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": {"k": 31}, "snr_grid_db": [6.0], "trials": 10}))
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            capsys, "ber", "--config", str(cfg), "--out", str(out), "--set", override
        )
        assert code == 2
        assert stdout == ""
        assert not out.exists()
        return err

    @pytest.mark.parametrize("override, message", BAD_OVERRIDES, ids=BAD_OVERRIDE_IDS)
    def test_bad_override_exit_2(self, capsys, tmp_path, override, message):
        assert message in self.bad_override_err(capsys, tmp_path, override)

    def test_zero_trials_override_exit_2(self, capsys, tmp_path):
        assert "trials must be >= 1" in self.bad_override_err(capsys, tmp_path, "trials=0")

    @pytest.mark.parametrize(
        "snr, literal", [("nan", "NaN"), ("inf", "1e400"), ("-inf", "-Infinity")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_snr_override_exit_2(self, capsys, tmp_path, snr, literal):
        err = self.bad_override_err(capsys, tmp_path, f"snr_grid_db=[{literal}]")
        assert f"snr_grid_db[0] must be a finite number, got {snr}" in err

    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_snr_beyond_float_range_override_exit_2(self, capsys, tmp_path, snr):
        err = self.bad_override_err(capsys, tmp_path, f"snr_grid_db=[{snr}]")
        assert "snr_grid_db[0] must lie within +-3082 dB" in err

    def test_minus_inf_snr_reaches_the_config_check(self, capsys, tmp_path):
        # -1e400 overflows to -inf while the value is parsed, before any check
        err = self.bad_override_err(capsys, tmp_path, "snr_grid_db=[-1e400]")
        assert "snr_grid_db[0] must be a finite number, got -inf" in err

    def test_override_in_a_non_object_document_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code, _, err = run_cli(capsys, "ber", "--config", str(cfg), "--set", "seed=1")
        assert code == 2
        assert "configuration must be an object, got [1]" in err

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
