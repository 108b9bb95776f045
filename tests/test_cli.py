import argparse
import hashlib
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barriergame import cli, oracle
from barriergame.classifier import classify
from barriergame.cli import run
from barriergame.oracle import AGREEMENT_CSV_HEADER, oracle_thresholds
from barriergame.params import ModelParams, validate
from barriergame.presets import get_preset, list_presets
from barriergame.thresholds import compute_thresholds, effective_mu
from conftest import exact


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def assert_no_work(monkeypatch, names):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for name in names:
        monkeypatch.setattr(cli, name, no_work)


class TestClassifyCommand:
    def test_demo_point(self, capsys):
        payload = run_json(capsys, ["classify", "--preset", "demo-b",
                                    "--c-d", "25", "--c-r", "1"])
        report = payload["report"]
        assert report["inefficient_peace_exists"] is True
        assert report["efficient_peace_exists"] is False
        assert report["war_inevitable"] is False

    def test_flag_overrides_preset(self, capsys):
        payload = run_json(capsys, ["classify", "--preset", "demo-b",
                                    "--c-d", "10"])
        assert payload["report"]["war_inevitable"] is True
        assert payload["params"]["c_D"] == 10.0

    def test_invalid_params_exit_code(self, capsys):
        code = run(["classify", "--preset", "demo-b", "--p1", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)
        assert error["error"] == "invalid parameters"
        assert any("p1 > p" in v for v in error["detail"])

    @pytest.mark.parametrize("flag", ["--c-d", "--c-r"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_cost_rejected(self, capsys, flag, value):
        code = run(["classify", "--preset", "demo-b", f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = strict_json(captured.err)
        assert error["error"] == "invalid parameters"
        name = {"--c-d": "c_D", "--c-r": "c_R"}[flag]
        assert any(name in v for v in error["detail"])

    def test_overflowing_margins_refused(self, capsys):
        # both costs finite, but c_D + c_R overflows the joint margin
        code = run(["classify", "--preset", "demo-b", "--c-r", "1.7e308",
                    "--c-d", "1.7e308"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = strict_json(captured.err)
        assert error["error"] == "invalid parameters"
        assert error["detail"] == ["finite margins required, got "
                                   "efficient=1.7e+308, cd=1.7e+308, joint=inf"]

    def test_finite_output_bytes_are_plain_json(self, capsys):
        code = run(["classify", "--preset", "demo-b"])
        out = capsys.readouterr().out
        assert code == 0
        payload = strict_json(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_missing_params(self, capsys):
        code = run(["classify", "--c-d", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "missing parameters" in json.loads(captured.err)["error"]

    def test_unknown_flag_machine_readable(self, capsys):
        code = run(["classify", "--preset", "demo-b", "--bogus", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unrecognized" in json.loads(captured.err)["error"]

    def test_unknown_subcommand(self, capsys):
        code = run(["conquer"])
        captured = capsys.readouterr()
        assert code == 2
        json.loads(captured.err)

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" not in capsys.readouterr().err


class TestConfigLayering:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({
            "delta": 0.9, "p": 0.3, "p1": 0.7, "mu": 0.8, "h0": 0.6,
            "c_R": 1.0, "c_D": 25.0}))
        payload = run_json(capsys, ["classify", "--config", str(cfg)])
        assert payload["report"]["inefficient_peace_exists"] is True

    def test_flags_beat_config_beat_preset(self, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"c_D": 10.0}))
        payload = run_json(capsys, ["classify", "--preset", "demo-b",
                                    "--config", str(cfg), "--c-d", "35"])
        assert payload["params"]["c_D"] == 35.0
        payload = run_json(capsys, ["classify", "--preset", "demo-b",
                                    "--config", str(cfg)])
        assert payload["params"]["c_D"] == 10.0

    def test_unreadable_config(self, capsys):
        code = run(["classify", "--config", "/nonexistent/x.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unreadable config" in json.loads(captured.err)["error"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"delta": 0.9, "tariff": 1.0}))
        code = run(["classify", "--preset", "demo-b", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown parameter" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("text,error", [
        ("{not json", "config is not valid JSON: "),
        ("[0.9, 0.3]", "config must be a JSON object of parameter fields"),
        ('{"c_R": true}', "c_R must be a number, got True"),
        ('{"c_R": "25"}', "c_R must be a number, got '25'"),
        ('{"c_R": null}', "c_R must be a number, got None"),
        pytest.param('{"c_R": 1' + "0" * 400 + "}",
                     "c_R is an integer beyond float range", id="c_R=1e400"),
    ])
    def test_malformed_config(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "params.json"
        cfg.write_text(text)
        code = run(["classify", "--preset", "demo-b", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert strict_json(captured.err)["error"].startswith(error)


class TestThresholdsCommand:
    def test_values(self, capsys):
        payload = run_json(capsys, ["thresholds", "--preset", "demo-b"])
        ts = payload["thresholds"]
        assert abs(ts["cbar_D"] - 33.0) < 1e-9
        assert abs(ts["clow_D"] - 21.6) < 1e-9
        assert abs(ts["Clow"] + 1.14) < 1e-9
        assert ts["extension"] == "baseline"

    def test_intersection_flag(self, capsys):
        payload = run_json(capsys, ["thresholds", "--preset", "demo-b",
                                    "--intersection"])
        assert payload["intersection"]["found"] is True


class TestSweepCommand:
    def test_mu_sweep(self, capsys):
        code = run(["sweep", "--preset", "demo-b", "--knob", "mu",
                    "--values", "0.5,0.6,0.7,0.8"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0].startswith("mu,cbar_D,clow_D,Clow")
        assert len(lines) == 5
        clows = [float(line.split(",")[2]) for line in lines[1:]]
        assert clows == sorted(clows)

    def test_overflowing_margins_refused(self, capsys):
        code = run(["sweep", "--preset", "demo-b", "--c-r", "1.7e308",
                    "--knob", "c_D", "--values", "1,1.7e308"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = strict_json(captured.err)
        assert error["error"] == "invalid parameters"
        assert error["detail"] == ["finite margins required, got "
                                   "efficient=1.7e+308, cd=1.7e+308, joint=inf"]

    def test_unknown_knob_rejected(self, capsys):
        code = run(["sweep", "--preset", "demo-b", "--knob", "mu",
                    "--values", "abc"])
        assert code == 2
        assert "comma list" in json.loads(capsys.readouterr().err)["error"]

    def test_empty_values_rejected(self, capsys):
        code = run(["sweep", "--preset", "demo-b", "--knob", "mu",
                    "--values", ","])
        assert code == 2
        assert strict_json(capsys.readouterr().err) == {
            "error": "--values is empty"}

    def test_out_file_holds_stdout_bytes(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "demo-b", "--knob", "p",
                "--values", "0.2,0.25"]
        assert run(argv) == 0
        want = capsys.readouterr().out
        out = tmp_path / "sweep.csv"
        assert run([*argv, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == want


class TestFigureCommand:
    def test_regions_outputs(self, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        csv = tmp_path / "fig.csv"
        code = run(["figure", "regions", "--preset", "demo-b",
                    "-o", str(svg), "--csv", str(csv), "--resolution", "10"])
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().splitlines()[0].startswith("c_R,c_D,label")

    def test_determinism(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            svg = tmp_path / f"{tag}.svg"
            csv = tmp_path / f"{tag}.csv"
            assert run(["figure", "regions", "--preset", "demo-b",
                        "-o", str(svg), "--csv", str(csv),
                        "--resolution", "12"]) == 0
            paths.append((svg.read_bytes(), csv.read_bytes()))
        assert paths[0] == paths[1]

    def test_mu_shift_panels(self, tmp_path):
        svg = tmp_path / "mu.svg"
        csv = tmp_path / "mu.csv"
        assert run(["figure", "mu-shift", "--preset", "demo-b",
                    "-o", str(svg), "--csv", str(csv),
                    "--resolution", "8"]) == 0
        text = svg.read_text()
        assert "mu = 0.5" in text and "mu = 0.8" in text
        assert (tmp_path / "mu-mu-0.5.csv").exists()
        assert (tmp_path / "mu-mu-0.8.csv").exists()

    def test_make_figures_prints_every_file_it_writes(self, tmp_path):
        script = Path(__file__).parents[1] / "scripts" / "make_figures.py"
        out = fresh_python(str(script), "--outdir", str(tmp_path),
                           "--resolution", "4").decode()
        printed = [line.removeprefix("wrote ") for line in out.splitlines()]
        assert sorted(printed) == sorted(map(str, tmp_path.iterdir()))

    @pytest.mark.parametrize("value", ["4001", "1000000000000", "0", "-3"])
    def test_resolution_cap(self, capsys, monkeypatch, value):
        assert_no_work(monkeypatch, ("_collect_params", "region_grid",
                                     "emit_figure"))
        code = run(["figure", "regions", "--preset", "demo-b",
                    "-o", "never.svg", "--resolution", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert strict_json(captured.err)["error"] == \
            f"--resolution must lie in 1..4000, got {value}"

    @pytest.mark.parametrize("values, resolution", [
        ("0.5,0.6", "4000"), ("0.5,0.6,0.7", "2310"),
        (",".join(["0.5"] * 1001), "127")],
        ids=["2x4000^2", "3x2310^2", "1001x127^2"])
    def test_total_cell_cap(self, tmp_path, capsys, monkeypatch, values,
                            resolution):
        assert_no_work(monkeypatch, ("region_grid", "emit_figure"))
        code = run(["figure", "mu-shift", "--preset", "demo-b",
                    "-o", str(tmp_path / "f.svg"), "--csv",
                    str(tmp_path / "f.csv"), "--values", values,
                    "--resolution", resolution])
        captured = capsys.readouterr()
        cells = len(values.split(",")) * int(resolution) ** 2
        assert code == 2
        assert captured.out == ""
        assert strict_json(captured.err)["error"] == (
            f"figure cells (panels x resolution^2) must lie in "
            f"1..16000000, got {cells}")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_later_panel_refused_before_raster(self, tmp_path, capsys,
                                                       monkeypatch):
        # the first panel is valid, so only a check of every panel up
        # front keeps its raster from running
        assert_no_work(monkeypatch, ("region_grid", "emit_figure"))
        code = run(["figure", "mu-shift", "--preset", "demo-b",
                    "-o", str(tmp_path / "f.svg"), "--csv",
                    str(tmp_path / "f.csv"), "--values", "0.5,0",
                    "--resolution", "300"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ('{"error": "invalid parameters", "detail": '
                                '["0 < mu <= 1 required, got 0.0"]}\n')
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("values", ["0.5,0.5", "0.5000001,0.5000002"])
    def test_repeated_panel_label_refused_before_raster(self, tmp_path, capsys,
                                                        monkeypatch, values):
        # two panels labeled alike would share one CSV twin
        assert_no_work(monkeypatch, ("region_grid", "emit_figure"))
        code = run(["figure", "mu-shift", "--preset", "demo-b",
                    "-o", str(tmp_path / "f.svg"), "--csv",
                    str(tmp_path / "f.csv"), "--values", values])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert strict_json(captured.err)["error"] == \
            "--values gives two panels labeled 'mu = 0.5'"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--cr-range", "--cd-range"])
    @pytest.mark.parametrize("text", ["0:inf", "-inf:0", "nan:1",
                                      "-1e308:1e308"])
    def test_nonfinite_range_refused(self, tmp_path, capsys, monkeypatch,
                                     flag, text):
        assert_no_work(monkeypatch, ("_collect_params", "region_grid",
                                     "emit_figure"))
        svg, csv = tmp_path / "f.svg", tmp_path / "f.csv"
        code = run(["figure", "regions", "--preset", "demo-b", "-o", str(svg),
                    "--csv", str(csv), f"{flag}={text}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert strict_json(captured.err)["error"] == \
            f"{flag} requires finite LO, HI and HI - LO, got {text!r}"
        assert not svg.exists() and not csv.exists()

    def test_overflowing_margins_skipped(self, tmp_path):
        svg, csv = tmp_path / "g.svg", tmp_path / "g.csv"
        assert run(["figure", "regions", "--preset", "demo-b", "-o", str(svg),
                    "--csv", str(csv), "--cr-range=1e308:1.7e308",
                    "--cd-range=1e308:1.7e308", "--resolution", "2"]) == 0
        rows = csv.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.split(",")[2:] == ["Skipped", "nan", "nan", "nan"]
                   for row in rows)
        assert "inf" not in csv.read_text() and "inf" not in svg.read_text()

    def test_memory_is_one_row_not_the_grid(self, tmp_path):
        # the rows are classified as they are written, so a figure holds
        # one raster row at a time.  Measured traced peaks of this run:
        # 0.065 MB streamed; 0.96 MB when the grid and its text were held.
        argv = ["figure", "regions", "--preset", "demo-b", "--resolution",
                "50", "-o", str(tmp_path / "f.svg"),
                "--csv", str(tmp_path / "f.csv")]
        assert run(argv) == 0   # the parser and imports load untraced
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
        assert run(["figure", "regions", "--preset", "demo-b",
                    "-o", "env.svg", "--resolution", "4"]) == 0
        assert (tmp_path / "env.svg").exists()

    @pytest.mark.parametrize("argv,error", [
        (["regions", "--cr-range", "5"], "--cr-range expects LO:HI, got '5'"),
        (["regions", "--cr-range", "3:1"],
         "--cr-range requires HI > LO, got '3:1'"),
        (["mu-shift", "--values", "x"],
         "--values expects a comma list of numbers, got 'x'"),
        (["mu-shift", "--values", " , "], "--values is empty"),
        (["regions", "--values", "1,2"],
         "--values applies to the shift figures, not regions"),
    ])
    def test_bad_ranges_and_values(self, tmp_path, capsys, argv, error):
        svg = tmp_path / "fig.svg"
        code = run(["figure", *argv, "--preset", "demo-b", "-o", str(svg)])
        captured = capsys.readouterr()
        assert code == 2
        assert strict_json(captured.err) == {"error": error}
        assert not svg.exists()


class TestSimulateCommand:
    def test_json_report(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        payload = run_json(capsys, [
            "simulate", "--preset", "demo-b", "--mode", "inefficient",
            "--runs", "10", "--horizon", "300", "--seed", "1",
            "--trace", str(trace)])
        stats = payload["stats"]
        assert stats["war_frequency"] == 0.0
        assert abs(stats["payoff_d_mean"] - 0.26) < 1e-6
        lines = trace.read_text().splitlines()
        assert len(lines) == 300
        first = json.loads(lines[0])
        assert first["period"] == 1 and first["y"] == 0.6

    @pytest.mark.parametrize("flags", [
        ["--runs", "10000001"],
        ["--runs", "1000000000000"],
        ["--runs", "0"],
        ["--horizon", "1000001"],
        ["--horizon", "1000000000000"],
        ["--horizon", "-1"],
    ])
    def test_allocation_caps(self, capsys, monkeypatch, flags):
        assert_no_work(monkeypatch, ("_collect_params", "StrategyProfile",
                                     "simulate"))
        code = run(["simulate", "--preset", "demo-b", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flags[0] in strict_json(captured.err)["error"]

    def test_overflowing_margins_refused_like_classify(self, capsys):
        point = ["--preset", "demo-b", "--c-r", "1.7e308", "--c-d", "1.7e308"]
        assert run(["classify", *point]) == 2
        want = capsys.readouterr().err
        for mode in ("efficient", "inefficient"):
            code = run(["simulate", *point, "--mode", mode])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == want
        assert strict_json(want)["detail"] == [
            "finite margins required, got efficient=1.7e+308, cd=1.7e+308, "
            "joint=inf"]

    def test_refused_profile(self, capsys):
        code = run(["simulate", "--preset", "demo-b", "--c-d", "20",
                    "--mode", "inefficient"])
        captured = capsys.readouterr()
        assert code == 2
        assert "clow_D" in json.loads(captured.err)["error"]

    def test_cooperative_mode(self, capsys, tmp_path):
        trace = tmp_path / "coop.jsonl"
        payload = run_json(capsys, [
            "simulate", "--preset", "demo-b",
            "--elimination-mode", "Cooperative", "--mode", "cooperative",
            "--runs", "3", "--horizon", "200", "--trace", str(trace)])
        assert payload["stats"]["elimination_periods"] == {"2": 1.0}
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["elim_r"] is False and first["elim_d"] is True

    def test_sweep_hits_floor_violation(self, capsys):
        code = run(["sweep", "--preset", "demo-b", "--knob", "theta",
                    "--values", "0.3,1.0"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)
        assert error["error"] == "invalid parameters"
        assert any("theta below floor" in v for v in error["detail"])


class TestVerifyCommand:
    def test_pass_report(self, capsys):
        payload = run_json(capsys, ["verify", "--preset", "demo-b",
                                    "--c-d", "25"])
        assert payload["report"]["passed"] is True

    def test_fail_report(self, capsys):
        payload = run_json(capsys, ["verify", "--preset", "demo-b",
                                    "--c-d", "20"])
        assert payload["report"]["passed"] is False
        assert "responder" in payload["report"]["best_deviation"]

    def test_nonfinite_gain_is_null(self, capsys):
        # the offer scan finds no acceptable offer at this point, so its gain
        # is -inf, which strict JSON reports as null
        code = run(["verify", "--preset", "demo-b", "--c-d", "5"])
        captured = capsys.readouterr()
        assert code == 0
        payload = strict_json(captured.out)
        assert payload["report"]["gains"]["offer_scan"] is None

    @pytest.mark.parametrize("flags,last", [
        ([], "eliminate_then_war=-inf"),
        (["--thresholds"], "eliminate_then_war=-inf"),
        (["--mode", "efficient", "--thresholds"], "keep_trigger=-inf"),
    ])
    def test_overflowing_gains_refused(self, capsys, monkeypatch, flags,
                                       last):
        # classify refuses this point too: its gains overflow to -inf, which
        # strict JSON could only print as null
        assert_no_work(monkeypatch, ("oracle_thresholds",))
        code = run(["verify", "--preset", "demo-b", "--c-r", "1.7e308",
                    "--c-d", "1.7e308", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            '{"error": "invalid parameters", "detail": ["finite period-1 '
            'terms required, got war_period1=-inf, proposer_stationary=-inf, '
            f'{last}"]}}\n')

    def test_agreement_summary(self, capsys, tmp_path):
        csv_path = tmp_path / "agree.csv"
        run_json(capsys, ["verify", "--preset", "demo-b", "--agreement", "3",
                          "--agreement-csv", str(csv_path), "--seed", "2"])
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("delta,p,p1")
        assert len(lines) == 4
        for line in lines[1:]:
            assert float(line.split(",")[-2]) <= 1e-6

    def test_agreement_rows_written_as_made(self, capsys, tmp_path,
                                           monkeypatch):
        # the CSV goes out row by row: the rows made before a failure are
        # written, where a census held whole would have written none
        def two_rows_then_fail(n_points, seed):
            yield "row 1"
            yield "row 2"
            raise ValueError("census stopped")

        monkeypatch.setattr(cli, "agreement_rows", two_rows_then_fail)
        code = run(["verify", "--preset", "demo-b", "--agreement", "3",
                    "-o", str(tmp_path / "report.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == AGREEMENT_CSV_HEADER + "\nrow 1\nrow 2\n"
        assert strict_json(captured.err) == {"error": "census stopped"}

    def test_agreement_csv_to_stdout(self, capsys, tmp_path,
                                    monkeypatch):
        # the report and the agreement CSV cannot share stdout, so with
        # neither -o nor --agreement-csv the command is refused before any
        # work; with either, stdout holds the other document alone
        argv = ["verify", "--preset", "demo-b", "--agreement", "3",
                "--seed", "2"]
        csv_path = tmp_path / "agree.csv"
        report = tmp_path / "report.json"
        assert run([*argv, "--agreement-csv", str(csv_path),
                    "-o", str(report)]) == 0
        assert run([*argv, "-o", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().out == csv_path.read_text()
        assert run([*argv, "--agreement-csv", str(tmp_path / "a.csv")]) == 0
        assert capsys.readouterr().out == report.read_text()
        assert_no_work(monkeypatch, ("verify_period1", "agreement_rows"))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert strict_json(captured.err) == {
            "error": "two outputs would write to stdout"}
        # it follows the flag and parameter checks, which keep their texts
        for refused, error in REFUSALS:
            if "--agreement" in refused and "-o" not in refused:
                assert run(refused) == 2
                assert strict_json(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize("flags", [
        ["--mode", "cooperative"],
        ["--mode", "efficient", "--c-d", "35",
         "--elimination-mode", "Cooperative"],
    ], ids=["cooperative", "efficient"])
    def test_unplayable_elimination_mode_refused(self, capsys, flags):
        # verify certifies no profile that simulate refuses to play: both
        # exit 2 with the same message and print nothing
        errors = []
        for command in (["verify"], ["simulate", "--runs", "10"]):
            code = run([*command, "--preset", "demo-b", *flags])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            errors.append(strict_json(captured.err))
        assert errors[0] == errors[1]
        assert "elimination mode" in errors[0]["error"]

    def test_slow_postwar_mean_verified(self, capsys):
        # contraction factor (1 - rho) * delta ~ 0.99999: the postwar mean
        # is solved, not iterated, so the point gets a verdict, and the
        # mean and every oracle bracket lie within their bands of the
        # exact values
        argv = ["verify", "--preset", "demo-b", "--delta", "0.99999",
                "--rho", "1e-6"]
        plain = run_json(capsys, argv)
        payload = run_json(capsys, [*argv, "--thresholds"])
        assert payload["report"] == plain["report"]
        assert plain["report"]["passed"] is False
        assert plain["report"]["best_deviation"].startswith(
            "responder rejects")
        q = ModelParams.from_dict(payload["params"])
        mean, note = oracle._mean(q)
        assert note is None
        assert mean.lo <= effective_mu(exact(q)) <= mean.hi
        ts = compute_thresholds(exact(q))
        brackets = payload["oracle_thresholds"]
        assert brackets["anomalies"] == []
        for key in ("cbar_D", "clow_D", "Clow"):
            assert brackets[key]["lo"] <= getattr(ts, key) <= brackets[key]["hi"]

    @pytest.mark.parametrize("flags", [
        ["--agreement", "100001"],
        ["--agreement", "1000000000000"],
        ["--agreement", "0"],
        ["--agreement", "-3"],
    ])
    def test_allocation_caps(self, capsys, monkeypatch, flags):
        assert_no_work(monkeypatch, ("_collect_params", "verify_period1",
                                     "oracle_thresholds", "agreement_rows"))
        code = run(["verify", "--preset", "demo-b", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flags[0] in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tol_checked(self, capsys, monkeypatch, value):
        assert_no_work(monkeypatch, ("_collect_params", "verify_period1",
                                     "oracle_thresholds", "agreement_rows"))
        code = run(["verify", "--preset", "demo-b", f"--tol={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert strict_json(captured.err)["error"] == \
            f"--tol must be finite and >= 0, got {float(value)}"


_P1_DETAIL = ('{"error": "invalid parameters", "detail": ["p1 > p required '
              '(declining power), got p1=0.1, p=0.3"]}\n')

# stderr of the invalid-parameter path of every subcommand that takes
# parameters, pinned byte for byte
INVALID_PARAM_STDERR = [
    (["thresholds", "--p1", "0.1"], _P1_DETAIL),
    (["thresholds", "--p1", "0.1", "--intersection"], _P1_DETAIL),
    (["thresholds", "--c-d", "-1", "--theta", "0"],
     '{"error": "invalid parameters", "detail": ["finite c_D >= 0 required, '
     'got -1.0", "theta > 0 required, got 0.0"]}\n'),
    (["classify", "--p1", "0.1"], _P1_DETAIL),
    (["classify", "--c-d", "nan"],
     '{"error": "invalid parameters", "detail": ["finite c_D >= 0 required, '
     'got nan"]}\n'),
    (["sweep", "--p1", "0.1", "--knob", "mu", "--values", "0.5"], _P1_DETAIL),
    (["sweep", "--knob", "p", "--values", "0.2,0.95"],
     '{"error": "invalid parameters", "detail": ["p1 > p required '
     '(declining power), got p1=0.7, p=0.95"]}\n'),
    (["figure", "regions", "--p1", "0.1", "-o", "x.svg"], _P1_DETAIL),
    (["figure", "mu-shift", "--values", "0.5,0", "-o", "x.svg",
      "--resolution", "2"],
     '{"error": "invalid parameters", "detail": ["0 < mu <= 1 required, '
     'got 0.0"]}\n'),
    (["simulate", "--p1", "0.1"], _P1_DETAIL),
    (["verify", "--p1", "0.1"], _P1_DETAIL),
    (["verify", "--theta", "-1", "--thresholds"],
     '{"error": "invalid parameters", "detail": ["theta > 0 required, '
     'got -1.0"]}\n'),
]


@pytest.mark.parametrize("argv,err", INVALID_PARAM_STDERR,
                         ids=[" ".join(a) for a, _ in INVALID_PARAM_STDERR])
def test_invalid_param_stderr_pinned(argv, err, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
    command, *rest = argv
    code = run([command, "--preset", "demo-b", *rest])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == err


# each output file a command can write
_OUTPUT_FLAGS = {
    "simulate": ["-o", "rep.json", "--trace", "trace.jsonl"],
    "verify": ["-o", "rep.json", "--agreement-csv", "agree.csv"],
}

REFUSALS = [
    # an option is taken only as declared, never by a unique prefix of it
    (["simulate", "--preset", "demo-b", "--run", "5", "--hor", "3", "--se",
      "2"], "unrecognized arguments: --run 5 --hor 3 --se 2"),
    (["verify", "--preset", "demo-b", "--agreement", "3", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["simulate", "--preset", "demo-b", "--seed", "-5"],
     "--seed must be >= 0, got -5"),
    (["verify", "--preset", "demo-b", "--agreement", "3", "--tol", "-1"],
     "--tol must be finite and >= 0, got -1.0"),
    (["verify", "--preset", "demo-b", "--agreement", "0"],
     "--agreement must lie in 1..100000, got 0"),
    (["verify", "--preset", "demo-b", "--agreement", "3", "--p1", "0.1"],
     "invalid parameters"),
    (["simulate", "--preset", "demo-b", "--p1", "0.1"], "invalid parameters"),
    (["verify", "--preset", "nope", "--agreement", "3"],
     "unknown preset 'nope'; available: ['demo-b', 'post-wto', 'pre-wto']"),
    (["verify", "--preset", "demo-b"], "--agreement-csv requires --agreement"),
    # an output in a missing directory is refused before any other is written
    (["figure", "regions", "--preset", "demo-b", "-o", "ok.svg",
      "--csv", "nodir/x.csv"], "no directory for output {outdir}/nodir/x.csv"),
    (["verify", "--preset", "demo-b", "-o", "v.json", "--agreement", "3",
      "--agreement-csv", "nodir/a.csv"],
     "no directory for output {outdir}/nodir/a.csv"),
    (["simulate", "--preset", "demo-b", "--trace", "t.jsonl",
      "-o", "nodir/o.json"], "no directory for output {outdir}/nodir/o.json"),
    (["thresholds", "--preset", "demo-b", "-o", "nodir/x.json"],
     "no directory for output {outdir}/nodir/x.json"),
    (["classify", "--preset", "demo-b", "-o", "nodir/x.json"],
     "no directory for output {outdir}/nodir/x.json"),
    (["sweep", "--preset", "demo-b", "--knob", "mu", "--values", "0.5",
      "-o", "nodir/x.json"], "no directory for output {outdir}/nodir/x.json"),
    (["presets", "-o", "nodir/x.json"],
     "no directory for output {outdir}/nodir/x.json"),
]


@pytest.mark.parametrize("argv,error", REFUSALS,
                         ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_writes_no_output(argv, error, capsys, tmp_path, monkeypatch):
    # every refusal comes before the first byte of output; output flags in
    # argv come after the command's usual ones, so they win
    monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
    code = run([argv[0], *_OUTPUT_FLAGS.get(argv[0], []), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert strict_json(captured.err)["error"] == error.replace(
        "{outdir}", os.path.realpath(tmp_path))
    assert list(tmp_path.iterdir()) == []


SHARED_OUTPUTS = [
    (["figure", "regions", "-o", "f.svg", "--csv", "f.svg"], "f.svg"),
    (["figure", "regions", "-o", "f.svg", "--csv", "./f.svg"], "f.svg"),
    (["figure", "mu-shift", "-o", "f-mu-0.8.csv", "--csv", "f.csv"],
     "f-mu-0.8.csv"),
    (["simulate", "-o", "s.json", "--trace", "s.json"], "s.json"),
    (["verify", "--agreement", "3", "-o", "r.json", "--agreement-csv",
      "r.json"], "r.json"),
]


@pytest.mark.parametrize("argv,path", SHARED_OUTPUTS,
                         ids=[" ".join(a) for a, _ in SHARED_OUTPUTS])
def test_shared_output_path_refused(argv, path, capsys, tmp_path,
                                    monkeypatch):
    # two outputs resolving to one file are refused before any work, where
    # the later write used to replace the earlier one silently
    monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
    assert_no_work(monkeypatch, ("region_grid", "emit_figure",
                                 "simulate", "verify_period1",
                                 "agreement_rows"))
    code = run([*argv, "--preset", "demo-b"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert strict_json(captured.err)["error"] == \
        f"two outputs would write to {os.path.realpath(tmp_path / path)}"
    assert list(tmp_path.iterdir()) == []


# (argv, BARRIERGAME_OUTDIR under the working directory, the file each
# argv names twice: as --config, read from the working directory, and as
# an output, written under the output directory); link.json links to
# cfg.json
CONFIG_OUTPUTS = [
    (["classify", "--config", "cfg.json", "-o", "cfg.json"], ".",
     "cfg.json"),
    (["simulate", "--config", "cfg.json", "--trace", "./cfg.json"], ".",
     "cfg.json"),
    (["verify", "--config", "cfg.json", "--agreement", "3", "-o", "r.json",
      "--agreement-csv", "cfg.json"], ".", "cfg.json"),
    (["figure", "regions", "--config", "cfg.json", "-o", "f.svg",
      "--csv", "cfg.json"], ".", "cfg.json"),
    # a figure of several panels writes f-mu-0.8.csv for --csv f.csv
    (["figure", "mu-shift", "--config", "f-mu-0.8.csv", "-o", "f.svg",
      "--csv", "f.csv"], ".", "f-mu-0.8.csv"),
    (["classify", "--config", "out/cfg.json", "-o", "cfg.json"], "out",
     "out/cfg.json"),
    (["classify", "--config", "link.json", "-o", "cfg.json"], ".",
     "cfg.json"),
    (["classify", "--config", "cfg.json", "-o", "link.json"], ".",
     "cfg.json"),
]


@pytest.mark.parametrize("argv,outdir,config", CONFIG_OUTPUTS,
                         ids=[" ".join(a) for a, _, _ in CONFIG_OUTPUTS])
def test_config_output_refused(argv, outdir, config, capsys, tmp_path,
                               monkeypatch):
    # an output that resolves to the --config input used to replace the
    # user's parameters with the report; it is refused before the config
    # is read and before any work, so no file changes or appears
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BARRIERGAME_OUTDIR", outdir)
    (tmp_path / config).parent.mkdir(exist_ok=True)
    q = get_preset("demo-b").params
    (tmp_path / config).write_text(json.dumps(
        {**q._asdict(), "elimination_mode": q.elimination_mode.value}))
    (tmp_path / "link.json").symlink_to("cfg.json")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert_no_work(monkeypatch, ("_collect_params", "classify", "simulate",
                                 "verify_period1", "agreement_rows",
                                 "region_grid", "emit_figure"))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert strict_json(captured.err)["error"] == (
        f"output {os.path.realpath(tmp_path / config)} would overwrite the "
        f"--config input")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == before


DIRECTORY_OUTPUTS = [
    (["figure", "regions", "-o", "f.svg", "--csv", "sub.csv",
      "--resolution", "20"], "sub.csv"),
    (["simulate", "--runs", "10", "--horizon", "5", "--trace", "tr.jsonl",
      "-o", "t.jsonl"], "t.jsonl"),
    (["verify", "--agreement", "3", "-o", "r.json", "--agreement-csv",
      "a.csv"], "a.csv"),
]


@pytest.mark.parametrize("argv,path", DIRECTORY_OUTPUTS,
                         ids=[" ".join(a) for a, _ in DIRECTORY_OUTPUTS])
def test_directory_output_refused(argv, path, capsys, tmp_path, monkeypatch):
    # an output that names a directory is refused before any work, where
    # the command used to fail only after writing its other outputs
    monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
    (tmp_path / path).mkdir()
    assert_no_work(monkeypatch, ("region_grid", "emit_figure",
                                 "simulate", "verify_period1",
                                 "agreement_rows"))
    code = run([*argv, "--preset", "demo-b"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert strict_json(captured.err)["error"] == \
        f"output {os.path.realpath(tmp_path / path)} is a directory"
    assert list(tmp_path.iterdir()) == [tmp_path / path]


PANEL_OUTPUTS = [
    # --csv names the SVG output itself
    (["-o", "f.csv", "--csv", "f.csv"], None,
     ["f-mu-0.5.csv", "f-mu-0.8.csv", "f.csv"]),
    # --csv names a directory
    (["-o", "f.svg", "--csv", "twin"], "twin",
     ["f.svg", "twin-mu-0.5.csv", "twin-mu-0.8.csv"]),
]


@pytest.mark.parametrize("argv,subdir,written", PANEL_OUTPUTS,
                         ids=[" ".join(a) for a, _, _ in PANEL_OUTPUTS])
def test_panel_outputs_checked_under_their_names(argv, subdir, written,
                                                 capsys, tmp_path,
                                                 monkeypatch):
    # a figure of several panels writes no file named --csv, only one CSV
    # per panel, so --csv itself may name the SVG output or a directory
    monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
    if subdir:
        (tmp_path / subdir).mkdir()
    code = run(["figure", "mu-shift", "--preset", "demo-b", *argv,
                "--resolution", "2"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == \
        written
    svg = argv[1]
    assert (tmp_path / svg).read_text().startswith("<svg")
    for name in written:
        if name != svg:
            assert (tmp_path / name).read_text().startswith("c_R,c_D,label,")


# SHA-256 of the stdout of a fixed demo-b matrix: a changed key, key
# order, float repr or indentation shows here.  Print an argv's digest with
#     PYTHONPATH=src python -m barriergame.cli <argv> | sha256sum
STDOUT_SHA256 = [
    ("thresholds --preset demo-b",
     "e5e500d70b99ca892b6e75e7369a581b78a7caf1a2a0b36bc96a3d32264032d8"),
    ("thresholds --preset demo-b --intersection",
     "a9d34ccd5c0349aa78a4fbb1bdf128c9b14c29a93538f20b6f9d4cfa2bd1f407"),
    ("classify --preset demo-b",
     "da6c132a828eed4eac0fc35e708614b44d54b98ee384f16271cf50e2043c4976"),
    ("sweep --preset demo-b --knob mu --values 0.5,0.8,1",
     "8f64990eb5a61f96e0e55f0b9152c45105bbd968583b15205da149278e346e3a"),
    ("presets",
     "2ff0517246fb65a171fff7585283ded54ac07efed3825ee8373baf242ee97b21"),
    ("verify --preset demo-b --thresholds --mode efficient --c-d 5",
     "95cad0ada89fd666dab4330371ebdaf09590a9163f46c7b515fd4149138ee8ee"),
    ("verify --preset demo-b --thresholds --mode efficient --c-d 25",
     "e5669eeacbda2a330388649a0a2fd4cfa6626b1c994b1576e6d1617cdf40a146"),
    ("verify --preset demo-b --thresholds --mode inefficient --c-d 5",
     "104042d46ed0527e4176db174f13d6944d7026a8b60b250bfbd72f922315a994"),
    ("verify --preset demo-b --thresholds --mode inefficient --c-d 25",
     "aab11ff67ef118386151adc2323703431bd17ac0774ca062f76da83a7b5077b2"),
    ("verify --preset demo-b --thresholds --mode cooperative --c-d 5 "
     "--elimination-mode Cooperative",
     "dfba71b8a86b46531cdc5e570e300beba759249dd1b3873e7be260619e99af5a"),
    ("verify --preset demo-b --thresholds --mode cooperative --c-d 25 "
     "--elimination-mode Cooperative",
     "d024568f16f0b872371fc8fb2b331f1d41321621320f4cdf7b5ec3166ce6ce95"),
    ("simulate --preset demo-b --mode efficient --c-d 35 --runs 10 "
     "--horizon 50",
     "e98294b539b6c6800327e4612aafb72f2567ff81ee00c1d4c18ef80f2d7d95e0"),
    ("simulate --preset demo-b --mode inefficient --c-d 35 --runs 10 "
     "--horizon 50",
     "6cd79417acb54e14f24f985e69cc30626d40e2797e439399d3c98ced3d0d882c"),
    ("simulate --preset demo-b --mode cooperative --c-d 35 --runs 10 "
     "--horizon 50 --elimination-mode Cooperative",
     "5a57b02acc9735ae13ff016aa3931d86da501c2085e6ec4ee501f984d87f022a"),
]


@pytest.mark.parametrize("argv,digest", STDOUT_SHA256,
                         ids=[a for a, _ in STDOUT_SHA256])
def test_stdout_bytes_pinned(argv, digest, capsys):
    code = run(argv.split())
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def fresh_python(*args):
    """Run a fresh interpreter on this checkout's src, with dev-mode checks
    on and every warning an error."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        capture_output=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    return done.stdout


def test_module_entry_point_pinned():
    # python -m runs cli.main; its stdout is the pinned classify bytes
    argv = "classify --preset demo-b"
    out = fresh_python("-m", "barriergame.cli", *argv.split())
    assert hashlib.sha256(out).hexdigest() == dict(STDOUT_SHA256)[argv]


# runs each argv of sys.argv[1:] through cli.run in one interpreter and
# prints whether numpy was loaded after the import and after each command,
# with each command's exit status and stdout digest
_NUMPY_PROBE = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from barriergame import cli
seen = [["import barriergame.cli", "numpy" in sys.modules]]
for argv in sys.argv[1:]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv.split())
    text = out.getvalue()
    seen.append([argv, "numpy" in sys.modules, code,
                 hashlib.sha256(text.encode()).hexdigest()])
print(json.dumps(seen))
"""


def numpy_probe(*argvs):
    return json.loads(fresh_python("-c", _NUMPY_PROBE, *argvs))


def test_scalar_commands_do_not_import_numpy():
    # every pinned command computes on plain floats, so neither the import
    # nor any of these runs loads numpy, and each stdout keeps its pin
    (_, after_import), *runs = numpy_probe(*dict(STDOUT_SHA256))
    assert after_import is False
    assert [argv for argv, *_ in runs] == list(dict(STDOUT_SHA256))
    for argv, loaded, code, digest in runs:
        assert (loaded, code) == (False, 0), argv
        assert digest == dict(STDOUT_SHA256)[argv], argv


def test_cli_loads_neither_dataclasses_nor_inspect():
    # every record is a named tuple, so importing the CLI and building its
    # parser loads neither module (they cost a fresh process about 10 ms)
    out = fresh_python("-c", """
import json, sys
from barriergame.cli import build_parser
build_parser()
print(json.dumps(["dataclasses" in sys.modules, "inspect" in sys.modules]))
""")
    assert json.loads(out) == [False, False]


def test_array_paths_import_numpy(capsys, tmp_path):
    # the agreement points are drawn from a numpy Generator: numpy loads
    # when the command runs, and the fresh run prints what an in-process
    # run prints
    csv_path = tmp_path / "agree.csv"
    argv = f"verify --preset demo-b --agreement 3 --seed 5 " \
           f"--agreement-csv {csv_path}"
    _, (_, loaded, code, digest) = numpy_probe(argv)
    assert (loaded, code) == (True, 0)
    fresh_csv = csv_path.read_text()
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert csv_path.read_text() == fresh_csv
    assert fresh_csv.startswith(AGREEMENT_CSV_HEADER + "\n")
    assert fresh_csv.count("\n") == 4
    # so does a custom profile's run, which draws from a numpy Generator
    out = fresh_python("-c", """
import json, sys
from barriergame.engine import ProfileMode, StrategyProfile, simulate
from barriergame.params import BarrierDistribution
from barriergame.presets import get_preset
q = get_preset("demo-b").params
before = "numpy" in sys.modules
profile = StrategyProfile(mode=ProfileMode.CUSTOM, params=q,
                          custom_offer=lambda t, y, b: 0.0,
                          custom_accept=lambda t, y, b, o: t < 3)
stats = simulate(profile, q, BarrierDistribution.uniform_with_mean(q.mu, 0.1),
                 horizon=10, n_runs=4, seed=1)
print(json.dumps([before, "numpy" in sys.modules, stats.war_frequency]))
""")
    assert json.loads(out) == [False, True, 1.0]


def test_json_keys_are_fields_and_properties():
    """A nested record is an object of its own keys; test_records.py holds
    every record's keys to its fields then its properties."""
    q = get_preset("demo-b").params
    report, oracle = classify(q), oracle_thresholds(q)
    # demo-b's values are all finite, so each nested object is _asdict()
    plain_report, plain_oracle = cli._plain(report), cli._plain(oracle)
    assert plain_report["margins"] == report.margins._asdict()
    assert plain_report["thresholds"] == report.thresholds._asdict()
    assert [plain_oracle[k] for k in ("cbar_D", "clow_D", "Clow")] == [
        bracket._asdict() for bracket in oracle[:3]]


class TestPresetsCommand:
    def test_listing(self, capsys):
        payload = run_json(capsys, ["presets"])
        names = {p["name"] for p in payload["presets"]}
        assert {"demo-b", "pre-wto", "post-wto"} <= names
        for entry in payload["presets"]:
            assert "not calibrated" in entry["annotation"]

    def test_shipped_presets_validate(self):
        for preset in list_presets():
            assert validate(preset.params) == ()

    def test_unknown_preset(self, capsys):
        code = run(["classify", "--preset", "nope"])
        assert code == 2
        assert strict_json(capsys.readouterr().err)["error"] == (
            "unknown preset 'nope'; available: ['demo-b', 'post-wto', "
            "'pre-wto']")


# one invocation of every subcommand, writing each file it can
REUSE_COMMANDS = {
    "thresholds": ["thresholds", "--preset", "demo-b", "--intersection",
                   "-o", "t.json"],
    "classify": ["classify", "--preset", "demo-b", "--c-d", "25"],
    "sweep": ["sweep", "--preset", "demo-b", "--knob", "mu",
              "--values", "0.5,0.7"],
    "figure": ["figure", "mu-shift", "--preset", "demo-b", "-o", "f.svg",
               "--csv", "f.csv", "--resolution", "6"],
    "simulate": ["simulate", "--preset", "demo-b", "--runs", "5",
                 "--horizon", "40", "--seed", "3", "--trace", "s.jsonl"],
    "verify": ["verify", "--preset", "demo-b", "--thresholds",
               "--agreement", "2", "--agreement-csv", "a.csv"],
    "presets": ["presets"],
}


class TestParserReuse:
    @pytest.fixture
    def outputs(self, tmp_path, monkeypatch, capsys):
        """Run argv in a fresh output directory; return the exit status,
        stdout, stderr and the bytes of every file written."""
        count = itertools.count()

        def go(argv):
            outdir = tmp_path / str(next(count))
            outdir.mkdir()
            monkeypatch.setenv("BARRIERGAME_OUTDIR", str(outdir))
            code = run(argv)
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            return code, captured.out, captured.err, files

        return go

    @pytest.mark.parametrize("command", sorted(REUSE_COMMANDS))
    def test_reused_parser_same_output(self, outputs, command):
        argv = REUSE_COMMANDS[command]
        cli._parser.cache_clear()
        fresh = outputs(argv)
        assert fresh[0] == 0, fresh[2]
        assert outputs(argv) == fresh
        assert outputs(argv) == fresh

    def test_all_commands_share_one_parser(self, outputs):
        fresh = {}
        for command, argv in REUSE_COMMANDS.items():
            cli._parser.cache_clear()
            fresh[command] = outputs(argv)
        cli._parser.cache_clear()
        for _ in range(2):
            for command, argv in REUSE_COMMANDS.items():
                assert outputs(argv) == fresh[command], command

    def test_usage_error_and_help_leave_parser_intact(self, outputs):
        argv = REUSE_COMMANDS["figure"]
        cli._parser.cache_clear()
        before = outputs(argv)
        help_text = outputs(["figure", "--help"])
        assert help_text[0] == 0 and "--resolution" in help_text[1]
        for bad in (["figure", "regions", "--bogus", "1"],
                    ["figure", "nowhere", "-o", "x.svg"],
                    ["figure", "regions"],
                    ["sweep", "--preset", "demo-b", "--knob", "delta",
                     "--values", "1"]):
            code, out, err, files = outputs(bad)
            assert code == 2 and out == "" and not files
            assert strict_json(err)["error"]
        assert outputs(["--help"])[0] == 0
        assert outputs(["figure", "--help"]) == help_text
        assert outputs(argv) == before

    def test_build_parser_returns_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_one_build_per_process(self, outputs, monkeypatch):
        built = []
        original = cli.build_parser

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for argv in [*REUSE_COMMANDS.values(), ["classify", "--bogus"],
                     ["--help"]]:
            outputs(argv)
        assert len(built) == 1


def _option(strings, dest, default=None, type=None, choices=None,
            required=False, nargs=None, metavar=None):
    return dest, (tuple(strings), default, type, choices, required, nargs,
                  metavar)


# every option each subcommand takes, keyed by dest: option strings,
# default, type, choices, required, nargs and metavar
_HELP = [_option(["-h", "--help"], "help", "==SUPPRESS==", nargs=0)]
_PARAM_OPTIONS = [
    _option(["--preset"], "preset"), _option(["--config"], "config"),
    *(_option([flag], f"param_{name}", type="float") for name, flag in [
        ("delta", "--delta"), ("p", "--p"), ("p1", "--p1"), ("mu", "--mu"),
        ("h0", "--h0"), ("c_R", "--c-r"), ("c_D", "--c-d"),
        ("rho", "--rho"), ("theta", "--theta")]),
    _option(["--elimination-mode"], "param_elimination_mode",
            choices=["Unilateral", "Cooperative"]),
]
_OUT = [_option(["-o", "--out"], "out")]
_MODE_SEED = [
    _option(["--mode"], "mode", "inefficient",
            choices=["cooperative", "efficient", "inefficient"]),
    _option(["--seed"], "seed", 0, type="int"),
]
PARSER_SURFACE = {
    "thresholds": dict(_HELP + _PARAM_OPTIONS + _OUT + [
        _option(["--intersection"], "intersection", False, nargs=0)]),
    "classify": dict(_HELP + _PARAM_OPTIONS + _OUT),
    "sweep": dict(_HELP + _PARAM_OPTIONS + _OUT + [
        _option(["--knob"], "knob", required=True,
                choices=["mu", "p", "h0", "c_D", "c_R", "rho", "theta"]),
        _option(["--values"], "values", required=True)]),
    "figure": dict(_HELP + _PARAM_OPTIONS + [
        _option([], "figure_id", required=True,
                choices=["mu-shift", "p-shift", "regions"]),
        _option(["-o", "--out"], "out", required=True),
        _option(["--csv"], "csv"),
        _option(["--resolution"], "resolution", 40, type="int"),
        _option(["--cr-range"], "cr_range", "0:10"),
        _option(["--cd-range"], "cd_range", "0:40"),
        _option(["--values"], "values")]),
    "simulate": dict(_HELP + _PARAM_OPTIONS + _OUT + _MODE_SEED + [
        _option(["--runs"], "runs", 10_000, type="int"),
        _option(["--horizon"], "horizon", 400, type="int"),
        _option(["--trace"], "trace")]),
    "verify": dict(_HELP + _PARAM_OPTIONS + _OUT + _MODE_SEED + [
        _option(["--tol"], "tol", 1e-9, type="float"),
        _option(["--thresholds"], "thresholds", False, nargs=0),
        _option(["--agreement"], "agreement", type="int", metavar="N"),
        _option(["--agreement-csv"], "agreement_csv")]),
    "presets": dict(_HELP + _OUT),
}


def parser_surface(parser):
    """Each subcommand's handler name and options, in PARSER_SURFACE's
    form."""
    commands, = (action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    return {name: (sp.get_default("func").__name__, {
        a.dest: (tuple(a.option_strings), a.default,
                 getattr(a.type, "__name__", a.type),
                 None if a.choices is None else list(a.choices),
                 a.required, a.nargs, a.metavar)
        for a in sp._actions}) for name, sp in commands.items()}


class TestParserSurface:
    def test_surface_pinned(self):
        # every parse, default and refusal follows from this table, so a
        # refactor of the declarations holds it fixed
        assert parser_surface(cli.build_parser()) == {
            name: (f"_cmd_{name}", options)
            for name, options in PARSER_SURFACE.items()}

    def test_simulate_and_verify_share_mode_and_seed(self):
        surface = parser_surface(cli.build_parser())
        for dest in ("mode", "seed"):
            assert surface["simulate"][1][dest] == surface["verify"][1][dest]


def full_argv(command):
    """An argv of ``command`` passing every option PARSER_SURFACE lists but
    --help, each with a value its type and choices accept."""
    argv = [command]
    for dest, (strings, _, type_, choices, _, nargs, _) in \
            PARSER_SURFACE[command].items():
        if dest == "help":
            continue
        value = (choices[-1] if choices
                 else {"float": "0.25", "int": "7"}.get(type_, f"{dest}.out"))
        argv += ([value] if not strings else [strings[-1]] if nargs == 0
                 else [strings[-1], value])
    return argv


class TestOneParserPerArgv:
    """An argv that names a subcommand is parsed by that subcommand's
    parser alone, to the namespace the top-level parser gives less its
    ``command``; any other argv goes to the top-level parser."""

    @pytest.mark.parametrize("argv", [
        *REUSE_COMMANDS.values(), *map(full_argv, PARSER_SURFACE),
        ["classify", "--c-d=3", "--preset", "demo-b", "--c-d", "4"]],
        ids=" ".join)
    def test_subcommand_namespace(self, argv, monkeypatch):
        expected = vars(cli.build_parser().parse_args(argv))
        assert expected.pop("command") == argv[0]

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a subcommand")

        monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
        assert vars(cli._parse(argv)) == expected

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus"], ["figure"], ["classify", "--bogus"],
        ["classify", "--help"]], ids=repr)
    def test_same_bytes_as_top_level_parser(self, argv, monkeypatch, capsys):
        # help exits 0 with text on stdout, a usage error 2 with JSON on
        # stderr, through either parse path alike
        code = run(argv)
        direct = (code, *capsys.readouterr())
        monkeypatch.setattr(cli, "_parse", cli._parser().parse_args)
        code = run(argv)
        assert (code, *capsys.readouterr()) == direct
        code, out, err = direct
        assert (code, bool(out), bool(err)) in ((0, True, False),
                                                 (2, False, True))


# _plain trees: nested lists and str-keyed dicts of strings (non-ASCII and
# control characters included), finite floats (-0.0, subnormals and 1e308
# among them), ints, bools and None
_PLAIN_LEAVES = st.one_of(
    st.text(), st.sampled_from(["", "\x00\x1f\x7f", "é\u2028\U0001f600"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e-7]),
    st.integers(), st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.booleans(), st.none())
_PLAIN_TREES = st.recursive(
    _PLAIN_LEAVES, lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30)


class TestIndentedWriter:
    """``cli._indented`` writes a ``_plain`` tree as the bytes of
    ``json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)`` and
    refuses what json.dumps refuses, with the same exception type."""

    @settings(max_examples=300, deadline=None)
    @given(_PLAIN_TREES)
    def test_matches_json_dumps(self, tree):
        assert cli._indented(tree) == json.dumps(
            tree, indent=2, sort_keys=True, allow_nan=False)

    @pytest.mark.parametrize("value,error", [
        (math.nan, ValueError), (math.inf, ValueError),
        (-math.inf, ValueError), (Fraction(1, 3), TypeError),
        (np.int64(3), TypeError), ({1, 2}, TypeError)], ids=repr)
    def test_refuses_as_json_dumps(self, value, error):
        for tree in (value, [1.0, value], {"a": {"b": [value]}}):
            with pytest.raises(error):
                json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)
            with pytest.raises(error):
                cli._indented(tree)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The ``barriergame`` commands of the sh block under "## Command line"
    in README.md, backslash continuations joined and # comments stripped,
    each as its argv without the program name."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in lines if words[:1] == ["barriergame"]]


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    # every documented command runs as written and writes the files it names
    monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for argv in commands:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
        for flag, value in zip(argv, argv[1:]):
            if flag not in ("-o", "--out", "--csv", "--trace",
                            "--agreement-csv"):
                continue
            path = tmp_path / value
            # a shift figure writes one CSV twin per panel, <stem>-<label>.csv
            twins = list(tmp_path.glob(f"{path.stem}-*{path.suffix}"))
            assert path.exists() or (flag == "--csv" and twins), (argv, flag)
