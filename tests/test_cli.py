import itertools
import json
import os

import pytest

from barriergame import cli
from barriergame.cli import run
from barriergame.params import BarrierDistribution, validate
from barriergame.presets import list_presets


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
        assert strict_json(captured.err)["error"].startswith(
            "finite margins required")

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

    @pytest.mark.parametrize("value", ["4001", "1000000000000", "0", "-3"])
    def test_resolution_cap(self, capsys, monkeypatch, value):
        assert_no_work(monkeypatch, ("_collect_params", "region_grid",
                                     "emit_svg", "emit_csv"))
        code = run(["figure", "regions", "--preset", "demo-b",
                    "-o", "never.svg", "--resolution", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert strict_json(captured.err)["error"] == \
            f"--resolution must lie in 1..4000, got {value}"

    @pytest.mark.parametrize("flag", ["--cr-range", "--cd-range"])
    @pytest.mark.parametrize("text", ["0:inf", "-inf:0", "nan:1",
                                      "-1e308:1e308"])
    def test_nonfinite_range_refused(self, tmp_path, capsys, monkeypatch,
                                     flag, text):
        assert_no_work(monkeypatch, ("_collect_params", "region_grid",
                                     "emit_svg", "emit_csv"))
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

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BARRIERGAME_OUTDIR", str(tmp_path))
        assert run(["figure", "regions", "--preset", "demo-b",
                    "-o", "env.svg", "--resolution", "4"]) == 0
        assert (tmp_path / "env.svg").exists()

    @pytest.mark.parametrize("argv,error", [
        (["regions", "--cr-range", "5"], "--cr-range expects LO:HI, got '5'"),
        (["regions", "--cr-range", "3:1"],
         "--cr-range requires HI > LO, got '3:1'"),
        (["mu-shift", "--values", "x"], "--values expects numbers, got 'x'"),
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
        assert_no_work(monkeypatch, ("_collect_params", "equilibrium_profile",
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

    def test_uniform_dist(self, capsys):
        payload = run_json(capsys, [
            "simulate", "--preset", "demo-b", "--dist", "uniform",
            "--dist-width", "0.2", "--runs", "5", "--horizon", "200"])
        assert payload["distribution"].startswith("Uniform")

    def test_scaled_beta_dist(self, capsys):
        payload = run_json(capsys, [
            "simulate", "--preset", "demo-b", "--dist", "scaled-beta",
            "--dist-concentration", "4", "--runs", "5", "--horizon", "200"])
        assert payload["distribution"] == \
            BarrierDistribution.scaled_beta_with_mean(0.8, 4.0).describe()
        assert payload["distribution"].startswith("ScaledBeta(3.2, ")

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
        assert "theta below floor" in json.loads(captured.err)["error"]


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

    def test_agreement_csv_to_stdout(self, capsys, tmp_path):
        # without --agreement-csv the summary follows the report on stdout
        argv = ["verify", "--preset", "demo-b", "--agreement", "3",
                "--seed", "2"]
        csv_path = tmp_path / "agree.csv"
        report = tmp_path / "report.json"
        assert run([*argv, "--agreement-csv", str(csv_path),
                    "-o", str(report)]) == 0
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == report.read_text() + csv_path.read_text()

    def test_unconverged_postwar_mean_refused(self, capsys):
        # contraction factor (1 - rho) * delta ~ 0.99999: the postwar mean
        # is still moving after the step cap, so no verdict is printed
        for flags in ([], ["--thresholds"]):
            code = run(["verify", "--preset", "demo-b", "--delta", "0.99999",
                        "--rho", "1e-6", *flags])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert strict_json(captured.err) == {
                "error": "invalid parameters",
                "detail": ["postwar_mean: no convergence in 100000 steps"]}


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
     '{"error": "p1 > p required (declining power), got p1=0.7, '
     'p=0.95"}\n'),
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


class TestPresetsCommand:
    def test_listing(self, capsys):
        payload = run_json(capsys, ["presets"])
        names = {p["name"] for p in payload["presets"]}
        assert {"demo-b", "pre-wto", "post-wto"} <= names
        for entry in payload["presets"]:
            assert "not calibrated" in entry["annotation"]

    def test_shipped_presets_validate(self):
        for preset in list_presets():
            assert validate(preset.params).ok

    def test_unknown_preset(self, capsys):
        code = run(["classify", "--preset", "nope"])
        assert code == 2
        assert "unknown preset" in json.loads(capsys.readouterr().err)["error"]


# one invocation of every subcommand, writing each file it can
REUSE_COMMANDS = {
    "thresholds": ["thresholds", "--preset", "demo-b", "--intersection",
                   "-o", "t.json"],
    "classify": ["classify", "--preset", "demo-b", "--c-d", "25"],
    "sweep": ["sweep", "--preset", "demo-b", "--knob", "mu",
              "--values", "0.5,0.7"],
    "figure": ["figure", "mu-shift", "--preset", "demo-b", "-o", "f.svg",
               "--csv", "f.csv", "--resolution", "6"],
    "simulate": ["simulate", "--preset", "demo-b", "--dist", "uniform",
                 "--runs", "5", "--horizon", "40", "--seed", "3",
                 "--trace", "s.jsonl"],
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
