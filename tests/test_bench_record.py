import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts",
                     "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = {"end_to_end": [{"name": "call_ms_p50", "better": "lower"},
                       {"name": "primary_per_s", "better": "higher"}]}
MACHINE = {"nproc": 2, "python": "3.11.7"}


def record(workload, seed, call_ms, per_s, failures=(), trace=0,
           machine=MACHINE):
    return {"args": {"workload": workload, "seed": seed, "trace": trace,
                     "seconds": 30.0},
            "machine": dict(machine),
            "metrics": {"call_ms_p50": {"value": call_ms, "unit": "ms"},
                        "primary_per_s": {"value": per_s, "unit": "1/s"}},
            "failures": list(failures)}


PARENT = [record("oracle", 3, 5.0, 100.0), record("oracle", 1, 4.0, 110.0),
          record("oracle", 2, 6.0, 90.0, failures=["one check"]),
          record("raster", 7, 1.0, 10.0)]
CHANGE = [record("oracle", 1, 3.0, 120.0), record("oracle", 2, 3.5, 80.0),
          record("oracle", 3, 5.5, 130.0), record("raster", 7, 1.0, 11.0)]


def write_runs(directory, records):
    directory.mkdir()
    for i, rec in enumerate(records):
        (directory / f"result-{i}.json").write_text(json.dumps(rec))
    return str(directory)


class TestBuildRecord:
    def test_statistics_per_metric(self):
        out = bench_record.build_record(PARENT, CHANGE, SPEC, 8, "a change")
        assert out["pr"] == 8 and out["change"] == "a change"
        assert out["machine"] == MACHINE
        assert out["harness"]["command"] == (
            "python3 perfbench/run.py --workload W --seed S --seconds 30 "
            "--trace 0")
        assert sorted(out["workloads"]) == ["oracle", "raster"]
        oracle = out["workloads"]["oracle"]
        assert oracle["seeds"] == [1, 2, 3]
        assert oracle["failed_checks"] == {"parent": 1, "change": 0}
        call = oracle["metrics"]["call_ms_p50"]
        assert call["better"] == "lower"
        assert call["runs"] == {"parent": [4.0, 6.0, 5.0],
                                "change": [3.0, 3.5, 5.5]}
        assert call["parent"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
        assert call["change"] == {"median": 3.5, "q1": 3.25, "q3": 4.5}
        assert call["change_over_parent"] == 3.5 / 5.0
        assert call["parent_iqr"] == 1.0
        assert call["change_wins"] == 2      # seed 3 reads worse
        assert call["pairs"] == 3
        per_s = oracle["metrics"]["primary_per_s"]
        assert per_s["better"] == "higher"
        assert per_s["change_wins"] == 2     # seed 2 reads worse
        # a tie is not a win
        raster = out["workloads"]["raster"]["metrics"]
        assert raster["call_ms_p50"]["change_wins"] == 0
        assert raster["primary_per_s"]["change_wins"] == 1
        assert "traces" not in out

    def test_traced_runs_copied(self):
        traced_p = record("oracle", 1, 0.0, 0.0, trace=1)
        traced_c = record("oracle", 1, 0.0, 0.0, trace=1, failures=["x"])
        out = bench_record.build_record(PARENT + [traced_p],
                                        CHANGE + [traced_c], SPEC, 8, "c")
        traces = out["traces"]["oracle"]
        assert traces["parent"]["1"]["failed_checks"] == 0
        assert traces["change"]["1"] == {"failed_checks": 1,
                                         "call_ms_p50": 0.0,
                                         "primary_per_s": 0.0}
        # traced runs stay out of the paired statistics
        assert out["workloads"]["oracle"]["seeds"] == [1, 2, 3]

    @pytest.mark.parametrize("change,message", [
        (CHANGE[:2] + CHANGE[3:], "ran different seeds"),
        (CHANGE[:3], "workloads differ"),
        (CHANGE[:3] + [record("raster", 7, 1.0, 1.0,
                              machine={"nproc": 4})], "one machine"),
        (CHANGE + [record("raster", 7, 1.0, 1.0)], "recorded twice"),
    ])
    def test_unpaired_runs_refused(self, change, message):
        with pytest.raises(ValueError, match=message):
            bench_record.build_record(PARENT, change, SPEC, 8, "c")


class TestMain:
    def test_writes_bench_file(self, tmp_path):
        spec_path = tmp_path / "BENCHMARK.json"
        spec_path.write_text(json.dumps(SPEC))
        out = tmp_path / "BENCH_8.json"
        code = bench_record.main([
            "--parent", write_runs(tmp_path / "parent", PARENT),
            "--change", write_runs(tmp_path / "change", CHANGE),
            "--pr", "8", "--change-text", "a change", "--seeds-note", "fresh",
            "--benchmark", str(spec_path), "--out", str(out)])
        assert code == 0
        written = json.loads(out.read_text())
        want = bench_record.build_record(PARENT, CHANGE, SPEC, 8, "a change",
                                         "fresh")
        assert written == want
        assert written["harness"]["seeds_note"] == "fresh"

    def test_empty_directory_refused(self, tmp_path, capsys):
        (tmp_path / "parent").mkdir()
        code = bench_record.main([
            "--parent", str(tmp_path / "parent"),
            "--change", write_runs(tmp_path / "change", CHANGE),
            "--pr", "8", "--change-text", "c",
            "--out", str(tmp_path / "BENCH_8.json")])
        assert code == 2
        assert "no run records" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_8.json").exists()
