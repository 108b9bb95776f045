import contextlib
import importlib.util
import io
import os

from barriergame import cli

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts",
                     "stage_split.py")
_spec = importlib.util.spec_from_file_location("stage_split", _PATH)
stage_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_split)


class TestStages:
    def test_stages_rebuild_the_report_run_prints(self):
        # parse, collect, compute, plain and encode in turn give the bytes
        # the whole call writes
        for command in stage_split.COMMANDS:
            stages = stage_split._stages(command)
            stages["parse"]()
            stages["collect"]()
            text = cli._indented(cli._plain(stages["compute"]())) + "\n"
            assert stages["encode"]() + "\n" == text
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(stage_split._argv(command)) == 0
            assert out.getvalue() == text

    def test_every_stage_timed(self):
        times = stage_split.time_checkout(repeats=2, calls=1)
        assert list(times) == list(stage_split.COMMANDS)
        for stages in times.values():
            assert list(stages) == list(stage_split.STAGES)
            assert all(len(t) == 2 and min(t) > 0 for t in stages.values())

    def test_summary_over_rounds(self):
        def one_round(values):
            return {c: {s: values for s in stage_split.STAGES}
                    for c in stage_split.COMMANDS}

        out = stage_split.summarize([one_round([3.0, 1.0, 2.0]),
                                     one_round([5.0, 4.0, 6.0]),
                                     one_round([9.0, 7.0, 8.0])])
        assert out["classify"]["parse_us"] == {"min": 1.0, "median": 5.0}
        assert set(out["simulate"]) == {f"{s}_us" for s in stage_split.STAGES}
