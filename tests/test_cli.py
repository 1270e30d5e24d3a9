"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestAnalyze:
    def test_analyze_prints_model(self, capsys):
        assert main(["analyze", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void hotspot" in out
        assert "partitionable:    True" in out
        assert "read  temp_in" in out and "write temp_out" in out

    def test_analyze_writes_model(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["analyze", "matmul", "--model-out", str(path)]) == 0
        assert path.exists()
        from repro.compiler.model import AppModel

        assert AppModel.load(path).get("matmul").partitionable


class TestRun:
    @pytest.mark.parametrize("workload", ["hotspot", "nbody", "matmul"])
    def test_run_bitwise_ok(self, workload, capsys):
        assert main(["run", workload, "--gpus", "3"]) == 0
        out = capsys.readouterr().out
        assert "bitwise equal" in out

    def test_run_custom_size(self, capsys):
        assert main(["run", "matmul", "--gpus", "2", "--size", "32"]) == 0


class TestBench:
    def test_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "36864" in capsys.readouterr().out

    def test_figure6_tiny(self, capsys):
        assert (
            main(["bench", "figure6", "--gpu-counts", "1", "2", "--sizes", "small"]) == 0
        )
        out = capsys.readouterr().out
        assert "Speedup" in out and "hotspot" in out

    def test_overhead(self, capsys):
        assert main(["bench", "overhead", "--sizes", "small"]) == 0
        assert "Slowdown" in capsys.readouterr().out

    def test_schedules_bare_json_in_empty_cwd(self, tmp_path, monkeypatch, capsys):
        """Bare ``--json`` creates the default results directory itself."""
        import json

        from repro.harness import experiments
        from repro.harness.experiments import SchedulePoint

        point = SchedulePoint("hotspot", "small", 4, "overlap", 0.5, 1.0, 0.2, 0.1)
        monkeypatch.setattr(experiments, "schedule_comparison", lambda **kw: [point])
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "schedules", "--json"]) == 0
        written = tmp_path / "benchmarks" / "results" / "schedule_comparison.json"
        doc = json.loads(written.read_text())
        assert doc == [
            {
                "workload": "hotspot",
                "size": "small",
                "n_gpus": 4,
                "schedule": "overlap",
                "time": 0.5,
                "reference": 1.0,
                "speedup": 2.0,
                "hidden_transfer_time": 0.2,
                "exposed_transfer_time": 0.1,
            }
        ]
        assert "Schedule comparison" in capsys.readouterr().out


class TestMachine:
    def test_machine_table(self, capsys):
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        assert "n_gpus" in out and "pcie_bw" in out


class TestLint:
    def test_lint_workload_clean(self, capsys):
        assert main(["lint", "matmul", "--no-replay"]) == 0
        out = capsys.readouterr().out
        assert "error(s)" in out and "0 error(s)" in out

    def test_lint_json_validates_against_schema(self, capsys):
        import json

        from repro.analysis import validate_report_json

        assert main(["lint", "matmul", "--no-replay", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_report_json(doc)
        assert doc["summary"]["errors"] == 0

    def test_lint_fail_on_advice(self, capsys):
        # The builtin workloads carry advisory findings (RP204/RP205/RP206),
        # so lowering the threshold to advice must fail the run ...
        assert main(["lint", "matmul", "--no-replay", "--fail-on", "advice"]) == 1
        capsys.readouterr()
        # ... while `--fail-on never` always exits 0.
        assert main(["lint", "matmul", "--no-replay", "--fail-on", "never"]) == 0

    def test_lint_unknown_workload(self, capsys):
        assert main(["lint", "nonsense"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestErrors:
    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestExitCodes:
    """Every concrete error class maps to its own distinct CLI exit code."""

    @staticmethod
    def _error_classes():
        import repro.errors as er

        classes = []
        stack = [er.ReproError]
        while stack:
            cls = stack.pop()
            classes.append(cls)
            stack.extend(cls.__subclasses__())
        return classes

    def test_exit_codes_distinct_and_nonzero(self):
        classes = self._error_classes()
        codes = {cls: cls.exit_code for cls in classes}
        assert all(isinstance(c, int) and c > 1 for c in codes.values())
        assert len(set(codes.values())) == len(codes), codes

    def test_exit_code_for_maps_instances(self):
        from repro.errors import ReproError, exit_code_for

        for cls in self._error_classes():
            exc = cls("boom")
            assert exit_code_for(exc) == cls.exit_code
        assert exit_code_for(ValueError("x")) == 1
        assert issubclass(ReproError, Exception)

    @pytest.mark.parametrize(
        "error_name, expected",
        [
            ("ValidationError", 21),
            ("PartitioningError", 40),
            ("InjectivityError", 41),
            ("LintError", 31),
            ("TrackerError", 62),
            ("TaskGraphError", 82),
        ],
    )
    def test_main_maps_repro_errors(self, monkeypatch, capsys, error_name, expected):
        import repro.cli as cli
        import repro.errors as er

        exc_cls = getattr(er, error_name)

        def boom(args):
            raise exc_cls("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_machine", boom)
        assert main(["machine"]) == expected
        assert "synthetic failure" in capsys.readouterr().err

    def test_injectivity_error_carries_diagnostic_code(self):
        from repro.errors import InjectivityError, format_with_code

        exc = InjectivityError("write map not injective")
        assert exc.diagnostic_code == "RP201"
        assert format_with_code(exc) == "RP201 write map not injective"
