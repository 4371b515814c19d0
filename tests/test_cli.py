"""CLI smoke tests for every subcommand."""

import os
from collections import Counter

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig4", "--scale", "0.1"])
        assert args.fig == "fig4" and args.scale == 0.1

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_bounds(self, capsys):
        assert main(["bounds", "--memory", "21", "--t", "10"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "optimality gap" in out

    def test_run_with_gantt(self, capsys):
        rc = main(
            ["run", "--algorithm", "Hom", "--platform", "memory-het",
             "--scale", "0.05", "--gantt"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "port" in out

    def test_figure_subset(self, capsys):
        rc = main(["figure", "fig4", "--scale", "0.06", "--algorithms", "Hom,BMM"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "relative cost" in out and "BMM" in out

    def test_summary(self, capsys):
        rc = main(["summary", "--scale", "0.06", "--figures", "fig4"])
        assert rc == 0
        assert "Figure 9 summary" in capsys.readouterr().out

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "memory" in out.lower() or "P1" in out

    def test_run_explicit_grid(self, capsys):
        rc = main(
            ["run", "--algorithm", "ODDOML", "--platform", "comp-het",
             "--scale", "0.05", "--r", "6", "--t", "5", "--s", "12"]
        )
        assert rc == 0
        assert "enrolled" in capsys.readouterr().out


class TestNewCommands:
    def test_sweep(self, capsys):
        rc = main(["sweep", "--scale", "0.08", "--ratios", "1.5,3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Het/bound" in out

    def test_run_save_and_reload(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        rc = main(
            ["run", "--algorithm", "Hom", "--platform", "memory-het",
             "--scale", "0.05", "--save", str(target)]
        )
        assert rc == 0
        import json

        doc = json.loads(target.read_text())
        assert doc["makespan"] > 0 and doc["port_events"]

    def test_run_platform_file(self, tmp_path, capsys):
        from repro.platform.model import Platform
        from repro.utils.persist import save_platform

        plat_file = tmp_path / "plat.json"
        save_platform(Platform.homogeneous(3, 0.01, 0.01, 96), plat_file)
        rc = main(
            ["run", "--algorithm", "ODDOML", "--platform-file", str(plat_file),
             "--r", "6", "--t", "5", "--s", "12"]
        )
        assert rc == 0
        assert "enrolled" in capsys.readouterr().out


class TestEngineFlag:
    def test_unknown_engine_rejected(self):
        # run always replays with full traces; no subcommand takes an
        # engine switch
        for engine in ("fast", "reference", "batch", "warp"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--engine", engine])
        for cmd in (["figure", "fig4"], ["summary"], ["sweep"], ["profile"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(cmd + ["--engine", "fast"])


class TestKernelFlag:
    """``--kernel`` picks the backend of the whole process: the planning
    searches (HomI's threshold search, Het's variant scoring) step on it
    as well as the final replays."""

    @staticmethod
    def _count_kernel_calls(monkeypatch) -> Counter:
        """Count whole-run kernel calls per backend name."""
        from repro.sim.kernels import KernelBackend

        calls: Counter = Counter()
        for cls in (KernelBackend, *KernelBackend.__subclasses__()):
            for method in ("strict_run", "ready_run"):
                original = getattr(cls, method)

                def counted(self, *args, _original=original):
                    calls[self.name] += 1
                    return _original(self, *args)

                monkeypatch.setattr(cls, method, counted)
        return calls

    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    def test_flag_reaches_planning(self, kernel, monkeypatch, capsys):
        from repro.sim.kernels import KERNEL_ENV, KernelUnavailable, get_backend

        if kernel == "c":
            try:
                get_backend("c").ensure_ready()
            except KernelUnavailable:
                pytest.skip("the C kernels do not build here")
        # undo the flag's write to the environment at teardown
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        calls = self._count_kernel_calls(monkeypatch)
        assert main(["figure", "fig4", "--scale", "0.1", "--kernel", kernel]) == 0
        assert "HomI" in capsys.readouterr().out
        if kernel == "numpy":
            assert sum(calls.values()) == 0, calls
        else:
            assert calls["c"] > 0, calls

    def test_removed_backend_is_rejected(self, monkeypatch, capsys):
        """``python`` is no backend any more: argparse rejects the flag
        with its usage error before anything runs."""
        from repro.sim.kernels import KERNEL_ENV

        monkeypatch.delenv(KERNEL_ENV, raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig4", "--kernel", "python"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'python'" in err and "usage:" in err
        assert KERNEL_ENV not in os.environ

    @pytest.mark.parametrize(
        "argv",
        [
            ["dynamic", "--scale", "0.1", "--severities", "4",
             "--algorithms", "Hom,Het", "--modes", "oblivious,reselect"],
            ["serve", "--hom", "3:1:1:45", "--jobs", "2", "--q", "4",
             "--r", "4", "--t", "4", "--s", "8", "--algorithm", "HomI"],
        ],
        ids=["dynamic", "serve"],
    )
    def test_every_subcommand_takes_the_flag(self, argv, monkeypatch, capsys):
        from repro.sim.kernels import KERNEL_ENV

        monkeypatch.delenv(KERNEL_ENV, raising=False)
        calls = self._count_kernel_calls(monkeypatch)
        assert main(argv + ["--kernel", "numpy"]) == 0
        capsys.readouterr()
        assert sum(calls.values()) == 0, calls

    def test_flag_is_defined_once_for_every_subcommand(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        for name, sp in sub.choices.items():
            flags = [o for a in sp._actions for o in a.option_strings]
            assert flags.count("--kernel") == 1, name
            assert flags.count("--trace") == 1, name


class TestProfileAndTrace:
    @staticmethod
    def _phase_rows(out: str) -> dict[str, tuple[float, float]]:
        rows = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1].replace(".", "", 1).isdigit():
                rows[parts[0]] = (float(parts[1]), float(parts[2].rstrip("%")))
        return rows

    def test_profile_figure_table(self, capsys):
        assert main(["profile", "--figure", "fig4", "--scale", "0.06"]) == 0
        out = capsys.readouterr().out
        rows = self._phase_rows(out)
        for phase in ("planning", "simulation", "cache", "other", "total"):
            assert phase in rows, out
        total = rows["total"][0]
        accounted = sum(secs for name, (secs, _s) in rows.items() if name != "total")
        # the phase rows (including "other") must account for the run
        assert accounted == pytest.approx(total, rel=0.05)
        assert "plan.seconds" in out

    def test_profile_dynamic_table(self, capsys):
        rc = main(
            ["profile", "--dynamic", "straggler-onset", "--severity", "4",
             "--scale", "0.1", "--modes", "oblivious,adaptive"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "straggler-onset" in out
        assert "planning" in out and "simulation" in out

    def test_profile_defaults_to_fig7(self):
        args = build_parser().parse_args(["profile"])
        assert args.figure is None and args.dynamic is None
        assert args.scale == 0.3

    def test_profile_figure_dynamic_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "--figure", "fig4", "--dynamic", "straggler-onset"]
            )

    def test_trace_flag_writes_perfetto_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        rc = main(["figure", "fig4", "--scale", "0.05", "--trace", str(path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "perfetto" in err.lower()
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must contain span events"
        names = {e["name"] for e in events}
        assert {"repro-mm", "figure", "experiment", "plan"} <= names
        assert all(e["ph"] == "X" for e in events)

    def test_repro_trace_env_enables_tracing(self, tmp_path, monkeypatch):
        import json

        path = tmp_path / "env_trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(["bounds", "--memory", "21", "--t", "10"]) == 0
        doc = json.loads(path.read_text())
        assert [e["name"] for e in doc["traceEvents"]] == ["repro-mm"]

    def test_no_tracer_leaks(self, tmp_path):
        from repro.obs import tracing_enabled

        path = tmp_path / "t.json"
        main(["figure", "fig4", "--scale", "0.05", "--trace", str(path)])
        assert not tracing_enabled()


class TestServeAndExecute:
    def test_run_execute_reports_error_bound(self, capsys):
        rc = main(
            ["run", "--algorithm", "Hom", "--platform", "memory-het",
             "--scale", "0.05", "--q", "4", "--execute"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "threaded execution" in out
        assert "max |err|" in out

    def test_serve_hom_pool(self, capsys):
        rc = main(
            ["serve", "--hom", "4:1:1:45", "--jobs", "2", "--q", "4",
             "--r", "4", "--t", "4", "--s", "8", "--algorithm", "Hom"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs/s" in out
        assert "max |err|" in out

    def test_serve_serial_baseline(self, capsys):
        rc = main(
            ["serve", "--hom", "3:1:1:45", "--jobs", "2", "--q", "4",
             "--r", "4", "--t", "4", "--s", "8", "--serial",
             "--algorithm", "Hom"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serial baseline" in out
        assert "concurrent         : 1" in out or "jobs/s" in out

    def test_serve_named_platform(self, capsys):
        rc = main(
            ["serve", "--platform", "memory-het", "--scale", "0.1",
             "--jobs", "2", "--q", "4", "--r", "4", "--t", "4", "--s", "8"]
        )
        assert rc == 0
        assert "max |err|" in capsys.readouterr().out

    def test_serve_rejects_malformed_hom(self, capsys):
        rc = main(["serve", "--hom", "nonsense"])
        assert rc == 2
        assert "P:C:W:M" in capsys.readouterr().err

    def test_serve_rejects_zero_jobs(self, capsys):
        rc = main(["serve", "--hom", "3:1:1:45", "--jobs", "0"])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err
