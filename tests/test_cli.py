"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main
from repro.experiments.artefacts import ARTEFACTS


class TestCLI:
    def test_list(self, capsys):
        # `figure -h` is the listing of experiment IDs
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(exp in out for exp in ARTEFACTS)

    def test_run(self, capsys):
        rc = main(["run", "gzip", "--instructions", "800", "--warmup", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ipc=" in out and "lsq=samie" in out

    def test_run_conventional(self, capsys):
        rc = main(["run", "gzip", "--lsq", "conventional", "--instructions", "500", "--warmup", "100"])
        assert rc == 0
        assert "conventional" in capsys.readouterr().out

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "Cache access time" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_experiments_list_complete(self, capsys):
        # the `figure` choices are the artefact table's keys, in its order
        with pytest.raises(SystemExit):
            main(["figure", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "paper artefact: " + ", ".join(ARTEFACTS) in help_text

    def test_parser_leaves_the_table_unimported(self):
        # `figure` reads its choices when it checks or lists them, so a
        # command that regenerates no artefact (`serve`) starts without
        # importing the table and the runner and store modules behind it
        probe = ("import sys\nfrom repro.cli import main\n"
                 "try:\n    main(['serve', '--help'])\nexcept SystemExit:\n    pass\n"
                 "print('repro.experiments.artefacts' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True).stdout
        assert out.split()[-1] == "False"

    def test_run_unknown_workload(self, capsys):
        # unknown workloads exit cleanly with suggestions, no traceback
        assert main(["run", "quake3"]) == 1
        err = capsys.readouterr().err
        assert "unknown workload" in err and "equake" in err

    def test_run_unknown_scenario_suggests(self, capsys):
        assert main(["run", "scenario:smt_mixx"]) == 1
        assert "did you mean: smt_mix" in capsys.readouterr().err

    def test_run_scenario_spec(self, capsys):
        rc = main(["run", "scenario:aliasing_storm",
                   "--instructions", "500", "--warmup", "100", "--no-cache"])
        assert rc == 0
        assert "ipc=" in capsys.readouterr().out

    def test_scenarios_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "phase_ping_pong" in out and "smt_storm" in out

    def test_workloads_tags_phases_and_interleave(self, capsys):
        assert main(["workloads"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "scenario:phase_tour [3 phases]" in lines
        assert "scenario:smt_mix [2-way interleave/64]" in lines
        assert "scenario:aliasing_storm" in lines

    def test_scenarios_show(self, capsys):
        assert main(["scenarios", "show", "smt_mix"]) == 0
        out = capsys.readouterr().out
        assert '"interleave":64' in out and "bank_conflict" in out

    def test_workloads_verbose_lists_scenarios(self, capsys):
        assert main(["workloads", "--verbose"]) == 0
        assert "scenario:" in capsys.readouterr().out

    def test_run_many_workloads_with_jobs(self, capsys, tmp_path):
        store = tmp_path / "store"
        rc = main(["run", "gzip", "mcf", "--instructions", "500", "--warmup", "100",
                   "--jobs", "2", "--no-cache", "--cache-dir", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workload=gzip" in out and "workload=mcf" in out
        # --no-cache wins over --cache-dir: nothing is written to the store
        assert not store.exists()

    def test_figure_accepts_jobs(self, capsys):
        assert main(["figure", "table1", "--jobs", "4",
                     "--instructions", "500", "--warmup", "100"]) == 0
        assert "Cache access time" in capsys.readouterr().out

    @pytest.mark.parametrize("name,flag", [
        ("REPRO_CACHE", "--no-cache"),
        ("REPRO_CACHE_DIR", "--cache-dir"),
        ("REPRO_INSTR", "--instructions"),
        ("REPRO_WARMUP", "--warmup"),
    ])
    def test_retired_variable_fails_loudly(self, capsys, monkeypatch, name, flag):
        # an old script must not silently run at the default scale or store
        monkeypatch.setenv(name, "100000")
        assert main(["figure", "table1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{name} is no longer read; pass {flag}")
        assert captured.out == ""

    def test_all_shares_one_sweep(self, capsys, monkeypatch):
        from repro.experiments import artefacts, runner

        calls = []
        real = runner.run_spec
        monkeypatch.setattr(runner, "run_spec", lambda s: calls.append(s) or real(s))
        monkeypatch.setattr(artefacts, "ARTEFACTS",
                            {k: ARTEFACTS[k] for k in ("figure5", "figure6")})
        assert main(["all", "--no-cache", "--instructions", "300", "--warmup", "50"]) == 0
        # 26 workloads x (conventional, SAMIE), simulated once for both figures
        assert len(calls) == 52
        assert {(s.instructions, s.warmup) for s in calls} == {(300, 50)}

    def test_second_run_served_from_cache_dir(self, capsys, monkeypatch, tmp_path):
        from repro.experiments import runner

        argv = ["run", "gzip", "mcf", "--instructions", "300", "--warmup", "50",
                "--cache-dir", str(tmp_path / "store")]
        calls = []
        real = runner.run_spec
        monkeypatch.setattr(runner, "run_spec", lambda s: calls.append(s) or real(s))
        assert main(argv) == 0
        assert len(calls) == 2
        calls.clear()
        assert main(argv) == 0
        assert calls == []  # a new session, served entirely from the store


class TestRunSampling:
    """`run --sample-ratio` samples any workload; --check-full needs traces."""

    @pytest.fixture
    def trace(self, tmp_path):
        from repro.trace.workload import record_trace

        path = str(tmp_path / "gzip.uoptrace")
        record_trace(path, "gzip", 12000)
        return "trace:" + path

    def test_sampled_synthetic_run(self, capsys):
        assert main(["run", "swim", "--sample-ratio", "0.1",
                     "--instructions", "2000", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "workload=swim" in out
        assert "sampling: ratio=0.100 windows=2 " in out

    def test_check_full_on_two_traces(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.trace.workload import record_trace

        names = []
        for w in ("gzip", "swim"):
            path = str(tmp_path / f"{w}.uoptrace")
            record_trace(path, w, 12000)
            names.append("trace:" + path)
        sessions = []
        real = cli._session
        monkeypatch.setattr(cli, "_session",
                            lambda args: sessions.append(real(args)) or sessions[-1])
        assert main(["run", *names, "--no-cache", "--sample-ratio", "0.1",
                     "--sample-period", "1000", "--check-full"]) == 0
        out = capsys.readouterr().out
        assert out.count("full_ipc=") == 2
        assert all(f"workload={n}" in out for n in names)
        # two sampled and two full runs, none annotated in the memo
        (session,) = sessions
        memo = list(session._memo.values())
        assert len(memo) == 4
        for res in memo:
            assert "ipc_error_vs_full" not in res.telemetry().get("sampling", {})

    @pytest.mark.parametrize("argv,needle", [
        (["swim", "--sample-ratio", "0.1", "--check-full"],
         "swim is not a trace: workload"),
        (["scenario:tlb_thrash", "--sample-ratio", "0.1", "--check-full"],
         "is not a trace: workload"),
        (["swim", "--check-full"], "pass --sample-ratio too"),
        (["swim", "--sample-ratio", "0.1", "--warmup", "500"], "drop it"),
        (["swim", "--sample-ratio", "0.5"], "nothing to skip"),
        (["swim", "--sample-ratio", "1.5"], "sampling ratio must be in (0, 1)"),
    ], ids=["synthetic", "scenario", "no-ratio", "warmup", "nothing-to-skip",
            "bad-ratio"])
    def test_usage_errors_exit_2(self, capsys, argv, needle):
        assert main(["run", *argv, "--no-cache"]) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--profile"], ["--cycle-trace", "ct.ndjson"]],
                             ids=["profile", "cycle-trace"])
    def test_check_full_rejects_instrumentation(self, trace, capsys, flag):
        assert main(["run", trace, "--sample-ratio", "0.1", "--check-full",
                     *flag]) == 2
        assert "--profile/--cycle-trace" in capsys.readouterr().err


class TestVerifyCLI:
    def test_clean_campaign_exits_zero(self, capsys):
        rc = main(["verify", "--programs", "6", "--jobs", "1", "--grid", "quick",
                   "--no-minimize", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out and "6 programs" in out

    def test_injected_bug_is_selftest_pass(self, capsys):
        rc = main(["verify", "--programs", "12", "--jobs", "1", "--grid", "quick",
                   "--seed", "7", "--inject-bug", "no-store-forwarding"])
        assert rc == 0  # finding the injected bug is the self-test passing
        out = capsys.readouterr().out
        assert "DIVERGENCES" in out and "replay:" in out
        assert "self-test ok" in out

    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = main(["verify", "--programs", "3", "--jobs", "1", "--grid", "quick",
                   "--no-minimize", "--json", str(path)])
        assert rc == 0
        import json

        blob = json.loads(path.read_text())
        assert blob["ok"] is True and blob["programs"] == 3

    def test_replay_clean_seed(self, capsys):
        rc = main(["verify", "--replay", "42", "--profile", "aliasing",
                   "--grid", "quick"])
        assert rc == 0
        assert "no divergence" in capsys.readouterr().out

    def test_replay_with_injected_bug(self, capsys):
        # scan a few seeds for one the fault trips on, then replay it
        from repro.verify.diff import check_program, quick_grid
        from repro.verify.fuzz import program_stream

        hit = None
        for s in program_stream(5, 30):
            if check_program(s.build(), quick_grid(), fault="no-store-forwarding"):
                hit = s
                break
        assert hit is not None
        rc = main(["verify", "--replay", str(hit.seed), "--profile", hit.profile,
                   "--grid", "quick", "--inject-bug", "no-store-forwarding"])
        assert rc == 0  # detecting the injected fault is the self-test passing
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out and "minimized" in out
        assert "self-test ok" in out

    def test_injected_bug_no_selftest_exits_nonzero(self, capsys):
        # the CI gate self-test: with --no-selftest the raw exit code is
        # kept, so an injected bug MUST turn the gate red
        rc = main(["verify", "--programs", "12", "--jobs", "1", "--grid", "quick",
                   "--seed", "7", "--inject-bug", "no-store-forwarding",
                   "--no-selftest", "--no-minimize"])
        assert rc != 0
        assert "DIVERGENCES" in capsys.readouterr().out

    def test_replay_missed_fault_is_selftest_failure(self, capsys):
        # a program the injected fault does NOT trip on: missing the bug
        # must be reported as a self-test failure
        from repro.verify.diff import check_program, quick_grid
        from repro.verify.fuzz import program_stream

        miss = None
        for s in program_stream(5, 30):
            if check_program(s.build(), quick_grid(),
                             fault="no-store-forwarding") is None:
                miss = s
                break
        assert miss is not None
        rc = main(["verify", "--replay", str(miss.seed), "--profile", miss.profile,
                   "--grid", "quick", "--inject-bug", "no-store-forwarding"])
        assert rc == 1
        assert "self-test FAILED" in capsys.readouterr().out


class TestPortFile:
    def test_written_atomically_with_no_temp_left(self, tmp_path):
        import os

        from repro.cli import write_port_file

        target = str(tmp_path / "svc.port")
        write_port_file(target, 8421)
        assert open(target).read() == "8421\n"
        # the temp never survives, and nothing else was created: a
        # watcher can only ever observe the complete file
        assert sorted(os.listdir(tmp_path)) == ["svc.port"]

    def test_overwrite_is_atomic_too(self, tmp_path):
        from repro.cli import write_port_file

        target = str(tmp_path / "svc.port")
        write_port_file(target, 1)
        write_port_file(target, 65535)
        assert open(target).read() == "65535\n"
