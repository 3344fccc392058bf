"""Tests for the command-line interface."""

import cProfile
import pstats

import pytest

from repro.cli import _dump_profile, main


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "clamp.c"
    path.write_text(
        "int clamp(int x) { if (x < 0) return 0; "
        "if (x > 255) return 255; return x; }"
    )
    return str(path)


class TestCompile:
    def test_prints_rtl(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "=== clamp" in out
        assert "RET;" in out

    def test_sequence_applied(self, source_file, capsys):
        assert main(["compile", source_file, "--sequence", "sriu"]) == 0
        out = capsys.readouterr().out
        assert "active:" in out

    def test_batch(self, source_file, capsys):
        assert main(["compile", source_file, "--batch"]) == 0
        assert "active:" in capsys.readouterr().out

    def test_unknown_phase_rejected(self, source_file):
        with pytest.raises(SystemExit, match="unknown phase"):
            main(["compile", source_file, "--sequence", "zz"])

    def test_benchmark_address(self, capsys):
        assert main(["compile", "bench:sha", "--function", "rol"]) == 0
        assert "rol" in capsys.readouterr().out

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["compile", "/does/not/exist.c"])

    def test_compile_error_reported(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int f(void) { return undeclared_thing; }")
        with pytest.raises(SystemExit, match="undeclared"):
            main(["compile", str(bad)])


class TestRun:
    def test_runs_function(self, source_file, capsys):
        assert main(["run", source_file, "--entry", "clamp", "--args", "300"]) == 0
        out = capsys.readouterr().out
        assert "value: 255" in out
        assert "dynamic instructions:" in out

    def test_benchmark_default_entry(self, capsys):
        assert main(["run", "bench:jpeg"]) == 0
        assert "value: 5104" in capsys.readouterr().out

    def test_batch_flag_preserves_value(self, capsys):
        assert main(["run", "bench:jpeg", "--batch"]) == 0
        assert "value: 5104" in capsys.readouterr().out

    def test_entry_required_for_files(self, source_file):
        with pytest.raises(SystemExit, match="--entry required"):
            main(["run", source_file])


class TestEnumerate:
    def test_prints_table_row(self, source_file, capsys):
        assert main(["enumerate", source_file, "--function", "clamp"]) == 0
        out = capsys.readouterr().out
        assert "FnInst" in out
        assert "clamp" in out

    def test_dot_output(self, source_file, tmp_path, capsys):
        dot = tmp_path / "space.dot"
        assert (
            main(
                [
                    "enumerate",
                    source_file,
                    "--function",
                    "clamp",
                    "--dot",
                    str(dot),
                ]
            )
            == 0
        )
        text = dot.read_text()
        assert text.startswith("digraph space {")
        assert "->" in text

    def test_unknown_function(self, source_file):
        with pytest.raises(SystemExit, match="no function"):
            main(["enumerate", source_file, "--function", "nope"])

    def test_profile_writes_stats(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = ["enumerate", "bench:sha", "--function", "rol", "--profile"]
        assert main(argv + ["--run-dir", str(run_dir)]) == 0
        assert "rol" in capsys.readouterr().out
        assert (run_dir / "profile.pstats").stat().st_size > 0
        assert "cumulative" in (run_dir / "profile.txt").read_text()

    def test_profile_covers_pool_workers(self, tmp_path, capsys):
        # --jobs takes the worker-pool path: the enumeration runs in a
        # worker, whose profile is merged with the coordinator's
        run_dir = tmp_path / "run"
        argv = ["enumerate", "bench:jpeg", "--function", "descale", "--jobs", "2"]
        assert main(argv + ["--profile", "--run-dir", str(run_dir)]) == 0
        assert "descale" in capsys.readouterr().out
        stats = pstats.Stats(str(run_dir / "profile.pstats"))
        names = {name for _, _, name in stats.stats}
        assert {"enumerate_function", "_drive"} <= names  # worker and coordinator
        assert "opt/flat/" in (run_dir / "profile.txt").read_text()

    def test_profile_skips_an_empty_worker_profile(self, tmp_path):
        # a lease whose profiler never started posts an empty stats
        # dict, which pstats cannot load
        profiler = cProfile.Profile()
        profiler.enable()
        sorted(range(10))
        profiler.disable()
        _dump_profile(profiler, str(tmp_path), [{}])
        assert "sorted" in (tmp_path / "profile.txt").read_text()


class TestEnumerateRobustness:
    def test_validate_flag(self, source_file, capsys):
        assert (
            main(
                ["enumerate", source_file, "--function", "clamp", "--validate"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantine: no phase applications rejected" in out

    def test_difftest_flag(self, source_file, capsys):
        assert (
            main(
                ["enumerate", source_file, "--function", "clamp", "--difftest"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantine: no phase applications rejected" in out

    def test_fault_injection_reports_quarantine(self, source_file, capsys):
        assert (
            main(
                [
                    "enumerate",
                    source_file,
                    "--function",
                    "clamp",
                    "--validate",
                    "--inject-faults",
                    "0.2",
                    "--fault-seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault injection:" in out
        assert "quarantine:" in out

    def test_checkpoint_and_resume(self, source_file, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        assert (
            main(
                [
                    "enumerate",
                    source_file,
                    "--function",
                    "clamp",
                    "--max-nodes",
                    "5",
                    "--checkpoint",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "aborted: max_nodes" in out
        assert "state saved" in out
        assert path.exists()
        assert (
            main(
                [
                    "enumerate",
                    source_file,
                    "--function",
                    "clamp",
                    "--checkpoint",
                    str(path),
                    "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"resumed from {path}" in out
        assert "aborted" not in out
        assert not path.exists()  # removed once the space completes

    def test_resume_requires_checkpoint(self, source_file):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["enumerate", source_file, "--function", "clamp", "--resume"])


class TestSearchAndMisc:
    def test_search(self, source_file, capsys):
        assert (
            main(
                [
                    "search",
                    source_file,
                    "--function",
                    "clamp",
                    "--generations",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "best sequence" in out
        assert "code size" in out

    def test_search_alternate_strategy(self, source_file, capsys):
        assert (
            main(
                [
                    "search",
                    source_file,
                    "--function",
                    "clamp",
                    "--strategy",
                    "random",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert ": random" in out
        assert "phases attempted" in out

    def test_search_policy_strategy(self, source_file, capsys):
        assert (
            main(
                [
                    "search",
                    source_file,
                    "--function",
                    "clamp",
                    "--strategy",
                    "policy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert ": policy" in out

    def test_search_rejects_unknown_strategy(self, source_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "search",
                    source_file,
                    "--function",
                    "clamp",
                    "--strategy",
                    "alchemy",
                ]
            )

    def test_search_bench_quick_subset(self, tmp_path, capsys):
        out_path = tmp_path / "search.json"
        assert (
            main(
                [
                    "search-bench",
                    "--functions",
                    "jpeg.descale",
                    "--strategies",
                    "random",
                    "--trials",
                    "1",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "jpeg.descale" in out
        assert "random" in out
        import json

        leaderboard = json.loads(out_path.read_text())
        assert leaderboard["functions"]["jpeg.descale"]["strategies"]["random"][
            "beats_oracle"
        ] is False

    def test_search_bench_rejects_bad_function(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "search-bench",
                    "--functions",
                    "jpeg.not_a_function",
                    "--strategies",
                    "random",
                    "--trials",
                    "1",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )

    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("bitcount", "dijkstra", "fft", "jpeg", "sha", "stringsearch"):
            assert name in out

    def test_interactions(self, source_file, capsys):
        assert (
            main(
                [
                    "interactions",
                    source_file,
                    "--max-nodes",
                    "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Enabling" in out
        assert "Independence" in out

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["run", "bench:nope"])


class TestParallelFlags:
    def test_jobs_output_matches_serial(self, capsys):
        assert main(["enumerate", "bench:jpeg", "--function", "descale"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(["enumerate", "bench:jpeg", "--function", "descale", "--jobs", "2"])
            == 0
        )
        assert capsys.readouterr().out == serial_out

    def test_fault_injection_output_matches_serial(self, capsys):
        """Table row, fault-injection line and quarantine report alike."""
        base = ["enumerate", "bench:sha", "--function", "rol", "--validate",
                "--inject-faults", "0.2", "--fault-seed", "7"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert "fault injection: " in serial_out
        assert main(base + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_store_caches_between_runs(self, tmp_path, capsys):
        store = str(tmp_path / "spaces")
        argv = [
            "enumerate", "bench:jpeg", "--function", "descale",
            "--jobs", "2", "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "1 miss(es)" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "1 hit(s)" in second.err
        assert "(resumed from store:" in second.out
        # the table itself is identical either way
        assert first.out.splitlines()[:2] == second.out.splitlines()[:2]

    def test_difftest_with_jobs(self, capsys):
        assert (
            main([
                "enumerate", "bench:jpeg", "--function", "descale",
                "--jobs", "2", "--difftest",
            ])
            == 0
        )
        out = capsys.readouterr().out
        assert "no phase applications" in out  # empty quarantine report

    def test_run_dir_resume_after_abort(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        base = ["enumerate", "bench:sha", "--function", "rol", "--jobs", "2",
                "--run-dir", run_dir]
        assert main(base + ["--max-nodes", "20"]) == 0
        out = capsys.readouterr().out
        assert "(aborted: max_nodes)" in out
        assert "--resume to continue" in out
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "(resumed from" in out
        assert "aborted" not in out

    def test_checkpoint_conflicts_with_jobs(self, tmp_path):
        with pytest.raises(SystemExit, match="run-dir"):
            main([
                "enumerate", "bench:sha", "--function", "rol",
                "--jobs", "2", "--checkpoint", str(tmp_path / "c.json"),
            ])

    def test_interactions_with_jobs_and_store(self, tmp_path, capsys):
        store = str(tmp_path / "spaces")
        argv = [
            "interactions", "bench:jpeg", "--functions", "descale,rgb_to_y",
            "--jobs", "2", "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Enabling" in first.out
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "cached" in second.err
        assert second.out == first.out


class TestSanitizeAndLint:
    def test_sanitize_prints_summary_and_preserves_row(self, capsys):
        assert main(["enumerate", "bench:jpeg", "--function", "descale"]) == 0
        plain = capsys.readouterr().out
        assert (
            main([
                "enumerate", "bench:jpeg", "--function", "descale",
                "--sanitize",
            ])
            == 0
        )
        sanitized = capsys.readouterr().out
        assert "sanitizer (full):" in sanitized
        assert "0 findings, 0 contract violations" in sanitized
        assert "0 unverified, 0 refuted" in sanitized
        # the Table-3 row itself is untouched by sanitizing
        assert sanitized.splitlines()[:2] == plain.splitlines()[:2]

    def test_sanitize_parallel_matches_serial(self, capsys):
        base = ["enumerate", "bench:jpeg", "--function", "descale",
                "--sanitize=fast"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_lint_benchmark_clean(self, capsys):
        assert main(["lint", "bench:sha"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_ir_dump_infers_metadata(self, tmp_path, capsys):
        from repro.core.batch import BatchCompiler
        from repro.ir.printer import format_function
        from repro.programs import compile_benchmark
        from repro.opt import implicit_cleanup

        program = compile_benchmark("jpeg")
        func = program.functions["descale"]
        implicit_cleanup(func)
        BatchCompiler().compile(func)
        path = tmp_path / "descale.ir"
        path.write_text(format_function(func))
        # a clean dump lints clean: pseudo/frame/arity metadata is
        # inferred from the code, not taken from the zero defaults
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
        # a corrupted dump is caught with the right code
        bad = tmp_path / "bad.ir"
        bad.write_text(path.read_text().replace("r[4]", "r[99]", 1))
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "MACH003" in out

    def test_lint_run_dir(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert (
            main([
                "enumerate", "bench:jpeg", "--function", "descale",
                "--run-dir", run_dir, "--max-nodes", "10",
            ])
            == 0
        )
        capsys.readouterr()
        assert main(["lint", run_dir]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
