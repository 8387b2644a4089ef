"""CLI and profiling tests."""

import numpy as np
import pytest

from repro.cli import main, parse_matrix_spec
from repro.runtime.profiling import format_profile, profile_schedule


class TestMatrixSpec:
    def test_generators(self):
        assert parse_matrix_spec("lap2d:5").n_rows == 25
        assert parse_matrix_spec("lap3d:3").n_rows == 27
        assert parse_matrix_spec("band:50,3").n_rows == 50
        assert parse_matrix_spec("rand:40,5").n_rows == 40
        assert parse_matrix_spec("pow:40").n_rows == 40
        assert parse_matrix_spec("arrow:30").n_rows == 30

    @pytest.mark.parametrize(
        "spec, form",
        [
            ("band:400", "band:N,BW"),
            ("band:400:4", "band:N,BW"),
            ("lap2d:x", "lap2d:N"),
            ("rand:40,5,3", "rand:N[,NNZ_PER_ROW]"),
            ("lap2d:-3", "lap2d:N"),
            ("lap3d:0", "lap3d:N"),
            ("band:0,4", "band:N,BW"),
            ("pow:-1", "pow:N[,NNZ_PER_ROW]"),
            ("chained:0,5", "chained:BLOCKS,SIZE"),
            ("chained:3,0", "chained:BLOCKS,SIZE"),
        ],
    )
    def test_malformed_generator_spec(self, spec, form, capsys):
        """A generator spec that does not fit its form, or a count
        (``N``, ``BLOCKS``, ``SIZE``) below 1, fails as cleanly as an
        unreadable ``.mtx`` path: one line naming spec and form."""
        assert main(["info", "--matrix", spec]) == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed matrix spec '{spec}': expected {form}\n"

    def test_mtx_path(self, tmp_path, lap2d_small):
        from repro.sparse import write_matrix_market

        p = tmp_path / "m.mtx"
        write_matrix_market(p, lap2d_small)
        back = parse_matrix_spec(str(p))
        assert back.allclose(lap2d_small)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--matrix", "lap2d:8"]) == 0
        out = capsys.readouterr().out
        assert "wavefronts" in out and "n=64" in out

    def test_fuse_and_save(self, tmp_path, capsys):
        p = tmp_path / "s.npz"
        rc = main(
            ["fuse", "--matrix", "lap2d:8", "--combo", "1", "--save", str(p)]
        )
        assert rc == 0
        assert p.exists()
        out = capsys.readouterr().out
        assert "reuse ratio" in out and "s-partitions" in out
        # saved schedule loads and verifies against the right fingerprint
        from repro.fusion import build_combination
        from repro.schedule import load_schedule, pattern_fingerprint
        from repro.sparse import apply_ordering

        a, _ = apply_ordering(parse_matrix_spec("lap2d:8"), "nd")
        kernels, _ = build_combination(1, a)
        fp = pattern_fingerprint(*(k.intra_dag() for k in kernels))
        load_schedule(p, expect_fingerprint=fp)

    def test_health_line_reports_plan_store(self, tmp_path, capsys):
        from repro.schedule import get_default_cache, set_default_cache

        previous = get_default_cache()
        argv = ["fuse", "--matrix", "lap2d:8", "--combo", "3"]
        try:
            for expect in ("0 hit / 1 miss", "1 hit / 0 miss"):
                assert main(argv + ["--inspector-cache", str(tmp_path)]) == 0
                assert f"plan store {expect}" in capsys.readouterr().out
        finally:
            set_default_cache(previous)

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--matrix", "lap2d:8", "--combo", "3", "--threads", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sparse-fusion" in out and "mkl" in out

    def test_gs(self, capsys):
        rc = main(
            ["gs", "--matrix", "lap2d:8", "--unroll", "2", "--tol", "1e-6"]
        )
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_gs_zero_iterations(self, capsys):
        assert main(["gs", "--matrix", "lap2d:6", "--max-iters", "0"]) == 0
        out = capsys.readouterr().out
        assert "NOT converged in 0 iterations\n" in out
        assert "residual" not in out

    def test_natural_ordering_flag(self, capsys):
        assert main(["info", "--matrix", "lap2d:6", "--ordering", "natural"]) == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # a dotted version number, from package metadata or the source tree
        assert out.split()[1][0].isdigit()

    def test_trace_command(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        rc = main(
            [
                "trace",
                "--matrix",
                "lap2d:8",
                "--combo",
                "3",
                "--threads",
                "4",
                "--out",
                str(out),
                "--jsonl",
                str(jsonl),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "pipeline trace" in text and "ico" in text
        doc = json.loads(out.read_text())
        assert {e["pid"] for e in doc["traceEvents"]} == {1, 2}
        assert all(json.loads(line) for line in jsonl.read_text().splitlines())

    def test_fuse_trace_flag(self, tmp_path, capsys):
        import json

        out = tmp_path / "t.json"
        rc = main(
            ["fuse", "--matrix", "lap2d:8", "--combo", "1", "--trace", str(out)]
        )
        assert rc == 0
        names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}
        assert "ico" in names  # live inspector spans made it into the file

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_combo_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuse", "--combo", "9"])

    def test_trace_unwritable_path_is_clear_error(self, tmp_path, capsys):
        bad = tmp_path / "no" / "such" / "dir" / "t.json"
        rc = main(
            ["trace", "--matrix", "lap2d:8", "--combo", "1", "--out", str(bad)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write unified trace")
        assert "Traceback" not in err

    def test_fuse_trace_to_directory_is_clear_error(self, tmp_path, capsys):
        rc = main(
            ["fuse", "--matrix", "lap2d:8", "--combo", "1",
             "--trace", str(tmp_path)]  # a directory, not a file
        )
        assert rc == 2
        assert "error: cannot write" in capsys.readouterr().err


class TestDoctorCommand:
    def test_doctor_combo1(self, capsys):
        rc = main(["doctor", "--matrix", "lap2d:8", "--combo", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schedule doctor" in out and "attribution" in out

    def test_doctor_json_and_trace(self, tmp_path, capsys):
        import json

        jp, tp = tmp_path / "doc.json", tmp_path / "trace.json"
        rc = main(
            ["doctor", "--matrix", "lap2d:8", "--combo", "1",
             "--json", str(jp), "--trace", str(tp), "--top", "2"]
        )
        assert rc == 0
        doc = json.loads(jp.read_text())
        assert "findings" in doc and "attribution" in doc
        assert {e["pid"] for e in json.loads(tp.read_text())["traceEvents"]} == {1, 2}

    def test_compare_doctor_flag(self, capsys):
        rc = main(
            ["compare", "--matrix", "lap2d:8", "--combo", "1",
             "--threads", "4", "--doctor"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sparse-fusion" in out and "schedule doctor" in out

    def test_gs_doctor_flag(self, capsys):
        rc = main(
            ["gs", "--matrix", "lap2d:8", "--tol", "1e-6", "--doctor"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out and "schedule doctor" in out


class TestBenchDiffCommand:
    def test_committed_baselines_pass(self, capsys):
        rc = main(
            ["bench-diff", "--fresh", "benchmarks/results",
             "--bench", "fig9_gauss_seidel"]
        )
        assert rc == 0
        assert "all within tolerance" in capsys.readouterr().out

    def test_injected_regression_fails(self, tmp_path, capsys):
        import json

        base = json.loads(
            open("benchmarks/results/fig9_gauss_seidel.json").read()
        )
        base["summary"]["geomean_vs_parsy"] *= 0.9  # the injected 10% drop
        (tmp_path / "fig9_gauss_seidel.json").write_text(json.dumps(base))
        rc = main(
            ["bench-diff", "--fresh", str(tmp_path),
             "--bench", "fig9_gauss_seidel"]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_fresh_dir_is_clear_error(self, capsys):
        rc = main(["bench-diff", "--fresh", "/no/such/dir"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_fresh_required_without_smoke(self, capsys):
        rc = main(["bench-diff"])
        assert rc == 2
        assert "--fresh" in capsys.readouterr().err


class TestSanitizeCommand:
    def test_sanitize_all_executors_clean(self, capsys):
        rc = main(["sanitize", "--matrix", "lap2d:8", "--combo", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        for executor in ("iter", "plan"):
            assert f"sanitizer[{executor}]: clean" in out

    def test_sanitize_single_executor_and_json(self, tmp_path, capsys):
        import json

        jp = tmp_path / "san.json"
        rc = main(
            ["sanitize", "--matrix", "lap2d:8", "--combo", "3",
             "--executor", "plan", "--json", str(jp)]
        )
        assert rc == 0
        payload = json.loads(jp.read_text())
        assert len(payload) == 1
        assert payload[0]["executor"] == "plan"
        assert payload[0]["clean"] is True

    def test_fuse_sanitize_flag(self, capsys):
        rc = main(
            ["fuse", "--matrix", "lap2d:8", "--combo", "1", "--sanitize"]
        )
        assert rc == 0
        assert "sanitizer" in capsys.readouterr().out

    def test_gs_sanitize_flag(self, capsys):
        rc = main(
            ["gs", "--matrix", "lap2d:8", "--tol", "1e-6", "--sanitize"]
        )
        assert rc == 0
        assert "sanitizer" in capsys.readouterr().out


class TestLocalityCommand:
    def test_locality_summary_and_json(self, tmp_path, capsys):
        import json

        jp = tmp_path / "loc.json"
        rc = main(
            ["locality", "--matrix", "lap2d:8", "--combo", "1",
             "--capacity-lines", "16", "--json", str(jp)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "locality[" in out and "measured ratio selects" in out
        payload = json.loads(jp.read_text())
        assert payload["packing"] in ("interleaved", "separated")
        assert payload["w_partitions"]

    def test_locality_trace_carries_counter_tracks(self, tmp_path, capsys):
        import json

        tp = tmp_path / "trace.json"
        rc = main(
            ["locality", "--matrix", "lap2d:8", "--combo", "1",
             "--trace", str(tp)]
        )
        assert rc == 0
        payload = json.loads(tp.read_text())
        counter_names = {
            e["name"] for e in payload["traceEvents"] if e.get("ph") == "C"
        }
        assert "executor.locality.hit_rate" in counter_names
        assert payload["otherData"]["locality"]["packing"]

    def test_doctor_locality_flag(self, capsys):
        rc = main(
            ["doctor", "--matrix", "lap2d:8", "--combo", "5", "--locality"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "locality[" in out and "schedule doctor" in out


class TestInputArtifactErrors:
    def test_missing_matrix_file_is_clear_error(self, capsys):
        rc = main(["info", "--matrix", "/no/such/file.mtx"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read matrix")
        assert "Traceback" not in err

    def test_matrix_directory_is_clear_error(self, tmp_path, capsys):
        rc = main(["fuse", "--matrix", str(tmp_path / "d.mtx")])
        assert rc == 2
        assert "error: cannot read matrix" in capsys.readouterr().err

    def test_malformed_matrix_file_is_clear_error(self, tmp_path, capsys):
        p = tmp_path / "garbage.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\nnope\n")
        rc = main(["info", "--matrix", str(p)])
        assert rc == 2
        assert "error: cannot read matrix" in capsys.readouterr().err

    def test_corrupt_bench_results_json_is_clear_error(self, tmp_path, capsys):
        (tmp_path / "fig9_gauss_seidel.json").write_text("{not json")
        rc = main(
            ["bench-diff", "--fresh", str(tmp_path),
             "--bench", "fig9_gauss_seidel"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot read benchmark results" in err
        assert "Traceback" not in err

    def test_wrong_shape_bench_results_json_is_clear_error(
        self, tmp_path, capsys
    ):
        # Valid JSON, wrong shape: a list (e.g. a sanitize report dropped
        # into the results dir) must not raise AttributeError downstream.
        (tmp_path / "fig9_gauss_seidel.json").write_text("[{\"clean\": true}]")
        rc = main(
            ["bench-diff", "--fresh", str(tmp_path),
             "--bench", "fig9_gauss_seidel"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot read benchmark results" in err
        assert "expected a results object" in err
        assert "Traceback" not in err


class TestProfiling:
    def test_profile_fields(self, lap2d_nd):
        from repro import fuse
        from repro.fusion import build_combination

        kernels, _ = build_combination(1, lap2d_nd)
        fl = fuse(kernels, 4)
        prof = profile_schedule(fl.schedule, kernels)
        assert prof.n_vertices == 2 * lap2d_nd.n_rows
        assert prof.n_barriers == prof.n_spartitions - 1
        assert prof.parallelism_bound >= 1.0
        assert prof.span <= prof.total_cost
        assert all(im >= 1.0 for im in prof.imbalance)

    def test_format_contains_key_lines(self, lap2d_nd):
        from repro import fuse
        from repro.fusion import build_combination

        kernels, _ = build_combination(3, lap2d_nd)
        fl = fuse(kernels, 4)
        text = format_profile(profile_schedule(fl.schedule, kernels), name="x")
        assert "s-partitions" in text and "parallelism bound" in text

    def test_sequential_schedule_profile(self, lap2d_nd):
        from repro.baselines import sequential_schedule
        from repro.kernels import SpMVCSR

        k = SpMVCSR(lap2d_nd)
        prof = profile_schedule(sequential_schedule(k), [k])
        assert prof.parallelism_bound == pytest.approx(1.0)
        assert prof.mean_width == 1.0
