"""High-level API and CLI tests."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import analyze_source, compile_source, summarize_patterns
from repro.cli import main
from repro.errors import ValidationError

SRC = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""


class TestApi:
    def test_compile_source(self):
        program = compile_source(SRC)
        assert program.has_function("total")

    def test_compile_rejects_invalid(self):
        with pytest.raises(ValidationError):
            compile_source("void f() { x = 1; }")

    def test_analyze_source(self):
        result = analyze_source(SRC, entry="total", arg_sets=[[np.ones(16), 16]])
        assert summarize_patterns(result) == "Reduction"

    def test_multiple_arg_sets_merge(self):
        result = analyze_source(
            SRC, entry="total", arg_sets=[[np.ones(8), 8], [np.ones(32), 32]]
        )
        assert result.profile.runs == 2

    def test_import_does_not_load_the_service(self):
        def loaded(module, prefixes):
            code = (
                f"import sys, {module}; "
                f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
            )
            return subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            ).stdout.strip()

        assert loaded("repro", ("repro.service",)) == "[]"
        # the job helpers (build_call_args) do not pull in the daemon
        assert loaded(
            "repro.service.jobs", ("repro.service.server", "http.server")
        ) == "[]"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fib" in out and "streamcluster" in out

    def test_bench(self, capsys):
        assert main(["bench", "reg_detect", "--no-source"]) == 0
        out = capsys.readouterr().out
        assert "Multi-loop pipeline" in out
        assert "Simulated best speedup" in out

    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "total.minic"
        path.write_text(SRC)
        code = main(
            [
                "analyze",
                str(path),
                "--entry",
                "total",
                "--rand",
                "A:32",
                "--scalar",
                "32",
                "--no-source",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Primary pattern: Reduction" in out

    def test_profile_then_detect(self, tmp_path, capsys):
        """The DiscoPoP two-phase workflow: instrumented run -> file ->
        detection over the saved profile."""
        src_path = tmp_path / "total.minic"
        src_path.write_text(SRC)
        profile_path = tmp_path / "total.profile.json"
        assert (
            main(
                [
                    "profile",
                    str(src_path),
                    "--entry",
                    "total",
                    "--rand",
                    "A:32",
                    "--scalar",
                    "32",
                    "-o",
                    str(profile_path),
                    "--no-cache",
                ]
            )
            == 0
        )
        assert profile_path.exists()
        out = capsys.readouterr().out
        assert "(instrumented run)" in out and "dependence records" in out
        assert (
            main(
                [
                    "detect",
                    str(src_path),
                    "--profile",
                    str(profile_path),
                    "--no-source",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Primary pattern: Reduction" in out

    def test_table3_summary(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert out.count("|") > 50
        for name in ("fib", "kmeans", "streamcluster"):
            assert name in out

    def test_experiments_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        assert main(["experiments", "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "Table VI" in text
        assert "| NO |" not in text  # every label matches

    def test_analyze_json(self, tmp_path, capsys):
        from repro.patterns.schema import SCHEMA_VERSION, analysis_from_dict
        from repro.patterns.engine import summarize_patterns

        path = tmp_path / "total.minic"
        path.write_text(SRC)
        base = ["analyze", str(path), "--entry", "total",
                "--rand", "A:32", "--scalar", "32"]
        assert main(base + ["--json"]) == 0
        pretty = capsys.readouterr().out
        doc = json.loads(pretty)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert summarize_patterns(analysis_from_dict(doc)) == "Reduction"
        # compact mode: one line, same document (modulo the re-run's
        # trace wall-clock, which is telemetry, not analysis output)
        assert main(base + ["--json", "--compact"]) == 0
        compact = capsys.readouterr().out
        assert compact.count("\n") == 1
        doc2 = json.loads(compact)
        doc.pop("trace"), doc2.pop("trace")
        assert doc2 == doc

    def test_detect_json_keeps_stdout_pure(self, tmp_path, capsys):
        src_path = tmp_path / "total.minic"
        src_path.write_text(SRC)
        code = main(
            ["detect", str(src_path), "--entry", "total",
             "--rand", "A:32", "--scalar", "32",
             "--cache-dir", str(tmp_path / "cache"), "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # no provenance chatter on stdout
        assert doc["schema_version"] >= 1
        assert "profile source" in captured.err

    def test_detect_no_cache_reruns_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "default"))
        src_path = tmp_path / "total.minic"
        src_path.write_text(SRC)
        argv = ["detect", str(src_path), "--entry", "total", "--rand", "A:32",
                "--scalar", "32", "--no-cache", "--no-source"]
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "profile source: instrumented run" in out
            assert "Primary pattern: Reduction" in out
        assert not (tmp_path / "default").exists()

    def test_bench_json_carries_simulation_block(self, capsys):
        assert main(["bench", "fib", "--json", "--compact"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["simulation"]["best_speedup"] > 1.0
        assert doc["simulation"]["best_threads"] >= 1
        # still a loadable analysis document despite the extension block
        from repro.patterns.schema import analysis_from_dict

        assert analysis_from_dict(doc).hotspots

    def test_analyze_zeros_array(self, tmp_path, capsys):
        src = "void f(float A[][], int n) { for (int i = 0; i < n; i++) { A[i][0] = 1.0; } }"
        path = tmp_path / "k.minic"
        path.write_text(src)
        code = main(
            ["analyze", str(path), "--entry", "f", "--zeros", "A:8,8",
             "--scalar", "8", "--no-source"]
        )
        assert code == 0
        assert "Do-all" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["analyze", "--entry", "f"],
        ["profile", "--entry", "f", "-o", "p.json"],
        ["detect", "--entry", "f"],
        ["submit", "--entry", "f", "--url", "http://127.0.0.1:1"],
    ])
    def test_missing_source_file_is_a_usage_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.minic")
        assert main(command[:1] + [missing] + command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command[0]}: cannot read {missing!r}")
