"""CLI perf surface: bench --smoke and the cached detect path."""

import tempfile

from repro.cli import main

SRC = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""


class TestBenchSmoke:
    def test_smoke_passes_and_exercises_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "smoke-cache")
        assert main(["bench", "--smoke", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "1 store(s), 1 hit(s)" in out
        assert "OK: cache exercised" in out

    def test_smoke_warm_cache_dir_hits_twice(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "smoke-cache")
        assert main(["bench", "--smoke", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # second invocation: both runs hit the pre-existing entry
        code = main(["bench", "--smoke", "--cache-dir", cache_dir])
        captured = capsys.readouterr()
        assert code == 1  # cold run hit the cache -> assertion trips, honestly
        assert "cold run unexpectedly hit the cache" in captured.err

    def test_smoke_default_cache_dir_is_removed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["bench", "--smoke"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_bench_requires_name_or_smoke(self, capsys):
        assert main(["bench"]) == 2


class TestDetectCached:
    def test_detect_without_profile_uses_cache(self, tmp_path, capsys):
        path = tmp_path / "total.minic"
        path.write_text(SRC)
        cache_dir = str(tmp_path / "cache")
        argv = [
            "detect", str(path), "--entry", "total",
            "--rand", "A:32", "--scalar", "32",
            "--cache-dir", cache_dir, "--no-source",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "instrumented run" in first
        assert "Reduction" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "Reduction" in second

    def test_detect_without_entry_or_profile_errors(self, tmp_path, capsys):
        path = tmp_path / "total.minic"
        path.write_text(SRC)
        assert main(["detect", str(path)]) == 2

    def test_profile_command_populates_cache(self, tmp_path, capsys):
        path = tmp_path / "total.minic"
        path.write_text(SRC)
        cache_dir = str(tmp_path / "cache")
        out_file = tmp_path / "p.json"
        argv = [
            "profile", str(path), "--entry", "total",
            "--rand", "A:32", "--scalar", "32",
            "-o", str(out_file), "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        assert "instrumented run" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out
        assert out_file.exists()

    def test_no_cache_flag_always_reinterprets(self, tmp_path, capsys):
        path = tmp_path / "total.minic"
        path.write_text(SRC)
        out_file = tmp_path / "p.json"
        argv = [
            "profile", str(path), "--entry", "total",
            "--rand", "A:32", "--scalar", "32",
            "-o", str(out_file), "--no-cache",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out
