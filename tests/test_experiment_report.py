"""Generated experiment report tests."""

import dataclasses

import pytest

from repro.reporting import experiments
from repro.reporting.experiments import _md_table, generate_experiment_report


class TestMdTable:
    def test_shape(self):
        text = _md_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4

    def test_float_formatting(self):
        assert "| 3.14 |" in _md_table(["x"], [[3.14159]])


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_experiment_report()

    def test_all_sections_present(self, report):
        for section in ("Table III", "Table IV", "Table V", "Table VI"):
            assert section in report

    def test_all_benchmarks_listed(self, report):
        from repro.bench_programs import all_benchmarks

        for spec in all_benchmarks():
            assert f"| {spec.name} |" in report

    def test_every_label_matches(self, report):
        assert "| NO |" not in report
        assert report.count("| yes |") >= 17

    def test_table6_punchline(self, report):
        # the dynamic row finds everything; both static rows miss sum_module
        lines = [l for l in report.splitlines() if l.startswith("| ")]
        dynamic = next(l for l in lines if "dynamic" in l)
        assert dynamic.count("yes") == 6
        icc = next(l for l in lines if l.startswith("| icc"))
        assert icc.rstrip("| ").endswith("X")

    def test_table6_dynamic_row_follows_the_analysis(self, monkeypatch):
        # an analysis of the two listings that finds no reduction reads "X"
        analyze = experiments.analyze

        def blind(*args, **options):
            result = analyze(*args, **options)
            return dataclasses.replace(result, reductions={}, loop_classes={})

        monkeypatch.setattr(experiments, "analyze", blind)
        report = generate_experiment_report()
        dynamic = next(l for l in report.splitlines() if l.startswith("| dynamic"))
        assert dynamic == "| dynamic (ours) | yes | yes | yes | yes | X | X |"

    def test_markdown_renders_consistently(self, report):
        # every table row has the same column count as its header
        blocks: list[list[str]] = []
        current: list[str] = []
        for line in report.splitlines():
            if line.startswith("|"):
                current.append(line)
            elif current:
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)
        for block in blocks:
            cols = block[0].count("|")
            assert all(row.count("|") == cols for row in block)
