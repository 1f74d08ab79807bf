import json

import pytest

from compare import compare, exact_verdict, verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_improved_needs_nine_of_ten_wins_beyond_the_parent_iqr():
    change = [v * 0.9 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"
    # one win short of nine tenths
    mixed = [v * 0.9 for v in PARENT[:8]] + PARENT[8:]
    assert verdict(PARENT, mixed, "lower", 0.1) == "unchanged"
    # every pair wins, but by less than the parent's own spread
    tiny = [v - 0.01 for v in PARENT]
    assert verdict(PARENT, tiny, "lower", 0.1) == "unchanged"


def test_worse_is_judged_against_the_bound():
    assert verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "unchanged"
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1) == "worse"
    assert verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1) == "worse"


def test_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 150.0]
    assert verdict(PARENT, noisy, "lower", 0.1) == "unresolved"
    # ... unless every change run beats every parent run
    fast_noisy = [40.0, 90.0, 45.0, 85.0, 50.0, 80.0, 55.0, 75.0, 60.0, 70.0]
    assert verdict(PARENT, fast_noisy, "lower", 0.1) == "improved"
    assert verdict(PARENT[:5], PARENT[:5], "lower", 0.1) == "unresolved"


def test_exact_values_are_compared_pair_by_pair():
    assert exact_verdict([5, 5, 5], [5, 5, 5], "lower") == "unchanged"
    assert exact_verdict([5, 5, 5], [5, 6, 5], "lower") == "worse"
    assert exact_verdict([5, 5, 5], [4, 4, 4], "lower") == "improved"
    assert exact_verdict([0.99, 1.0], [0.99, 0.98], "higher") == "worse"


def write_runs(directory, values, accuracy):
    directory.mkdir()
    for seed, (value, acc) in enumerate(zip(values, accuracy)):
        metrics = {"throughput_per_s": {"value": value, "unit": "1/s"},
                   "verdict_accuracy": {"value": acc, "unit": "ratio"}}
        doc = {"workload": "corpus_small", "seed": seed, "trace": 0,
               "bases": {"verdict_accuracy": 100},
               "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}
        (directory / f"run-corpus_small-s{seed}-t0.json").write_text(json.dumps(doc))


SPEC = {
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "verdict_accuracy", "unit": "ratio", "better": "higher", "bound": 0.01},
    ],
    "per_layer": [],
}


@pytest.mark.parametrize(
    "change_acc, expected, worse",
    [(0.99, "unchanged", False), (0.98, "worse", True)],
)
def test_report_rows_per_workload_with_bases(tmp_path, change_acc, expected, worse):
    write_runs(tmp_path / "parent", PARENT, [0.99] * 10)
    write_runs(tmp_path / "change", [v * 1.3 for v in PARENT], [0.99] * 9 + [change_acc])
    report, any_worse = compare(tmp_path / "parent", tmp_path / "change", SPEC)
    lines = report.splitlines()
    assert lines[0].startswith("corpus_small  end-to-end  (10 pairs")
    assert "throughput_per_s" in lines[1] and "improved" in lines[1]
    assert "verdict_accuracy" in lines[2] and expected in lines[2]
    assert f"99/100->{round(change_acc * 100)}/100" in lines[2]
    assert any_worse is worse
