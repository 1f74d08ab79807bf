import json

import run
import workloads
from benchenv import HERE


def test_corrupted_expected_json_makes_the_run_exit_1(tmp_path, monkeypatch, capsys):
    doc = json.loads((HERE / "expected.json").read_text())
    doc["registry"]["gesummv"]["profile_digest"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(doc))
    monkeypatch.setattr(run, "EXPECTED", corrupted)
    # Shorten the run: one set-up, one pass.
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.InProcessWorkload, "min_samples", lambda self: 0)

    status = run.main(["--workload", "registry_cold", "--seconds", "0"])

    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False
    assert last["metrics"]["verdict_accuracy"]["value"] < 1.0


def test_expected_registry_labels_match_table_iii():
    from repro.bench_programs.registry import all_benchmarks

    doc = json.loads((HERE / "expected.json").read_text())
    assert doc["engine"] == "tree"
    assert {name: ref["label"] for name, ref in doc["registry"].items()} == {
        spec.name: spec.expected_label for spec in all_benchmarks()
    }
