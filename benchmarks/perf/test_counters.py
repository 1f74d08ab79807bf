import json

from benchenv import HERE
from spans import Recorder
from workloads import RegistryCold

SUBSET = ["gesummv", "bicg"]


def traced_subset(seed):
    wl = RegistryCold(seed, json.loads((HERE / "expected.json").read_text()))
    wl.setup()
    wl.names = list(SUBSET)
    wl.traced_round(Recorder(), 0)
    wl.count_pass()
    assert wl.failures == [] and wl.checks.mismatches == []
    # two checks (label, digest) per analysis, untraced and traced
    assert wl.checks.checked == 2 * 2 * len(SUBSET)
    return wl.counters


def test_exact_counters_repeat_across_traced_runs():
    first, second = traced_subset(1), traced_subset(2)
    assert first == second
    for name in ("runtime.events.read", "runtime.events.write", "runtime.batches",
                 "profiling.profile_bytes", "profiling.dep_records",
                 "patterns.evidence_accepted"):
        assert first[name] > 0, name
