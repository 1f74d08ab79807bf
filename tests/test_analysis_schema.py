"""Versioned analysis schema tests: round-trip fidelity, version gating,
what decoding requires, and the BenchmarkOutcome record convention."""

import json

import numpy as np
import pytest

from repro.bench_programs.registry import analyze_benchmark
from repro.corpus import generate_programs
from repro.patterns.engine import (
    analyze,
    primary_pattern,
    summarize_patterns,
)
from repro.patterns.schema import (
    SCHEMA_VERSION,
    analysis_from_dict,
    analysis_to_dict,
    strip_trace_timings,
)
from repro.profiling.serialize import canonical_json
from repro.runtime.parallel import BenchmarkOutcome
from repro.service.jobs import build_call_args

from conftest import parsed

REDUCTION_SRC = """\
float total(float A[], int n) {
    float s = 0.0;
    for (int i = 0; i < n; i++) {
        s += A[i];
    }
    return s;
}
"""

PIPELINE_SRC = """\
void kernel(float mean[], float path[], int n) {
    for (int i = 0; i < n; i++) {
        mean[i] = mean[i] * 0.5 + i;
    }
    for (int j = 1; j < n; j++) {
        path[j] = path[j - 1] + mean[j];
    }
}
"""


def analyzed(src, entry, args):
    return analyze(parsed(src), entry, [args])


@pytest.fixture(scope="module")
def reduction_result():
    return analyzed(REDUCTION_SRC, "total", [np.ones(16), 16])


@pytest.fixture(scope="module")
def pipeline_result():
    return analyzed(PIPELINE_SRC, "kernel", [np.zeros(32), np.zeros(32), 32])


class TestRoundTrip:
    def test_compact_json_round_trips_byte_identically(self, reduction_result):
        text = canonical_json(analysis_to_dict(reduction_result))
        restored = analysis_from_dict(json.loads(text))
        assert canonical_json(analysis_to_dict(restored)) == text

    def test_pretty_and_compact_agree(self, reduction_result):
        # the CLI's two --json forms of one document
        pretty = json.dumps(analysis_to_dict(reduction_result), indent=2, sort_keys=True)
        compact = canonical_json(analysis_to_dict(reduction_result))
        assert pretty != compact
        assert json.loads(pretty) == json.loads(compact)

    def test_label_and_regions_preserved(self, pipeline_result):
        text = canonical_json(analysis_to_dict(pipeline_result))
        restored = analysis_from_dict(json.loads(text))
        assert summarize_patterns(restored) == summarize_patterns(pipeline_result)
        assert primary_pattern(restored)[1] == primary_pattern(pipeline_result)[1]

    def test_trace_and_evidence_preserved(self, reduction_result):
        restored = analysis_from_dict(analysis_to_dict(reduction_result))
        assert restored.trace is not None
        assert [st.detector for st in restored.trace.stages] == [
            st.detector for st in reduction_result.trace.stages
        ]
        assert restored.trace.evidence == reduction_result.trace.evidence

    def test_pipelines_and_loop_classes_preserved(self, pipeline_result):
        restored = analysis_from_dict(analysis_to_dict(pipeline_result))
        assert len(restored.pipelines) == len(pipeline_result.pipelines)
        for got, want in zip(restored.pipelines, pipeline_result.pipelines):
            assert (got.loop_x, got.loop_y) == (want.loop_x, want.loop_y)
            assert got.a == want.a and got.b == want.b
            assert got.efficiency == want.efficiency
        assert restored.loop_classes.keys() == pipeline_result.loop_classes.keys()
        for region, lc in restored.loop_classes.items():
            assert lc.classification is pipeline_result.loop_classes[region].classification


class TestSpansExtension:
    """``trace.spans`` is a tolerated extension block of schema v1: present
    when the analysis was traced, absent otherwise, never version-gated."""

    def test_analysis_records_detection_spans(self, reduction_result):
        names = {sp.name for sp in reduction_result.trace.spans}
        assert "detect" in names
        assert any(n.startswith("detector:") for n in names)

    def test_spans_round_trip_with_hierarchy(self, reduction_result):
        doc = analysis_to_dict(reduction_result)
        assert doc["trace"]["spans"]  # emitted because non-empty
        restored = analysis_from_dict(doc)
        want = reduction_result.trace.spans
        got = restored.trace.spans
        assert [(sp.name, sp.span_id, sp.parent_id) for sp in got] == [
            (sp.name, sp.span_id, sp.parent_id) for sp in want
        ]
        assert [sp.attrs for sp in got] == [sp.attrs for sp in want]
        assert [sp.duration_s for sp in got] == [sp.duration_s for sp in want]

    def test_detector_spans_parent_under_detect(self, reduction_result):
        spans = reduction_result.trace.spans
        detect = next(sp for sp in spans if sp.name == "detect")
        for sp in spans:
            if sp.name.startswith("detector:"):
                assert sp.parent_id == detect.span_id

    def test_spans_key_absent_when_untraced(self, reduction_result):
        doc = analysis_to_dict(reduction_result)
        doc["trace"].pop("spans")
        restored = analysis_from_dict(doc)  # pre-extension docs still load
        assert restored.trace.spans == []
        assert "spans" not in analysis_to_dict(restored)["trace"]

    def test_strip_trace_timings_drops_spans(self, reduction_result):
        doc = analysis_to_dict(reduction_result)
        stripped = strip_trace_timings(doc)
        assert "spans" not in stripped["trace"]
        assert doc["trace"]["spans"]  # original untouched


class TestVersioning:
    def test_schema_version_stamped(self, reduction_result):
        doc = analysis_to_dict(reduction_result)
        assert doc["schema_version"] == SCHEMA_VERSION == 1

    def test_unsupported_version_raises(self, reduction_result):
        doc = analysis_to_dict(reduction_result)
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            analysis_from_dict(doc)

    def test_unknown_top_level_keys_tolerated(self, reduction_result):
        # extension blocks (e.g. `bench --json`'s "simulation") must not
        # break loaders of the same version
        doc = analysis_to_dict(reduction_result)
        doc["simulation"] = {"best_speedup": 2.0, "best_threads": 4}
        restored = analysis_from_dict(doc)
        assert summarize_patterns(restored) == summarize_patterns(reduction_result)


class TestDecoding:
    """Decoding requires every key it has no default for, loads documents
    without the extension blocks, and checks references into the program."""

    @pytest.fixture
    def doc(self):
        # reg_detect's document has hotspots, loop classes, tasks, spans
        # and a wavefront; each test gets a fresh copy to damage
        return analysis_to_dict(analyze_benchmark("reg_detect"))

    @pytest.mark.parametrize(
        "path",
        [
            ("hotspots", 0, "share"),
            ("loop_classes", 0, 1, "classification"),
            ("tasks", 0, 1, "cus", 0, "stmt_ids"),
        ],
        ids=lambda path: path[-1],
    )
    def test_required_key_missing_raises(self, doc, path):
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        del node[key]
        with pytest.raises(KeyError, match=key):
            analysis_from_dict(doc)

    def test_extension_blocks_missing_load_empty(self, doc):
        assert doc["wavefronts"] and doc["trace"]["spans"]
        del doc["wavefronts"]
        del doc["trace"]["spans"]
        restored = analysis_from_dict(doc)
        assert restored.wavefronts == []
        assert restored.trace.spans == []

    def test_unknown_cu_statement_id_raises(self, doc):
        # a document whose CUs and source disagree must not load with
        # shortened CUs: the detectors index a CU's statements
        cu = doc["tasks"][0][1]["cus"][0]
        cu["stmt_ids"].append(10**6)
        with pytest.raises(ValueError, match=rf"CU {cu['cu_id']}\b.*\b{10**6}\b"):
            analysis_from_dict(doc)

    @pytest.fixture(scope="class")
    def two_pipelines(self):
        tp = generate_programs(200, seed=7, adversarial=True)[2]
        return analyzed(tp.source, tp.entry, build_call_args(tp.arg_specs, seed=0))

    @pytest.mark.parametrize("index", [-1, 1, 2, 0.0])
    def test_fusion_pipeline_index_must_name_its_pipeline(self, two_pipelines, index):
        # a corpus pipeline program with pipelines (1, 2) and (2, 3) and a
        # fusion of loops (1, 2) stored as pipeline index 0: -1 and 1 name
        # the other pipeline, 2 and 0.0 name none
        doc = analysis_to_dict(two_pipelines)
        assert [(p["loop_x"], p["loop_y"]) for p in doc["pipelines"]] == [(1, 2), (2, 3)]
        fusion = doc["fusions"][0]
        assert (fusion["loop_x"], fusion["loop_y"], fusion["pipeline_index"]) == (1, 2, 0)
        fusion["pipeline_index"] = index
        with pytest.raises(ValueError, match=rf"fusion \(1, 2\) names pipeline index {index}\b"):
            analysis_from_dict(doc)


class TestBenchmarkOutcome:
    OUTCOME = BenchmarkOutcome(
        name="demo",
        suite="synthetic",
        loc=10,
        label="Reduction",
        primary_share=0.9,
        best_speedup=3.5,
        best_threads=4,
        pipelines=((1, 2, 1.0, 0.0, 1.0),),
        profile_digest="deadbeef",
        evidence_accepted=2,
        evidence_rejected=1,
    )

    def test_round_trip(self):
        doc = self.OUTCOME.to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert BenchmarkOutcome.from_dict(doc) == self.OUTCOME
        assert json.loads(json.dumps(doc)) == doc  # JSON-compatible

    def test_wrong_version_rejected(self):
        doc = self.OUTCOME.to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="version"):
            BenchmarkOutcome.from_dict(doc)

    def test_label_required(self):
        doc = self.OUTCOME.to_dict()
        del doc["label"]
        with pytest.raises(KeyError, match="label"):
            BenchmarkOutcome.from_dict(doc)

    def test_evidence_counts_optional(self):
        # records written before the evidence counts existed still load
        doc = self.OUTCOME.to_dict()
        del doc["evidence_accepted"], doc["evidence_rejected"]
        outcome = BenchmarkOutcome.from_dict(doc)
        assert (outcome.evidence_accepted, outcome.evidence_rejected) == (0, 0)
        assert outcome.label == self.OUTCOME.label
