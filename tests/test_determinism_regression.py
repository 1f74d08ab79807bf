"""Regression lock for analysis-document determinism across execution paths.

PR 4 fixed a ``loop_trips`` ordering instability that made nominally equal
analyses serialize differently depending on how the profile was obtained.
This module pins the stronger property that fix enabled: a **cold** run, a
**warm-cache** run (profile replayed from disk), and a **service** run of
the same program + inputs produce byte-identical canonical JSON once
:func:`~repro.patterns.schema.strip_trace_timings` removes the only
legitimately nondeterministic content (stage wall clocks and the
``trace.spans`` telemetry block, whose structure differs per path: the
warm run has a cache hit where the cold run profiled, and the service run
adds queue-wait).
"""

import json

import pytest

from repro.api import compile_source
from repro.patterns.engine import analyze
from repro.patterns.schema import analysis_to_dict, strip_trace_timings
from repro.profiling.cache import ProfileCache
from repro.profiling.serialize import canonical_json
from repro.service.client import ServiceClient
from repro.service.jobs import build_call_args
from repro.service.server import AnalysisService

#: Two dependent loops: engages the pipeline detector and its loop-trip
#: bookkeeping — the machinery whose ordering PR 4 stabilized.
SRC = """\
void pipe(float A[], float B[], int n) {
    for (int i = 0; i < n; i++) {
        A[i] = i * 0.5;
    }
    for (int j = 0; j < n; j++) {
        B[j] = A[j] * 2.0;
    }
}
"""

#: Portable argument spec shared verbatim by the local and service paths,
#: so all three runs see bit-identical inputs.
ARG_SPECS = [["zeros", "A:64"], ["zeros", "B:64"], ["scalar", "64"]]


def _canonical(doc):
    return canonical_json(strip_trace_timings(doc))


def _local_doc(cache):
    program = compile_source(SRC)
    args = build_call_args(ARG_SPECS, seed=0)
    result = analyze(program, "pipe", [args], cache=cache)
    return analysis_to_dict(result)


class TestColdWarmServiceIdentity:
    @pytest.mark.slow  # starts a live daemon for the third path
    def test_three_paths_byte_identical_after_strip(self, tmp_path):
        cache = ProfileCache(root=tmp_path / "cache")
        cold = _local_doc(cache)
        assert cache.stats.hits == 0 and cache.stats.stores == 1
        warm = _local_doc(cache)
        assert cache.stats.hits == 1

        svc = AnalysisService(port=0, workers=1, cache_dir=str(tmp_path / "svc"))
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            client.wait_healthy(timeout=5.0)
            job = client.submit_source(SRC, entry="pipe", args=ARG_SPECS)
            record = client.wait(job["id"], timeout=60.0)
        finally:
            svc.shutdown()
        assert record["state"] == "done"
        service = record["result"]

        assert _canonical(cold) == _canonical(warm) == _canonical(service)

    def test_spans_differ_per_path_which_is_why_strip_drops_them(self, tmp_path):
        # the identity above is only byte-exact BECAUSE strip removes the
        # spans block: each path's telemetry legitimately differs
        cache = ProfileCache(root=tmp_path / "cache")
        cold = _local_doc(cache)
        warm = _local_doc(cache)
        cold_names = {sp["name"] for sp in cold["trace"].get("spans", [])}
        warm_names = {sp["name"] for sp in warm["trace"].get("spans", [])}
        # cold: miss -> profiled -> stored; warm: hit, no store
        assert "profile" in cold_names and "cache.store" in cold_names
        assert "cache.read" in warm_names and "cache.store" not in warm_names
        # round-trip safety: the stripped docs still parse as JSON equal
        assert json.loads(_canonical(cold)) == json.loads(_canonical(warm))


class TestLearnArtifactDeterminism:
    """The learned baseline inherits the same contract: features and model
    artifacts are byte-identical across repeated runs and across serial vs
    ``--parallel`` extraction."""

    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        from repro.corpus import generate_corpus, load_corpus

        out = tmp_path_factory.mktemp("learn-det") / "corpus"
        generate_corpus(12, 9, out, adversarial=True)
        return load_corpus(out)

    def test_features_byte_identical_across_runs_and_parallelism(self, suite):
        from repro.learn import corpus_features

        baseline = canonical_json(corpus_features(suite))
        assert canonical_json(corpus_features(suite)) == baseline
        assert canonical_json(corpus_features(suite, parallel=True)) == baseline

    def test_model_artifact_byte_identical_across_runs_and_parallelism(self, suite):
        from repro.learn import train_on_corpus

        baseline = train_on_corpus(suite, seed=5).to_json()
        again = train_on_corpus(suite, seed=5).to_json()
        parallel = train_on_corpus(suite, seed=5, parallel=True).to_json()
        assert again == baseline
        assert parallel == baseline
