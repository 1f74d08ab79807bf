"""The experiment-campaign harness: grid, store, runner, query, CLI.

The closure tests at the bottom are the PR's acceptance criteria: a
campaign over the full 17-program registry regenerates Table III
byte-identically to ``repro table3 --json``, and an identical rerun is
served entirely from digest-keyed warm results (zero submissions, zero
cold profile runs).
"""

import json

import numpy as np
import pytest

from repro.bench_programs.registry import all_benchmarks
from repro.bench_programs.workloads import scale_arg_sets
from repro.campaign import (
    CampaignStore,
    CampaignCell,
    cell_digest,
    cell_payload,
    default_grid,
    expand_grid,
    run_campaign,
)
from repro.campaign.query import (
    baseline_deltas,
    geomean,
    group_records,
    query_records,
    records_to_csv,
    table3_docs,
)
from repro.cli import main
from repro.patterns.schema import (
    SCHEMA_VERSION,
    campaign_record,
    validate_campaign_record,
)
from repro.service.client import ServiceClient

#: Everything here drives a live daemon: excluded from the fast CI lane (-m "not slow").
pytestmark = pytest.mark.slow
from repro.service.jobs import job_digest
from repro.service.server import AnalysisService

SMALL = ["gesummv", "sort"]


@pytest.fixture
def service(tmp_path):
    svc = AnalysisService(port=0, workers=2, cache_dir=str(tmp_path / "cache"))
    svc.start_background()
    try:
        client = ServiceClient(svc.url)
        client.wait_healthy(timeout=10.0)
        yield svc, client
    finally:
        svc.shutdown()


@pytest.fixture
def store(tmp_path):
    with CampaignStore(tmp_path / "campaigns.sqlite") as s:
        yield s


class TestGrid:
    def test_default_cell_payload_matches_plain_bench_submission(self):
        # the property warm reuse across campaign and ordinary service
        # traffic rests on: a default cell IS a plain bench job
        cell = CampaignCell(program="gesummv")
        assert cell_payload(cell) == {"name": "gesummv"}
        assert cell_digest(cell) == job_digest("bench", {"name": "gesummv"})

    def test_non_default_axes_change_the_digest(self):
        base = cell_digest(CampaignCell(program="gesummv"))
        assert cell_digest(CampaignCell(program="gesummv", scale=2.0)) != base
        assert cell_digest(CampaignCell(program="gesummv", machine="slow_sync")) != base
        assert cell_digest(CampaignCell(program="gesummv", threshold=0.5)) != base

    def test_expand_grid_order_and_count(self):
        cells = expand_grid(["a_prog", "b_prog"], ("default", "fast_sync"), (1.0, 2.0))
        assert len(cells) == 8
        # programs vary slowest (registry order preserved for --table3)
        assert [c.program for c in cells[:4]] == ["a_prog"] * 4

    def test_default_grid_covers_the_registry_in_order(self):
        cells = default_grid()
        assert [c.program for c in cells] == [s.name for s in all_benchmarks()]

    def test_unknown_machine_and_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="machine model"):
            CampaignCell(program="gesummv", machine="quantum")
        with pytest.raises(ValueError, match="scale"):
            CampaignCell(program="gesummv", scale=0.0)


class TestScaleArgSets:
    def test_identity_at_scale_one(self):
        arg_sets = [[np.ones((4, 4)), 4]]
        assert scale_arg_sets(arg_sets, 1.0) is arg_sets

    def test_dims_and_matching_ints_scale_together(self):
        rng = np.random.default_rng(0)
        arg_sets = [[rng.random((8, 8)), rng.random(8), 8, 3, 0.5]]
        [scaled] = scale_arg_sets(arg_sets, 0.5)
        assert scaled[0].shape == (4, 4)
        assert scaled[1].shape == (4,)
        assert scaled[2] == 4  # matches a dimension -> mapped
        assert scaled[3] == 3  # unrelated int untouched
        assert scaled[4] == 0.5  # floats untouched

    def test_deterministic_content(self):
        arg_sets = [[np.arange(6.0), 6]]
        a = scale_arg_sets(arg_sets, 2.0)
        b = scale_arg_sets(arg_sets, 2.0)
        np.testing.assert_array_equal(a[0][0], b[0][0])
        assert a[0][1] == 12


class TestCampaignEnvelope:
    def _cell_doc(self):
        return campaign_record({
            "campaign": "c", "cell_id": "gesummv|default|s1|tspec",
            "program": "gesummv", "machine": "default", "scale": 1.0,
            "threshold": None, "digest": "ab" * 32, "state": "done",
            "error": None, "result": None,
        })

    def test_round_trip(self):
        doc = self._cell_doc()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["record"] == "campaign_cell"
        assert validate_campaign_record(doc) is doc

    def test_rejects_malformed(self):
        for mutation in (
            {"schema_version": 99},
            {"record": "job"},
            {"state": "exploded"},
            {"campaign": ""},
            {"digest": ""},
        ):
            bad = {**self._cell_doc(), **mutation}
            with pytest.raises(ValueError):
                validate_campaign_record(bad)


class TestStore:
    def test_plan_is_idempotent_and_preserves_state(self, store):
        cells = default_grid(programs=SMALL)
        assert store.plan_cells("c", cells) == 2
        store.mark_cell("c", cells[0].cell_id, "done")
        assert store.plan_cells("c", cells) == 0  # resume adds nothing
        states = {c["cell_id"]: c["state"] for c in store.cells("c")}
        assert states[cells[0].cell_id] == "done"
        assert states[cells[1].cell_id] == "pending"

    def test_results_are_content_addressed(self, store):
        store.put_result("d1", {"best_speedup": 2.0})
        store.put_result("d1", {"best_speedup": 999.0})  # idempotent ignore
        assert store.get_result("d1") == {"best_speedup": 2.0}
        assert store.get_result("nope") is None
        assert store.result_count() == 1

    def test_status_and_campaign_listing(self, store):
        cells = default_grid(programs=SMALL)
        store.plan_cells("c", cells)
        store.mark_cell("c", cells[0].cell_id, "failed", error={"failed": True})
        status = store.status("c")
        assert status["states"] == {"pending": 1, "done": 0, "failed": 1}
        assert not status["complete"]
        assert [c["campaign"] for c in store.campaigns()] == ["c"]

    def test_round_trip_survives_reopen_byte_identically(self, tmp_path):
        path = tmp_path / "c.sqlite"
        doc = {"name": "gesummv", "best_speedup": 6.9482320159641775,
               "pipelines": [[0, 1, 0.5, 0.5, 0.9]]}
        with CampaignStore(path) as store:
            store.plan_cells("c", default_grid(programs=SMALL))
            store.put_result("d1", doc)
        with CampaignStore(path) as store:
            assert json.dumps(store.get_result("d1"), sort_keys=True) == \
                json.dumps(doc, sort_keys=True)
            assert store.status("c")["cells"] == 2


class TestRunner:
    def test_run_resume_and_digest_reuse(self, service, store):
        svc, client = service
        cells = default_grid(programs=SMALL, machines=("default", "slow_sync"))
        first = run_campaign(store, client, "c1", cells)
        assert first["submitted"] == 4 and first["failed"] == 0

        # identical rerun: all cells resume as done — zero service calls,
        # zero cold profile runs (the acceptance criterion)
        misses = svc.executor.cache.stats.misses
        jobs_before = len(client.jobs())
        second = run_campaign(store, client, "c1", cells)
        assert second["submitted"] == 0
        assert second["reused_resume"] == 4
        assert svc.executor.cache.stats.misses == misses
        assert len(client.jobs()) == jobs_before

        # a different campaign with the same coordinates hits the
        # content-addressed result layer, still with zero submissions
        third = run_campaign(store, client, "c2", cells)
        assert third["submitted"] == 0 and third["reused_store"] == 4
        assert svc.executor.cache.stats.misses == misses

    def test_interrupted_campaign_resumes_only_pending_cells(self, service, store):
        svc, client = service
        cells = default_grid(programs=SMALL)
        # simulate a campaign killed mid-run: one cell done, one never ran
        store.plan_cells("interrupted", cells)
        done = run_campaign(store, client, "warm", [cells[0]])
        assert done["submitted"] == 1
        status = store.status("interrupted")
        assert status["states"]["pending"] == 2

        summary = run_campaign(store, client, "interrupted", cells)
        # cells[0]'s digest is already stored (from 'warm'); cells[1] runs
        assert summary["reused_store"] == 1 and summary["submitted"] == 1
        assert store.status("interrupted")["complete"]

    def test_failed_cells_record_structured_errors(self, service, store, monkeypatch):
        svc, client = service
        cell = CampaignCell(program="gesummv", threshold=0.9)

        real_wait = client.wait

        def failing_wait(job_id, timeout=120.0, poll=0.1):
            record = real_wait(job_id, timeout=timeout, poll=poll)
            return {**record, "state": "failed",
                    "error": {"failed": True, "error_type": "Boom"}}

        monkeypatch.setattr(client, "wait", failing_wait)
        summary = run_campaign(store, client, "c", [cell])
        assert summary["failed"] == 1
        [record] = query_records(store, campaign="c")
        assert record["state"] == "failed"
        assert record["error"]["error_type"] == "Boom"
        assert record["result"] is None

    def test_grid_goes_out_as_a_single_batched_post(self, service, store):
        svc, client = service
        cells = default_grid(programs=SMALL, machines=("default", "slow_sync"))
        calls = []
        real_submit_many = client.submit_many

        def recording_submit_many(bodies):
            calls.append(len(bodies))
            return real_submit_many(bodies)

        client.submit_many = recording_submit_many
        summary = run_campaign(store, client, "batched", cells)
        assert summary["submitted"] == 4
        assert calls == [4]

    def test_minimal_client_falls_back_to_per_cell_submission(self, service, store):
        svc, client = service

        class MinimalClient:
            # only the documented floor: submit_benchmark + wait
            def submit_benchmark(self, program, **kwargs):
                return client.submit_benchmark(program, **kwargs)

            def wait(self, job_id, timeout=120.0, poll=0.1):
                return client.wait(job_id, timeout=timeout, poll=poll)

        summary = run_campaign(store, MinimalClient(), "minimal", default_grid(programs=SMALL))
        assert summary["submitted"] == 2 and summary["failed"] == 0

    def test_cells_metric_counts_dispositions(self, service, store):
        from repro.obs.metrics import get_registry

        svc, client = service
        cells = default_grid(programs=["gesummv"])
        run_campaign(store, client, "m1", cells)
        run_campaign(store, client, "m1", cells)
        text = get_registry().render()
        assert 'repro_campaign_cells_total{outcome="submitted"}' in text
        assert 'repro_campaign_cells_total{outcome="reused_resume"}' in text


class TestQuery:
    @pytest.fixture
    def populated(self, service, store):
        svc, client = service
        cells = default_grid(programs=SMALL, machines=("default", "slow_sync"))
        run_campaign(store, client, "c1", cells)
        run_campaign(store, client, "c2", cells)
        return store

    def test_filters(self, populated):
        assert len(query_records(populated)) == 8  # both campaigns
        assert len(query_records(populated, campaign="c1")) == 4
        records = query_records(populated, campaign="c1", machine="slow_sync")
        assert [r["program"] for r in records] == SMALL
        assert all(r["record"] == "campaign_cell" for r in records)
        for record in records:
            validate_campaign_record(record)
            assert record["result"]["schema_version"] == SCHEMA_VERSION

    def test_group_by_geomean(self, populated):
        groups = group_records(query_records(populated, campaign="c1"), ["machine"])
        assert [g["machine"] for g in groups] == ["default", "slow_sync"]
        for group in groups:
            assert group["cells"] == group["done"] == 2
            assert group["geomean_speedup"] == pytest.approx(
                geomean([
                    r["result"]["best_speedup"]
                    for r in query_records(
                        populated, campaign="c1", machine=group["machine"]
                    )
                ])
            )
        with pytest.raises(ValueError, match="unknown group keys"):
            group_records([], ["favorite_color"])

    def test_baseline_deltas_identical_campaigns(self, populated):
        rows = baseline_deltas(populated, "c2", "c1")
        assert len(rows) == 4
        assert all(r["delta"] == 0.0 and r["ratio"] == 1.0 for r in rows)

    def test_csv_is_byte_stable_across_reopen(self, populated):
        first = records_to_csv(query_records(populated, campaign="c1"))
        assert first.splitlines()[0].startswith("campaign,cell_id,program")
        reopened = CampaignStore(populated.path)
        try:
            again = records_to_csv(query_records(reopened, campaign="c1"))
        finally:
            reopened.close()
        assert first == again

    def test_table3_requires_a_complete_default_grid(self, populated):
        with pytest.raises(ValueError, match="no completed default cell"):
            table3_docs(populated, "c1")  # only 2 of 17 programs


class TestCampaignCli:
    def test_run_status_query_round_trip(self, tmp_path, capsys):
        db = str(tmp_path / "c.sqlite")
        cache = str(tmp_path / "cache")
        argv = ["campaign", "run", "--name", "cli", "--programs", *SMALL,
                "--db", db, "--cache-dir", cache]
        assert main(argv) == 0
        assert "2 submitted" in capsys.readouterr().out

        assert main(argv) == 0  # resume: nothing to do
        assert "2 already done" in capsys.readouterr().out

        assert main(["campaign", "status", "--name", "cli", "--db", db]) == 0
        assert "[complete]" in capsys.readouterr().out

        assert main(["campaign", "query", "--db", db, "--csv"]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.count("\n") == 3  # header + 2 cells

        assert main(["campaign", "query", "--db", db, "--name", "cli",
                     "--group-by", "program", "--json", "--compact"]) == 0
        groups = json.loads(capsys.readouterr().out)
        assert {g["program"] for g in groups} == set(SMALL)

        # --json wins over --csv, with or without --group-by
        for extra in ([], ["--group-by", "program"]):
            assert main(["campaign", "query", "--db", db, "--csv", "--json",
                         "--compact", *extra]) == 0
            assert len(json.loads(capsys.readouterr().out)) == 2

        assert main(["campaign", "query", "--db", db, "--group-by", "program",
                     "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "program,cells,done,geomean_speedup,max_speedup"
        assert sorted(line.split(",")[0] for line in lines[1:]) == sorted(SMALL)

    def test_status_unknown_campaign_exits_nonzero(self, tmp_path, capsys):
        db = str(tmp_path / "c.sqlite")
        assert main(["campaign", "status", "--name", "ghost", "--db", db]) == 1
        assert "not found" in capsys.readouterr().out


class TestTableThreeClosure:
    """The acceptance criteria: full-registry campaign == live Table III."""

    def test_campaign_reproduces_table3_byte_identically(self, tmp_path, capsys):
        db = str(tmp_path / "c.sqlite")
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "--name", "full", "--db", db,
                     "--cache-dir", cache]) == 0
        capsys.readouterr()

        assert main(["campaign", "query", "--name", "full", "--table3",
                     "--json", "--compact", "--db", db]) == 0
        from_campaign = capsys.readouterr().out

        assert main(["table3", "--json", "--compact", "--no-parallel",
                     "--cache-dir", cache]) == 0
        live = capsys.readouterr().out
        assert from_campaign == live

        # stored bytes stay stable across a store restart
        assert main(["campaign", "query", "--name", "full", "--table3",
                     "--json", "--compact", "--db", db]) == 0
        assert capsys.readouterr().out == from_campaign

    def test_identical_rerun_is_fully_warm(self, tmp_path):
        cells = default_grid()
        with CampaignStore(tmp_path / "c.sqlite") as store:
            svc = AnalysisService(
                port=0, workers=2, cache_dir=str(tmp_path / "cache")
            )
            svc.start_background()
            try:
                client = ServiceClient(svc.url)
                client.wait_healthy(timeout=10.0)
                first = run_campaign(store, client, "full", cells)
                assert first["submitted"] == len(cells) == 17
                assert first["failed"] == 0

                misses = svc.executor.cache.stats.misses
                second = run_campaign(store, client, "full", cells)
                assert second["submitted"] == 0
                assert second["reused_resume"] == 17
                # zero cold profile runs on the rerun
                assert svc.executor.cache.stats.misses == misses
            finally:
                svc.shutdown()
