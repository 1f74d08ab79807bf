"""Table VI — reduction detection: our dynamic detector vs the icc-like
and Sambamba-like static baselines, on nqueens, kmeans, bicg, gesummv,
sum_local, and sum_module.

Expected grid (paper's Table VI):

    tool      nqueens kmeans bicg gesummv sum_local sum_module
    Sambamba  NA      NA     yes  yes     yes       no
    icc       no      no     no   no      yes       no
    DiscoPoP  yes     yes    yes  yes     yes       yes
"""

import pytest

from repro.baselines import IccLikeDetector, SambambaLikeDetector
from repro.baselines.static_reduction import Verdict
from repro.bench_programs import analyze_benchmark, get_benchmark
from repro.bench_programs.synthetic import (
    SUM_LOCAL_SRC,
    SUM_MODULE_SRC,
    parsed_program,
    sum_local_args,
    sum_module_args,
)
from repro.patterns.engine import analyze
from repro.patterns.reduction import reduction_found
from repro.reporting.tables import format_table

BENCH_NAMES = ("nqueens", "kmeans", "bicg", "gesummv")

PAPER = {
    "sambamba": {
        "nqueens": "NA", "kmeans": "NA", "bicg": "found", "gesummv": "found",
        "sum_local": "found", "sum_module": "missed",
    },
    "icc": {
        "nqueens": "missed", "kmeans": "missed", "bicg": "missed",
        "gesummv": "missed", "sum_local": "found", "sum_module": "missed",
    },
    "discopop": {name: "found" for name in
                 ("nqueens", "kmeans", "bicg", "gesummv", "sum_local", "sum_module")},
}


@pytest.fixture(scope="module")
def programs():
    out = {name: get_benchmark(name).program for name in BENCH_NAMES}
    out["sum_local"] = parsed_program(SUM_LOCAL_SRC)
    out["sum_module"] = parsed_program(SUM_MODULE_SRC)
    return out


@pytest.fixture(scope="module")
def dynamic_results(programs):
    out = {}
    for name in BENCH_NAMES:
        out[name] = "found" if reduction_found(analyze_benchmark(name)) else "missed"
    out["sum_local"] = _dynamic_synthetic(programs["sum_local"], "sum_local", sum_local_args())
    out["sum_module"] = _dynamic_synthetic(programs["sum_module"], "sum_module", sum_module_args())
    return out


def _dynamic_synthetic(program, entry, arg_sets):
    result = analyze(program, entry, arg_sets, hotspot_threshold=0.05)
    return "found" if reduction_found(result) else "missed"


@pytest.fixture(scope="module")
def static_results(programs):
    out = {}
    for det in (SambambaLikeDetector(), IccLikeDetector()):
        for name, program in programs.items():
            verdict, _ = det.analyze(program)
            out[(det.name, name)] = verdict.value
    return out


def test_table6(benchmark, save_artifact, programs, dynamic_results, static_results):
    benchmark(lambda: IccLikeDetector().analyze(programs["bicg"]))
    names = list(programs)
    symbol = {"found": "yes", "missed": "X", "NA": "NA"}
    rows = [
        ["Sambamba"] + [symbol[static_results[("sambamba", n)]] for n in names],
        ["icc"] + [symbol[static_results[("icc", n)]] for n in names],
        ["DiscoPoP (ours)"] + [symbol[dynamic_results[n]] for n in names],
    ]
    save_artifact(
        "table6.txt",
        format_table(["Tool"] + names, rows, title="Table VI (reproduced)"),
    )


@pytest.mark.parametrize("name", BENCH_NAMES + ("sum_local", "sum_module"))
def test_dynamic_detects_everything(name, dynamic_results):
    assert dynamic_results[name] == PAPER["discopop"][name]


@pytest.mark.parametrize("name", BENCH_NAMES + ("sum_local", "sum_module"))
def test_icc_row(name, static_results):
    assert static_results[("icc", name)] == PAPER["icc"][name]


@pytest.mark.parametrize("name", BENCH_NAMES + ("sum_local", "sum_module"))
def test_sambamba_row(name, static_results):
    assert static_results[("sambamba", name)] == PAPER["sambamba"][name]


def test_cross_module_is_the_dynamic_advantage(dynamic_results, static_results):
    """The paper's punchline: only the dynamic approach sees sum_module."""
    assert dynamic_results["sum_module"] == "found"
    assert static_results[("icc", "sum_module")] == "missed"
    assert static_results[("sambamba", "sum_module")] == "missed"
