"""Parallel pattern detectors — the paper's core contribution.

Four algorithm-structure patterns plus fusion are detected on top of the
profiling substrate:

* :mod:`repro.patterns.pipeline` — multi-loop pipeline via linear regression
  over dependent iteration pairs (Section III-A, Eq. 1-2, Tables II/IV);
* :mod:`repro.patterns.fusion` — loop fusion as the ``a=1, b=0`` do-all
  special case (Section III-A);
* :mod:`repro.patterns.tasks` — task parallelism via BFS fork/worker/barrier
  classification of the CU graph (Section III-B, Algorithm 1, Table V);
* :mod:`repro.patterns.geometric` — geometric decomposition of functions
  whose loops are all do-all/reduction (Section III-C, Algorithm 2);
* :mod:`repro.patterns.reduction` — dynamic reduction detection
  (Section III-D, Algorithm 3, Table VI).

:func:`repro.patterns.engine.analyze` runs everything over the hotspots of a
profiled program and :func:`repro.patterns.engine.summarize_patterns`
produces the Table III "Detected Pattern" summary.
"""

from repro.patterns.result import (
    SUPPORTING_STRUCTURE,
    FusionCandidate,
    GeometricDecomposition,
    LoopClass,
    LoopClassification,
    MultiLoopPipeline,
    ReductionCandidate,
    TaskParallelism,
)
from repro.patterns.regression import RegressionFit, efficiency_factor, fit_iteration_pairs
from repro.patterns.doall import classify_loop
from repro.patterns.reduction import detect_reductions, infer_operator
from repro.patterns.pipeline import detect_multiloop_pipelines, pipeline_chains
from repro.patterns.fusion import detect_fusion
from repro.patterns.tasks import detect_task_parallelism
from repro.patterns.geometric import detect_geometric_decomposition
from repro.patterns.engine import analyze, summarize_patterns
from repro.patterns.framework import (
    AnalysisContext,
    AnalysisResult,
    AnalysisTrace,
    Detector,
    DetectorRegistry,
    Evidence,
    StageTrace,
    default_registry,
    run_detectors,
)
from repro.patterns.schema import (
    SCHEMA_VERSION,
    analysis_from_dict,
    analysis_from_json,
    analysis_to_dict,
    analysis_to_json,
)
from repro.patterns.ranking import PatternOption, rank_patterns
from repro.patterns.intra_pipeline import IntraLoopPipeline, detect_intra_loop_pipeline

__all__ = [
    "SUPPORTING_STRUCTURE",
    "FusionCandidate",
    "GeometricDecomposition",
    "LoopClass",
    "LoopClassification",
    "MultiLoopPipeline",
    "ReductionCandidate",
    "TaskParallelism",
    "RegressionFit",
    "efficiency_factor",
    "fit_iteration_pairs",
    "classify_loop",
    "detect_reductions",
    "infer_operator",
    "detect_multiloop_pipelines",
    "pipeline_chains",
    "detect_fusion",
    "detect_task_parallelism",
    "detect_geometric_decomposition",
    "AnalysisResult",
    "analyze",
    "summarize_patterns",
    "AnalysisContext",
    "AnalysisTrace",
    "Detector",
    "DetectorRegistry",
    "Evidence",
    "StageTrace",
    "default_registry",
    "run_detectors",
    "SCHEMA_VERSION",
    "analysis_to_dict",
    "analysis_from_dict",
    "analysis_to_json",
    "analysis_from_json",
    "PatternOption",
    "rank_patterns",
    "IntraLoopPipeline",
    "detect_intra_loop_pipeline",
]
