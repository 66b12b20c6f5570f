"""The MASS influence model — the paper's primary contribution."""

from repro.core.assemble import AssemblyCache, CompiledSystem, compile_system
from repro.core.comments import CommentModel, CommentTerm, corpus_horizon
from repro.core.domains import DomainInfluence
from repro.core.incremental import CorpusDelta, IncrementalAnalyzer
from repro.core.model import MassModel
from repro.core.novelty import (
    CompositeNoveltyDetector,
    LexiconNoveltyDetector,
    NoveltyDetector,
    ShingleNoveltyDetector,
)
from repro.core.parameters import DEFAULT_DOMAINS, MassParameters
from repro.core.quality import QualityScorer
from repro.core.report import BloggerDetail, InfluenceReport
from repro.core.report_io import load_report, save_report
from repro.core.solver import InfluenceScores, InfluenceSolver, compute_gl_scores
from repro.core.sparse_solver import SparseSolution, default_kernel, jacobi_solve
from repro.core.temporal import InfluenceTrajectory, trajectory
from repro.core.topk import full_ranking, rank_of, top_k

__all__ = [
    "MassParameters",
    "DEFAULT_DOMAINS",
    "MassModel",
    "InfluenceReport",
    "BloggerDetail",
    "InfluenceSolver",
    "InfluenceScores",
    "compute_gl_scores",
    "AssemblyCache",
    "CompiledSystem",
    "compile_system",
    "SparseSolution",
    "default_kernel",
    "jacobi_solve",
    "DomainInfluence",
    "QualityScorer",
    "CommentModel",
    "CommentTerm",
    "corpus_horizon",
    "NoveltyDetector",
    "LexiconNoveltyDetector",
    "ShingleNoveltyDetector",
    "CompositeNoveltyDetector",
    "top_k",
    "full_ranking",
    "rank_of",
    "save_report",
    "load_report",
    "CorpusDelta",
    "IncrementalAnalyzer",
    "trajectory",
    "InfluenceTrajectory",
]
