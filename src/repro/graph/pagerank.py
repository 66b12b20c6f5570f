"""PageRank over :class:`repro.graph.digraph.Digraph`.

The paper's General Links (GL) authority score "is similar to a webpage
authority and PageRank"; this is the default GL backend.  The
implementation is standard power iteration with weighted out-edge
distribution and dangling-mass redistribution, and it reports its own
convergence so callers can distinguish "converged" from "hit the
iteration cap".

:func:`personalized_pagerank` is the general routine — the teleport
distribution is caller-supplied, and dangling mass is redistributed
*by that same distribution*.  :func:`pagerank` is the uniform-teleport
special case, and the opinion-leader baseline
(:mod:`repro.baselines.opinion_leaders`) supplies its novelty-weighted
teleport; both share this one dangling-node code path.

The power iteration runs on one of two bit-identical kernels: a numpy
CSR ``bincount`` (one call per iteration) or a pure-Python loop over
the same edge list.  The sparse solver's
:func:`~repro.core.sparse_solver.default_kernel` picks one, so
``REPRO_SPARSE_KERNEL`` forces both solvers alike.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import Digraph

__all__ = ["PageRankResult", "pagerank", "personalized_pagerank"]


@dataclass(frozen=True, slots=True)
class PageRankResult:
    """Scores plus convergence diagnostics."""

    scores: dict[str, float]
    iterations: int
    converged: bool
    residual: float


def pagerank(
    graph: Digraph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    strict: bool = False,
) -> PageRankResult:
    """Compute PageRank scores summing to 1.

    Parameters
    ----------
    graph:
        The link graph; edge weights shape the random surfer's choice.
    damping:
        Probability of following a link (the classic 0.85).
    tolerance:
        L1 change between iterations below which we stop.
    max_iterations:
        Iteration cap.
    strict:
        If True, raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    """
    _validate_controls(damping, tolerance, max_iterations)
    nodes = graph.nodes()
    if not nodes:
        return PageRankResult({}, 0, True, 0.0)
    uniform = 1.0 / len(nodes)
    result = personalized_pagerank(
        graph,
        {node: uniform for node in nodes},
        damping=damping,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    if strict and not result.converged:
        raise ConvergenceError(
            f"pagerank did not converge in {max_iterations} iterations "
            f"(residual {result.residual:.3e} > tolerance {tolerance:.3e})"
        )
    return result


def personalized_pagerank(
    graph: Digraph,
    teleport: Mapping[str, float],
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    strict: bool = False,
) -> PageRankResult:
    """Power iteration with a caller-supplied teleport distribution.

    ``teleport`` must cover every node with non-negative weight and a
    positive total; it is used as given (no renormalization), both for
    the restart term and for redistributing the mass parked on
    dangling (zero-out-weight) nodes.  The walk starts *from* the
    teleport distribution.  With a uniform teleport this computes
    exactly :func:`pagerank` — operation-for-operation, so the two
    entry points can never drift.
    """
    _validate_controls(damping, tolerance, max_iterations)
    nodes = graph.nodes()
    if not nodes:
        return PageRankResult({}, 0, True, 0.0)
    missing = [node for node in nodes if node not in teleport]
    if missing:
        raise ParameterError(
            f"teleport distribution misses {len(missing)} node(s), "
            f"e.g. {missing[0]!r}"
        )
    if any(teleport[node] < 0.0 for node in nodes):
        raise ParameterError("teleport weights must be >= 0")
    if sum(teleport[node] for node in nodes) <= 0.0:
        raise ParameterError("teleport weights must have a positive sum")

    out_weight = [graph.out_degree(node, weighted=True) for node in nodes]
    # The edge list in the one accumulation order both kernels share:
    # by source in node order, then by successor insertion order.
    position = {node: i for i, node in enumerate(nodes)}
    sources: list[int] = []
    targets: list[int] = []
    weights: list[float] = []
    for source, node in enumerate(nodes):
        if out_weight[source] == 0.0:
            continue
        for target, weight in graph.successors(node).items():
            sources.append(source)
            targets.append(position[target])
            weights.append(weight)
    from repro.core.sparse_solver import default_kernel  # core imports graph

    iterate = _iterate_numpy if default_kernel() == "numpy" else _iterate_python
    values, iterations, converged, residual = iterate(
        [teleport[node] for node in nodes], out_weight,
        (sources, targets, weights), damping, tolerance, max_iterations,
    )
    scores = dict(zip(nodes, values))
    if strict and not converged:
        raise ConvergenceError(
            f"personalized pagerank did not converge in {max_iterations} "
            f"iterations (residual {residual:.3e} > tolerance {tolerance:.3e})"
        )
    return PageRankResult(scores, iterations, converged, residual)


_Edges = tuple[list[int], list[int], list[float]]


def _iterate_python(
    teleport: list[float],
    out_weight: list[float],
    edges: _Edges,
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[list[float], int, bool, float]:
    """Power iteration over the edge list; the reference kernel.

    Every sum runs sequentially in node order (dangling mass, L1
    residual), and each node's next mass starts from its base term and
    then adds its in-edges in edge-list order — the float-operation
    order :func:`_iterate_numpy` reproduces.
    """
    dangling = [i for i, total in enumerate(out_weight) if total == 0.0]
    edge_list = list(zip(*edges))
    scores = list(teleport)
    residual = 0.0
    for iteration in range(1, max_iterations + 1):
        dangling_mass = 0.0
        for i in dangling:
            dangling_mass += scores[i]
        next_scores = [
            (1.0 - damping) * t + damping * dangling_mass * t
            for t in teleport
        ]
        share = [
            damping * score / total if total != 0.0 else 0.0
            for score, total in zip(scores, out_weight)
        ]
        for source, target, weight in edge_list:
            next_scores[target] += share[source] * weight
        residual = 0.0
        for new, old in zip(next_scores, scores):
            residual += abs(new - old)
        scores = next_scores
        if residual < tolerance:
            return scores, iteration, True, residual
    return scores, max_iterations, False, residual


def _iterate_numpy(
    teleport: list[float],
    out_weight: list[float],
    edges: _Edges,
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[list[float], int, bool, float]:
    """:func:`_iterate_python` as one CSR ``bincount`` per iteration.

    ``np.bincount`` adds its weights into each bin in array order,
    starting from 0.0.  Bit identity with the reference kernel follows
    from three layout rules:

    - edges keep the shared edge-list order (source in node order,
      then successor insertion order);
    - each node's base term ``(1-d)·t + d·dm·t`` is that node's first
      entry, ahead of its edge contributions;
    - the dangling mass and the L1 residual are bincounts into a
      single bin, i.e. sequential sums (``np.sum`` sums pairwise).
    """
    import numpy as np

    n = len(teleport)
    sources, targets, weights = edges
    edge_source = np.array(sources, dtype=np.intp)
    edge_weight = np.array(weights, dtype=np.float64)
    edge_total = np.array(out_weight, dtype=np.float64)[edge_source]
    bins = np.concatenate(
        [np.arange(n, dtype=np.intp), np.array(targets, dtype=np.intp)]
    )
    dangling = np.array(
        [i for i, total in enumerate(out_weight) if total == 0.0],
        dtype=np.intp,
    )
    one_bin_dangling = np.zeros(len(dangling), dtype=np.intp)
    one_bin_nodes = np.zeros(n, dtype=np.intp)
    t = np.array(teleport, dtype=np.float64)
    scores = t
    residual = 0.0
    for iteration in range(1, max_iterations + 1):
        dangling_mass = float(
            np.bincount(one_bin_dangling, weights=scores[dangling],
                        minlength=1)[0]
        )
        base = (1.0 - damping) * t + damping * dangling_mass * t
        contributions = damping * scores[edge_source] / edge_total * edge_weight
        next_scores = np.bincount(
            bins, weights=np.concatenate([base, contributions]), minlength=n
        )
        residual = float(
            np.bincount(one_bin_nodes, weights=np.abs(next_scores - scores),
                        minlength=1)[0]
        )
        scores = next_scores
        if residual < tolerance:
            return scores.tolist(), iteration, True, residual
    return scores.tolist(), max_iterations, False, residual


def _validate_controls(
    damping: float, tolerance: float, max_iterations: int
) -> None:
    if not 0.0 <= damping < 1.0:
        raise ParameterError(f"damping must be in [0, 1), got {damping}")
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be > 0, got {tolerance}")
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
