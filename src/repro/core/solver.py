"""Fixed-point solver for the MASS influence system (Eqs. 1–4).

The system couples every blogger's overall influence to their
commenters' influence:

    Inf(b_i)      = α · AP(b_i) + (1 − α) · GL(b_i)
    AP(b_i)       = Σ_k Inf(b_i, d_k)
    Inf(b_i, d_k) = β · Q(d_k) + (1 − β) · Σ_j Inf(b_j) · SF / TC(b_j)

Substituting, overall influence satisfies the linear fixed point
``x = c + A x`` with

    c_i = α · β · Σ_k Q(d_k)  +  (1 − α) · GL(b_i)
    A_ij = α · (1 − β) · Σ_{j's comments on i's posts} SF / TC(j).

When ``A`` is a contraction (see
:meth:`repro.core.parameters.MassParameters.contraction_bound`) plain
Jacobi iteration from ``x⁰ = c`` converges geometrically and the solver
runs in that mode.  When the citation ablation removes the TC divisor
the bound is void; CommentScore then no longer references influence at
all (it degenerates to sentiment-weighted comment counting), so the
"iteration" closes after one step.

Per-post influences Inf(b_i, d_k) — the inputs to the domain scores of
Eq. 5 — are evaluated once from the converged solution.

Two interchangeable backends run the iteration (selected by
``MassParameters.solver_backend``): the **reference** backend below
sweeps dict-of-dicts term lists and is the executable specification of
the equations; the **sparse** backend compiles the corpus into flat
CSR arrays (:mod:`repro.core.assemble`) and sweeps them as array
kernels (:mod:`repro.core.sparse_solver`).  The equivalence suite
holds the two to 1e-9 on every fixture.  All stage timing goes through
the :mod:`repro.obs` spans and histograms — ``solver`` wraps the fixed
point, with ``assemble`` / ``iterate`` / ``scatter`` children on the
sparse path.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass

from repro.core.assemble import AssemblyCache, compile_system
from repro.core.comments import CommentModel, corpus_horizon
from repro.core.novelty import NoveltyDetector
from repro.core.parallel import (
    ShardPlanCache,
    parallel_solve,
    resolve_num_workers,
    resolve_shard_count,
)
from repro.core.parameters import MassParameters
from repro.core.quality import QualityScorer
from repro.core.sparse_solver import (
    FrontierSolution,
    evaluate_posts,
    frontier_solve,
    jacobi_solve,
)
from repro.data.corpus import BlogCorpus
from repro.errors import ConvergenceError
from repro.graph.hits import hits
from repro.graph.influence_graph import link_graph
from repro.graph.pagerank import pagerank
from repro.nlp.sentiment import SentimentClassifier
from repro.obs import NULL_INSTRUMENTATION, Instrumentation, get_logger

__all__ = [
    "EQUIVALENCE_TOLERANCE",
    "InfluenceScores",
    "InfluenceSolver",
    "compute_gl_scores",
]

_LOG = get_logger("solver")

#: The repo-wide backend-equivalence bound: every solver path (sparse,
#: reference, parallel, frontier warm apply) must land within this of
#: every other on the same corpus.  The frontier's drop floor budgets
#: against it — see :meth:`InfluenceSolver._frontier_tolerances`.
EQUIVALENCE_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class InfluenceScores:
    """Converged influence assignment plus diagnostics.

    Attributes
    ----------
    influence:
        Inf(b) per blogger (Eq. 1).
    post_influence:
        Inf(b_i, d_k) per post id (Eq. 4).
    ap / gl:
        The two components of Eq. 1 per blogger.
    quality / comment_score:
        Per-post QualityScore and CommentScore at the fixed point.
    iterations / converged / residual:
        Solver diagnostics (residual is the final L1 step size).
    backend:
        Which solver implementation produced the scores
        (``"reference"``, ``"sparse"``, or ``"parallel"``).
    """

    influence: dict[str, float]
    post_influence: dict[str, float]
    ap: dict[str, float]
    gl: dict[str, float]
    quality: dict[str, float]
    comment_score: dict[str, float]
    iterations: int
    converged: bool
    residual: float
    backend: str = "reference"


def compute_gl_scores(corpus: BlogCorpus, params: MassParameters) -> dict[str, float]:
    """General Links authority per blogger under the configured backend.

    ``gl_normalization="mean"`` rescales so the population mean is 1,
    putting GL on the same order as AP; ``"sum"`` keeps the raw
    probability-distribution output (sums to 1).
    """
    graph = link_graph(corpus)
    if len(graph) == 0:
        return {}
    if params.gl_method == "pagerank":
        scores = pagerank(
            graph,
            damping=params.pagerank_damping,
            tolerance=params.tolerance,
            max_iterations=params.max_iterations,
        ).scores
    elif params.gl_method == "hits":
        scores = hits(
            graph,
            tolerance=params.tolerance,
            max_iterations=params.max_iterations,
        ).authorities
    else:  # "inlinks"
        counts = {node: graph.in_degree(node, weighted=True) for node in graph}
        total = sum(counts.values())
        if total == 0.0:
            # No links at all: authority is uniform.
            scores = {node: 1.0 / len(graph) for node in graph}
        else:
            scores = {node: value / total for node, value in counts.items()}
    if params.gl_normalization == "mean":
        mean = sum(scores.values()) / len(scores)
        if mean > 0:
            scores = {node: value / mean for node, value in scores.items()}
        else:
            # An all-zero authority vector (e.g. HITS over a linkless
            # graph) cannot be mean-normalized; fall back to uniform
            # authority (mean exactly 1) instead of silently returning
            # zeros that knock GL out of Eq. 1.
            _LOG.warning(
                "GL scores from %r are all zero for %d bloggers; "
                "falling back to uniform authority",
                params.gl_method, len(scores),
            )
            scores = {node: 1.0 for node in scores}
    return scores


class InfluenceSolver:
    """Solve the influence system for one corpus.

    Parameters
    ----------
    corpus:
        A validated :class:`BlogCorpus` (freeze it first).
    params:
        Model parameters; defaults to the paper's.
    sentiment_classifier / novelty_detector:
        Optional analyzer overrides; default to the built-ins.
    instrumentation:
        Observability sinks (metrics + tracing); no-op when omitted.
    sentiment_cache:
        Optional comment-id → sentiment-breakdown cache handed to the
        :class:`CommentModel` so repeated solves over growing corpora
        only classify new comments.
    assembly_cache:
        Optional :class:`repro.core.assemble.AssemblyCache`; the sparse
        backend then reuses the previous compilation and re-assembles
        only dirty rows (the incremental analyzer's warm-start path).
    """

    def __init__(
        self,
        corpus: BlogCorpus,
        params: MassParameters | None = None,
        sentiment_classifier: SentimentClassifier | None = None,
        novelty_detector: NoveltyDetector | None = None,
        instrumentation: Instrumentation | None = None,
        sentiment_cache: MutableMapping[str, object] | None = None,
        assembly_cache: AssemblyCache | None = None,
    ) -> None:
        self._corpus = corpus
        self._params = params or MassParameters()
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._assembly_cache = assembly_cache
        # One reference day for every decayed weight: the corpus
        # horizon, computed once so CommentModel and QualityScorer
        # agree on what "fresh" means (None when decay is inert).
        self._reference_day = (
            corpus_horizon(corpus) if self._params.decay_active else None
        )
        with self._instr.tracer.span("comment-model"):
            self._comment_model = CommentModel(
                corpus, self._params, sentiment_classifier,
                sentiment_cache=sentiment_cache,
                reference_day=self._reference_day,
            )
        # Route per-post word counts / novelty values through the
        # assembly cache when one is attached: posts are immutable, so
        # a warm re-solve only tokenizes the delta's posts.  Novelty is
        # only cacheable for the default detector (a pure function of
        # the post text); custom detectors may be corpus-dependent.
        word_counts = None
        novelty_values = None
        if assembly_cache is not None:
            word_counts = assembly_cache.word_counts
            if novelty_detector is None:
                novelty_values = assembly_cache.novelty_values_for(
                    self._params
                )
        self._quality_scorer = QualityScorer(
            self._params, novelty_detector, corpus.posts.values(),
            reference_day=self._reference_day,
            word_counts=word_counts,
            novelty_values=novelty_values,
        )
        # Whole-score memoization is only sound when every input the
        # scorer folds in is covered by the memo key — which rules out
        # custom novelty detectors (see quality_scores_for).
        self._quality_memo_eligible = (
            assembly_cache is not None and novelty_detector is None
        )

    @property
    def params(self) -> MassParameters:
        """The parameters this solver was built with."""
        return self._params

    @property
    def comment_model(self) -> CommentModel:
        """The resolved per-post comment terms (for diagnostics)."""
        return self._comment_model

    def solve(
        self,
        strict: bool = False,
        initial: dict[str, float] | None = None,
    ) -> InfluenceScores:
        """Run the fixed-point iteration and evaluate all score layers.

        With ``strict=True`` a non-converged run raises
        :class:`ConvergenceError` instead of returning partial scores.
        ``initial`` warm-starts the iteration from a previous solution
        (unknown bloggers fall back to the constant term); because the
        fixed point is unique under the contraction condition, a warm
        start changes only the iteration count, never the answer.

        The fixed point runs on the backend
        ``params.resolved_solver_backend()`` selects; both backends
        agree to 1e-9 (see ``tests/test_backend_equivalence.py``).
        """
        params = self._params
        corpus = self._corpus
        bloggers = corpus.blogger_ids()
        metrics = self._instr.metrics
        tracer = self._instr.tracer
        backend = params.resolved_solver_backend()

        cache = self._assembly_cache
        if cache is not None:
            # Stale change-sets from a previous solve must never leak
            # into this one's report-building decisions.
            cache.last_changed_ids = None
            cache.last_changed_authors = None
            cache.last_frontier_touched_rows = None
            cache.last_frontier_seed_rows = None

        gl_reused = False
        with tracer.span("gl"), metrics.histogram(
            "repro_solver_gl_seconds", "GL authority computation time"
        ).time():
            gl = None
            if cache is not None:
                gl = cache.cached_gl(corpus, params)
            if gl is None:
                gl = compute_gl_scores(corpus, params)
                if cache is not None:
                    cache.store_gl(gl, corpus, params)
            else:
                gl_reused = True
        with tracer.span("quality"), metrics.histogram(
            "repro_solver_quality_seconds", "QualityScore computation time"
        ).time():
            scorer = self._quality_scorer
            memo = None
            if self._quality_memo_eligible:
                memo = cache.quality_scores_for(
                    params, scorer.max_words, self._reference_day
                )
            if memo is None:
                quality = {
                    post_id: scorer.score(corpus.post(post_id))
                    for post_id in sorted(corpus.posts)
                }
            else:
                # Posts are immutable, so a memo hit replays the exact
                # float of the solve that computed it; only the delta's
                # posts (or a normalizer change) pay for scoring.
                quality = {}
                for post_id in sorted(corpus.posts):
                    value = memo.get(post_id)
                    if value is None:
                        value = scorer.score(corpus.post(post_id))
                        memo[post_id] = value
                    quality[post_id] = value

        if backend in ("sparse", "parallel"):
            (influence, comment_scores, post_influence, ap, iterations,
             converged, residual) = self._solve_sparse(
                gl, quality, initial, parallel=(backend == "parallel"),
                gl_reused=gl_reused,
            )
        else:
            (influence, comment_scores, post_influence, ap, iterations,
             converged, residual) = self._solve_reference(
                bloggers, gl, quality, initial
            )

        self._record_solve_metrics(iterations, residual)
        self._handle_convergence(
            converged, iterations, residual, strict, len(bloggers)
        )

        return InfluenceScores(
            influence=influence,
            post_influence=post_influence,
            ap=ap,
            gl={blogger_id: gl.get(blogger_id, 0.0) for blogger_id in bloggers},
            quality=quality,
            comment_score=comment_scores,
            iterations=iterations,
            converged=converged,
            residual=residual,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Reference backend: the dict-sweep executable specification.
    # ------------------------------------------------------------------
    def _solve_reference(
        self,
        bloggers: list[str],
        gl: dict[str, float],
        quality: dict[str, float],
        initial: dict[str, float] | None,
    ):
        params = self._params
        corpus = self._corpus
        metrics = self._instr.metrics
        tracer = self._instr.tracer

        # Constant term c_i = α β ΣQ + (1 − α) GL.
        quality_sum = {blogger_id: 0.0 for blogger_id in bloggers}
        for post_id, value in quality.items():
            quality_sum[corpus.post(post_id).author_id] += value
        constant = {
            blogger_id: params.alpha * params.beta * quality_sum[blogger_id]
            + (1.0 - params.alpha) * gl.get(blogger_id, 0.0)
            for blogger_id in bloggers
        }

        # Flattened linear terms: for blogger i, the (j, weight) pairs
        # over all comments on all of i's posts.  weight = SF / TC(j).
        linear_terms: dict[str, list[tuple[str, float]]] = {
            blogger_id: [] for blogger_id in bloggers
        }
        if params.use_citation:
            for post_id in sorted(corpus.posts):
                author_id = corpus.post(post_id).author_id
                for term in self._comment_model.terms_for(post_id):
                    linear_terms[author_id].append(
                        (term.commenter_id, term.citation_weight)
                    )
        else:
            # Citation off: CommentScore is influence-free, so it folds
            # into the constant and the system closes in one step.
            for post_id in sorted(corpus.posts):
                author_id = corpus.post(post_id).author_id
                score = self._comment_model.comment_score(post_id, {})
                constant[author_id] += params.alpha * (1.0 - params.beta) * score

        coupling = params.alpha * (1.0 - params.beta)
        iterations = 0
        residual = 0.0
        converged = not any(linear_terms.values())
        if initial is None or converged:
            # No coupling (or no warm start): the constant term is the
            # exact solution / canonical starting point.
            influence = dict(constant)
        else:
            influence = {
                blogger_id: initial.get(blogger_id, constant[blogger_id])
                for blogger_id in bloggers
            }

        with tracer.span("solver") as span, metrics.histogram(
            "repro_solver_iterate_seconds", "Fixed-point iteration time"
        ).time():
            while not converged and iterations < params.max_iterations:
                iterations += 1
                next_influence = {}
                for blogger_id in bloggers:
                    acc = 0.0
                    for commenter_id, weight in linear_terms[blogger_id]:
                        acc += influence[commenter_id] * weight
                    next_influence[blogger_id] = (
                        constant[blogger_id] + coupling * acc
                    )
                residual = sum(
                    abs(next_influence[blogger_id] - influence[blogger_id])
                    for blogger_id in bloggers
                )
                influence = next_influence
                if residual < params.tolerance:
                    converged = True
                span.event(iteration=iterations, residual=residual)
                _LOG.debug(
                    "iteration %d: residual %.3e (tolerance %.1e)",
                    iterations, residual, params.tolerance,
                )

        # Evaluate the per-post layers at the fixed point.
        comment_scores = {
            post_id: self._comment_model.comment_score(post_id, influence)
            for post_id in sorted(corpus.posts)
        }
        post_influence = {
            post_id: params.beta * quality[post_id]
            + (1.0 - params.beta) * comment_scores[post_id]
            for post_id in sorted(corpus.posts)
        }
        ap = {blogger_id: 0.0 for blogger_id in bloggers}
        for post_id, value in post_influence.items():
            ap[corpus.post(post_id).author_id] += value
        return (influence, comment_scores, post_influence, ap, iterations,
                converged, residual)

    # ------------------------------------------------------------------
    # Sparse backend: compiled CSR arrays + vectorized Jacobi sweeps.
    # ------------------------------------------------------------------
    def _solve_sparse(
        self,
        gl: dict[str, float],
        quality: dict[str, float],
        initial: dict[str, float] | None,
        parallel: bool = False,
        gl_reused: bool = False,
    ):
        params = self._params
        corpus = self._corpus
        metrics = self._instr.metrics
        tracer = self._instr.tracer
        cache = self._assembly_cache

        with tracer.span("solver") as span:
            with tracer.span("assemble"), metrics.histogram(
                "repro_solver_assemble_seconds",
                "Sparse-system assembly time",
            ).time():
                if cache is not None:
                    compiled = cache.compile(
                        corpus, params, self._comment_model, quality, gl
                    )
                else:
                    compiled = compile_system(
                        corpus, params, self._comment_model, quality, gl
                    )

            # The frontier fast path is sound only when this solve is a
            # certified continuation of the cache's previous one: a
            # dirty-row refresh warm-started from exactly the solution
            # the cache registered, with GL provably unmoved and the
            # contraction bound certifying residual propagation.
            old_rows = 0
            fast_ready = (
                cache is not None
                and not parallel
                and compiled.nnz > 0
                and cache.last_mode == "refresh"
                and gl_reused
                and initial is not None
                and initial is cache.last_solution
                and cache.last_x is not None
                and cache.last_scatter is not None
                and params.contraction_bound() < 1.0
            )
            if fast_ready:
                old_rows = len(cache.last_x)
                fast_ready = old_rows <= compiled.num_bloggers

            x0 = None
            constant = compiled.constant
            if initial is not None and compiled.nnz:
                if fast_ready:
                    x0 = list(cache.last_x)
                    for row in range(old_rows, compiled.num_bloggers):
                        x0.append(constant[row])
                else:
                    x0 = [
                        initial.get(blogger_id, constant[row])
                        for row, blogger_id in enumerate(
                            compiled.blogger_ids
                        )
                    ]

            def _on_iteration(iteration: int, residual: float) -> None:
                span.event(iteration=iteration, residual=residual)
                _LOG.debug(
                    "iteration %d: residual %.3e (tolerance %.1e)",
                    iteration, residual, params.tolerance,
                )

            with tracer.span("iterate"), metrics.histogram(
                "repro_solver_iterate_seconds", "Fixed-point iteration time"
            ).time():
                solution = None
                if fast_ready:
                    seeds = (
                        set(cache.last_dirty_row_ids)
                        | cache.last_constant_dirty_rows
                        | cache.last_new_rows
                    )
                    stop, drop = self._frontier_tolerances(params)
                    solution = frontier_solve(
                        compiled,
                        stop,
                        params.max_iterations,
                        x0,
                        seeds,
                        cache.ensure_dependents(),
                        drop=drop,
                    )
                    if solution is not None:
                        cache.last_frontier_seed_rows = seeds
                        cache.last_frontier_touched_rows = (
                            solution.touched_rows
                        )
                        span.event(
                            frontier_rows=len(solution.touched_rows),
                            frontier_sweeps=solution.iterations,
                        )
                if solution is None:
                    if parallel:
                        solution = self._run_parallel(
                            compiled, x0, _on_iteration
                        )
                    else:
                        solution = jacobi_solve(
                            compiled,
                            params.tolerance,
                            params.max_iterations,
                            initial=x0,
                            on_iteration=_on_iteration,
                        )

            with tracer.span("scatter"), metrics.histogram(
                "repro_solver_scatter_seconds",
                "Fixed-point scatter (Eqs. 2–4 evaluation) time",
            ).time():
                x = solution.influence
                changed_ids = None
                changed_authors = None
                if isinstance(solution, FrontierSolution):
                    (influence, comment_scores, post_influence, ap,
                     changed_ids, changed_authors) = (
                        self._incremental_scatter(
                            compiled, x, solution, initial, old_rows
                        )
                    )
                else:
                    comment_list, post_list, ap_list = evaluate_posts(
                        compiled, x
                    )
                    influence = dict(zip(compiled.blogger_ids, x))
                    comment_scores = dict(
                        zip(compiled.post_ids, comment_list)
                    )
                    post_influence = dict(zip(compiled.post_ids, post_list))
                    ap = dict(zip(compiled.blogger_ids, ap_list))

            if cache is not None:
                # Register this solution as the continuation point of
                # the next warm apply.
                cache.last_solution = influence
                cache.last_x = list(x)
                cache.last_scatter = (comment_scores, post_influence, ap)
                cache.last_changed_ids = changed_ids
                cache.last_changed_authors = changed_authors
        return (influence, comment_scores, post_influence, ap,
                solution.iterations, solution.converged, solution.residual)

    @staticmethod
    def _frontier_tolerances(
        params: MassParameters,
    ) -> tuple[float, float]:
        """(stop, drop) tolerances handed to :func:`frontier_solve`.

        The contraction bound ``q`` is an ℓ∞ (row-sum) bound, so the
        fixed-point error obeys ``‖x − x*‖∞ ≤ ρ/(1−q)`` where ``ρ`` is
        the largest *per-row* residual left behind.  An early exit
        leaves per-row residual below ``stop`` (the measured sweep
        criterion, same as the full Jacobi kernels); a dropped update
        leaves below ``drop`` on its one row — per-row bounds do not
        accumulate across rows, which is what lets the drop floor be
        budgeted against the repo's 1e-9 cold-equivalence harness
        (:data:`EQUIVALENCE_TOLERANCE`) rather than divided by ``n``.
        Both floors are derated by ``(1−q)`` and halved, keeping every
        warm apply within ``EQUIVALENCE_TOLERANCE`` of the true fixed
        point — independently per apply, so a *chain* of warm applies
        cannot drift.  The drop floor is also what makes the frontier
        local: without it, ~1e-16 float noise propagates along every
        edge and recruits the whole graph.
        """
        bound = params.contraction_bound()
        stop = params.tolerance * 0.5 * (1.0 - bound)
        drop = EQUIVALENCE_TOLERANCE * 0.5 * (1.0 - bound)
        return stop, max(stop, drop)

    def _incremental_scatter(
        self,
        compiled,
        x: list[float],
        solution: FrontierSolution,
        initial: dict[str, float],
        old_rows: int,
    ):
        """Patch the previous scatter instead of re-evaluating O(corpus).

        Only posts whose terms, quality, or referenced influence moved
        are re-evaluated (same accumulation order as
        :func:`evaluate_posts`, so patched values are bit-identical to
        a full scatter); their authors' AP sums are re-accumulated from
        the patched per-post values.  Returns the patched dicts plus
        the changed blogger-id set the report/snapshot layers patch
        rankings and profiles with.
        """
        cache = self._assembly_cache
        corpus = self._corpus
        prev_comment, prev_post, prev_ap = cache.last_scatter
        beta = compiled.beta
        post_pos = cache.post_pos
        blogger_ids = compiled.blogger_ids

        changed_posts = (
            cache.last_dirty_posts
            | cache.last_new_posts
            | cache.last_quality_dirty_posts
        )
        post_deps = cache.ensure_post_dependents()
        for row in solution.changed_rows:
            referencing = post_deps.get(row)
            if referencing:
                changed_posts |= referencing

        comment_scores = dict(prev_comment)
        post_influence = dict(prev_post)
        ptr = compiled.post_row_ptr
        cols = compiled.post_col_idx
        weights = compiled.post_weights
        quality = compiled.post_quality
        use_citation = compiled.use_citation
        for post_id in sorted(changed_posts):
            k = post_pos[post_id]
            if use_citation:
                score = 0.0
                for j in range(ptr[k], ptr[k + 1]):
                    score += x[cols[j]] * weights[j]
            else:
                score = compiled.post_sf_sum[k]
            comment_scores[post_id] = score
            post_influence[post_id] = (
                beta * quality[k] + (1.0 - beta) * score
            )

        author = compiled.post_author
        changed_author_rows = {author[post_pos[p]] for p in changed_posts}
        ap = dict(prev_ap)
        for row in range(old_rows, compiled.num_bloggers):
            ap[blogger_ids[row]] = 0.0
        for row in sorted(changed_author_rows | cache.last_new_rows):
            blogger_id = blogger_ids[row]
            total = 0.0
            for post in sorted(
                corpus.posts_by(blogger_id), key=lambda p: p.post_id
            ):
                total += post_influence[post.post_id]
            ap[blogger_id] = total

        influence = dict(initial)
        for row in range(old_rows, compiled.num_bloggers):
            influence[blogger_ids[row]] = x[row]
        for row in sorted(solution.changed_rows):
            influence[blogger_ids[row]] = x[row]

        changed_ids = {blogger_ids[row] for row in solution.changed_rows}
        changed_authors = {blogger_ids[row] for row in changed_author_rows}
        changed_ids |= changed_authors
        changed_ids |= {blogger_ids[row] for row in cache.last_new_rows}
        changed_ids |= {
            blogger_ids[row] for row in cache.last_dirty_row_ids
        }
        # Commenters in the delta: their influence may be untouched but
        # their profile (TC / num_comments_written) is not.
        index = compiled.index
        for commenter_id in cache.last_commenter_ids:
            if commenter_id in index:
                changed_ids.add(commenter_id)
        return (influence, comment_scores, post_influence, ap,
                changed_ids, changed_authors | set(
                    blogger_ids[row] for row in cache.last_new_rows
                ))

    def _run_parallel(self, compiled, x0, on_iteration):
        """Dispatch to the shard-parallel pipeline and record telemetry.

        The shard plan is cached across warm re-solves on the assembly
        cache (when one is attached): a dirty-row refresh then reuses
        the partition, and the ``repro_solver_shard_dirty`` gauge
        reports how many shards the refresh actually touched.
        """
        params = self._params
        metrics = self._instr.metrics
        tracer = self._instr.tracer
        workers = resolve_num_workers(params.num_workers)
        shard_count = resolve_shard_count(
            params.shard_count, compiled.num_bloggers, workers
        )
        plan = None
        cache = self._assembly_cache
        if cache is not None and shard_count:
            if cache.shard_plan is None:
                cache.shard_plan = ShardPlanCache()
            plan, _ = cache.shard_plan.plan_for(compiled, shard_count)
        solution = parallel_solve(
            compiled,
            params.tolerance,
            params.max_iterations,
            initial=x0,
            num_workers=workers,
            shard_count=shard_count,
            plan=plan,
            on_iteration=on_iteration,
        )
        plan = solution.plan
        metrics.gauge(
            "repro_solver_shard_count",
            "Row shards of the last parallel solve",
        ).set(plan.shard_count)
        metrics.gauge(
            "repro_solver_shard_workers",
            "Worker count of the last parallel solve",
        ).set(solution.num_workers)
        dirty = plan.shard_count
        if cache is not None and cache.last_mode == "refresh":
            dirty = len(plan.dirty_shards(cache.last_dirty_row_ids))
        metrics.gauge(
            "repro_solver_shard_dirty",
            "Shards holding dirty rows at the last (re)assembly",
        ).set(dirty)
        sweep_hist = metrics.histogram(
            "repro_solver_shard_sweep_seconds",
            "Cumulative sweep time per shard per solve",
        )
        for sid, seconds in enumerate(solution.shard_seconds):
            sweep_hist.observe(seconds)
            start, end = plan.bounds[sid]
            with tracer.span("shard") as shard_span:
                # The sweep itself ran on the pool; this span carries
                # the per-shard telemetry, not the sweep duration.
                shard_span.event(
                    shard=sid,
                    rows=end - start,
                    mode=solution.mode,
                    sweep_seconds=round(seconds, 6),
                )
        # Graft the forked workers' lifetime spans (process mode ships
        # one record per worker at pool shutdown) into this trace, so
        # the request tree reaches all the way into the child
        # processes' Jacobi sweeps.
        for record in solution.worker_spans:
            fields = dict(record)
            tracer.adopt(
                str(fields.pop("name", "shard-worker")),
                duration=float(fields.pop("duration", 0.0)),
                wall_start=fields.pop("wall_start", None),
                trace_id=fields.pop("trace_id", None),
                parent_id=fields.pop("parent_id", None),
                **fields,
            )
        return solution

    # ------------------------------------------------------------------
    # Shared telemetry and convergence handling.
    # ------------------------------------------------------------------
    def _record_solve_metrics(self, iterations: int, residual: float) -> None:
        metrics = self._instr.metrics
        params = self._params
        metrics.counter(
            "repro_solver_solves_total", "Influence systems solved"
        ).inc()
        metrics.counter(
            "repro_solver_iterations_total", "Fixed-point iterations run"
        ).inc(iterations)
        metrics.gauge(
            "repro_solver_last_iterations", "Iterations of the last solve"
        ).set(iterations)
        metrics.gauge(
            "repro_solver_residual", "Final L1 residual of the last solve"
        ).set(residual)
        metrics.histogram(
            "repro_solver_iterations",
            "Fixed-point iterations per solve",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
        ).observe(iterations)
        bound = params.contraction_bound()
        if bound != float("inf"):
            metrics.gauge(
                "repro_solver_contraction_bound",
                "Operator-norm bound of the influence system",
            ).set(bound)

    def _handle_convergence(
        self,
        converged: bool,
        iterations: int,
        residual: float,
        strict: bool,
        num_bloggers: int,
    ) -> None:
        params = self._params
        if not converged:
            self._instr.metrics.counter(
                "repro_solver_non_converged_total",
                "Solves hitting the iteration cap",
            ).inc()
            if strict:
                raise ConvergenceError(
                    f"influence iteration did not converge in "
                    f"{params.max_iterations} iterations "
                    f"(residual {residual:.3e}); "
                    f"contraction bound is {params.contraction_bound():.3f}"
                )
            _LOG.warning(
                "influence iteration did not converge in %d iterations "
                "(residual %.3e, tolerance %.1e, contraction bound %.3f); "
                "returning partial scores",
                params.max_iterations, residual, params.tolerance,
                params.contraction_bound(),
            )
        else:
            _LOG.debug(
                "solved %d bloggers in %d iterations (residual %.3e)",
                num_bloggers, iterations, residual,
            )
