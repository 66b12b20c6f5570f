"""Incremental re-analysis as the crawler discovers new content.

A deployed MASS keeps crawling; re-running the whole pipeline per new
comment would be wasteful.  :class:`IncrementalAnalyzer` maintains the
current corpus and report, applies :class:`CorpusDelta` batches (new
bloggers, posts, comments, links), and re-solves the influence system
**warm-started from the previous fixed point** — the solution is
identical (the fixed point is unique under the contraction condition;
see :mod:`repro.core.parameters`) but typically converges in a fraction
of the iterations when the delta is small.

Each post is tokenized once, by the one text pass
(:func:`~repro.core.text_features.text_features`) that feeds Length,
Novelty and the batch domain classifier; post domain memberships are
cached, so only new posts are tokenized and classified.
Under the sparse solver backend the analyzer additionally carries an
:class:`~repro.core.assemble.AssemblyCache` across re-solves: the
compiled CSR arrays are reused and only *dirty* rows (rows the delta
can actually change) are re-assembled, and comment sentiment is only
classified for comments the previous pass has not seen.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.assemble import AssemblyCache
from repro.core.domains import DomainInfluence
from repro.core.novelty import LexiconNoveltyDetector
from repro.core.parameters import MassParameters
from repro.core.report import InfluenceReport
from repro.core.solver import InfluenceScores, InfluenceSolver
from repro.core.text_features import text_features
from repro.data.corpus import BlogCorpus
from repro.data.entities import Blogger, Comment, Link, Post
from repro.errors import CorpusError, ReproError
from repro.nlp.naive_bayes import NaiveBayesClassifier
from repro.obs import NULL_INSTRUMENTATION, Instrumentation, get_logger

__all__ = ["CorpusDelta", "IncrementalAnalyzer"]

_LOG = get_logger("incremental")


@dataclass(frozen=True, slots=True)
class CorpusDelta:
    """A batch of newly crawled entities."""

    bloggers: Sequence[Blogger] = field(default_factory=tuple)
    posts: Sequence[Post] = field(default_factory=tuple)
    comments: Sequence[Comment] = field(default_factory=tuple)
    links: Sequence[Link] = field(default_factory=tuple)

    def is_empty(self) -> bool:
        """Whether the delta contains nothing."""
        return not (self.bloggers or self.posts or self.comments or self.links)

    def size(self) -> int:
        """Total number of entities in the delta."""
        return (
            len(self.bloggers) + len(self.posts)
            + len(self.comments) + len(self.links)
        )

    @classmethod
    def merge(cls, *deltas: "CorpusDelta") -> "CorpusDelta":
        """Coalesce deltas into one batch, preserving arrival order.

        Conflicting entity ids (the same blogger, post, or comment id
        appearing in more than one delta, or twice within one) raise
        :class:`~repro.errors.CorpusError` — applying such a stream
        delta-by-delta would fail anyway, and failing *before* anything
        is applied keeps the corpus untouched.  Links are exempt:
        parallel links are legal and merge additively at the corpus
        level.
        """
        bloggers: list[Blogger] = []
        posts: list[Post] = []
        comments: list[Comment] = []
        links: list[Link] = []
        seen: dict[str, set[str]] = {
            "blogger": set(), "post": set(), "comment": set()
        }

        def take(kind: str, entity_id: str) -> None:
            if entity_id in seen[kind]:
                raise CorpusError(
                    f"cannot merge deltas: duplicate {kind} id {entity_id!r}"
                )
            seen[kind].add(entity_id)

        for delta in deltas:
            for blogger in delta.bloggers:
                take("blogger", blogger.blogger_id)
                bloggers.append(blogger)
            for post in delta.posts:
                take("post", post.post_id)
                posts.append(post)
            for comment in delta.comments:
                take("comment", comment.comment_id)
                comments.append(comment)
            links.extend(delta.links)
        return cls(
            bloggers=tuple(bloggers),
            posts=tuple(posts),
            comments=tuple(comments),
            links=tuple(links),
        )

    @classmethod
    def between(
        cls, base: BlogCorpus, grown: BlogCorpus, *, strict: bool = True
    ) -> "CorpusDelta":
        """The delta that grows ``base`` into ``grown``.

        With ``strict`` (the default) ``grown`` must be a superset of
        ``base`` (MASS corpora only ever grow); an entity present in
        ``base`` but absent from ``grown`` raises
        :class:`~repro.errors.CorpusError`.  ``strict=False`` treats
        ``grown`` as a *partial* view — a re-crawl that did not reach
        every old space — and simply emits what is new.  Link weights
        may increase — parallel links merge additively — in which case
        the delta carries a link for the weight *difference*.  Entities
        are emitted in sorted-id order so the same pair of corpora
        always produces the same delta.

        **Partial-view contract:** deltas are append-only, so a link
        weight that *decreased* between the two corpora cannot be
        represented.  Under ``strict=False`` the decrease is dropped
        from the delta — the analyzer keeps serving the old, higher
        weight — and a structured ``link-weight-decrease`` warning is
        emitted through :mod:`repro.obs` so operators can schedule a
        cold re-fit; under ``strict`` it raises
        :class:`~repro.errors.CorpusError`.
        """
        if strict:
            for kind, base_ids, grown_ids in (
                ("blogger", base.bloggers.keys(), grown.bloggers.keys()),
                ("post", base.posts.keys(), grown.posts.keys()),
                ("comment", base.comments.keys(), grown.comments.keys()),
            ):
                missing = base_ids - grown_ids
                if missing:
                    raise CorpusError(
                        f"grown corpus is missing {kind} id "
                        f"{sorted(missing)[0]!r} present in the base"
                    )

        bloggers = tuple(
            grown.blogger(bid)
            for bid in sorted(grown.bloggers.keys() - base.bloggers.keys())
        )
        posts = tuple(
            grown.post(pid)
            for pid in sorted(grown.posts.keys() - base.posts.keys())
        )
        comments = tuple(
            grown.comments[cid]
            for cid in sorted(grown.comments.keys() - base.comments.keys())
        )

        def weights(corpus: BlogCorpus) -> dict[tuple[str, str], float]:
            merged: dict[tuple[str, str], float] = {}
            for link in corpus.links:
                key = (link.source_id, link.target_id)
                merged[key] = merged.get(key, 0.0) + link.weight
            return merged

        base_weights = weights(base)
        links = []
        for key, weight in sorted(weights(grown).items()):
            delta_weight = weight - base_weights.get(key, 0.0)
            if delta_weight < 0:
                if strict:
                    raise CorpusError(
                        f"link ({key[0]!r} -> {key[1]!r}) lost weight "
                        "between base and grown corpus"
                    )
                _LOG.warning(
                    "link (%s -> %s) lost weight between base and grown "
                    "corpus; append-only deltas cannot carry a decrease, "
                    "the old weight stays in effect",
                    key[0], key[1],
                    extra={
                        "event": "link-weight-decrease",
                        "source_id": key[0],
                        "target_id": key[1],
                        "base_weight": base_weights.get(key, 0.0),
                        "grown_weight": weight,
                    },
                )
            if delta_weight > 0:
                links.append(Link(key[0], key[1], delta_weight))
        return cls(
            bloggers=bloggers, posts=posts, comments=comments,
            links=tuple(links),
        )


def _copy_corpus(corpus: BlogCorpus) -> BlogCorpus:
    """Deep-copy any corpus-protocol object into an owned BlogCorpus.

    Memory-mapped columnar corpora hand out lightweight row views
    rather than entity dataclasses; those are materialized here so the
    clone stays valid after the backing file is closed.
    """
    clone = BlogCorpus()
    for blogger_id in corpus.blogger_ids():
        blogger = corpus.blogger(blogger_id)
        if not isinstance(blogger, Blogger):
            blogger = Blogger(blogger.blogger_id, name=blogger.name,
                              profile_text=blogger.profile_text,
                              joined_day=blogger.joined_day)
        clone.add_blogger(blogger)
    for post_id in sorted(corpus.posts):
        post = corpus.post(post_id)
        if not isinstance(post, Post):
            post = Post(post.post_id, post.author_id, title=post.title,
                        body=post.body, created_day=post.created_day)
        clone.add_post(post)
    for comment_id in sorted(corpus.comments):
        comment = corpus.comments[comment_id]
        if not isinstance(comment, Comment):
            comment = Comment(comment.comment_id, comment.post_id,
                              comment.commenter_id, text=comment.text,
                              created_day=comment.created_day)
        clone.add_comment(comment)
    for link in corpus.links:
        if not isinstance(link, Link):
            link = Link(link.source_id, link.target_id, link.weight)
        clone.add_link(link)
    return clone


def _validate_delta(corpus: BlogCorpus, delta: CorpusDelta) -> None:
    """Check a delta against the corpus *before* any mutation.

    Only the delta's own entities and the referential edges they add
    are examined — everything already in the corpus was validated when
    it went in, and existing entities cannot reference new ones.  A
    failure here therefore leaves the corpus byte-for-byte untouched,
    which the durable ingestion pipeline relies on for its atomic
    apply-or-reject contract.
    """
    new_bloggers = set()
    for blogger in delta.bloggers:
        if blogger.blogger_id in corpus.bloggers \
                or blogger.blogger_id in new_bloggers:
            raise CorpusError(f"duplicate blogger id {blogger.blogger_id!r}")
        new_bloggers.add(blogger.blogger_id)
    known_bloggers = corpus.bloggers.keys() | new_bloggers

    new_posts = set()
    for post in delta.posts:
        if post.post_id in corpus.posts or post.post_id in new_posts:
            raise CorpusError(f"duplicate post id {post.post_id!r}")
        if post.author_id not in known_bloggers:
            raise CorpusError(
                f"post {post.post_id!r} authored by unknown blogger "
                f"{post.author_id!r}"
            )
        new_posts.add(post.post_id)
    known_posts = corpus.posts.keys() | new_posts

    new_comments = set()
    for comment in delta.comments:
        if comment.comment_id in corpus.comments \
                or comment.comment_id in new_comments:
            raise CorpusError(f"duplicate comment id {comment.comment_id!r}")
        if comment.post_id not in known_posts:
            raise CorpusError(
                f"comment {comment.comment_id!r} targets unknown post "
                f"{comment.post_id!r}"
            )
        if comment.commenter_id not in known_bloggers:
            raise CorpusError(
                f"comment {comment.comment_id!r} written by unknown blogger "
                f"{comment.commenter_id!r}"
            )
        new_comments.add(comment.comment_id)

    for link in delta.links:
        for endpoint in (link.source_id, link.target_id):
            if endpoint not in known_bloggers:
                raise CorpusError(
                    f"link ({link.source_id!r} -> {link.target_id!r}) "
                    f"references unknown blogger {endpoint!r}"
                )


class IncrementalAnalyzer:
    """Maintain a live MASS analysis under corpus growth.

    Parameters
    ----------
    classifier:
        A trained domain classifier (fixed for the analyzer's life —
        re-training on every delta would silently move old posts
        between domains).
    params:
        Model parameters.
    instrumentation:
        Observability sinks; tracks the warm-start iteration savings
        each delta buys over the cold initial fit.
    """

    def __init__(
        self,
        classifier: NaiveBayesClassifier,
        params: MassParameters | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._classifier = classifier
        self._params = params or MassParameters()
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._corpus: BlogCorpus | None = None
        self._owned = False  # whether _corpus is our private mutable copy
        self._report: InfluenceReport | None = None
        self._memberships: dict[str, dict[str, float]] = {}
        self._cache = AssemblyCache()
        # The quality scorer's default detector, fed by the text pass.
        self._novelty = LexiconNoveltyDetector(
            copied_value=self._params.novelty_copied
        )
        self._last_iterations = 0
        self._cold_iterations = 0

    @property
    def assembly_cache(self) -> AssemblyCache:
        """The compiled-array cache carried across re-solves."""
        return self._cache

    @property
    def params(self) -> MassParameters:
        """The parameters every (re)analysis runs with."""
        return self._params

    @property
    def classifier(self) -> NaiveBayesClassifier:
        """The fixed domain classifier behind the analyses."""
        return self._classifier

    @property
    def report(self) -> InfluenceReport:
        """The current analysis (raises before the first :meth:`fit`)."""
        if self._report is None:
            raise ReproError("no analysis yet; call fit() first")
        return self._report

    @property
    def last_iterations(self) -> int:
        """Solver iterations used by the most recent (re)analysis."""
        return self._last_iterations

    @property
    def last_changed_ids(self) -> set[str] | None:
        """Blogger ids whose report-visible state the last apply moved.

        ``None`` means the last (re)analysis took a full path — cold
        fit, parameter-invalidated cache, or a delta that was not
        provably local — and every blogger must be treated as changed.
        A non-None set is a certified superset of the changed bloggers,
        which is what lets :meth:`InfluenceSnapshot.evolve
        <repro.serve.snapshot.InfluenceSnapshot.evolve>` patch the
        previous snapshot instead of recompiling it.
        """
        return self._cache.last_changed_ids

    # ------------------------------------------------------------------
    def _prepare_posts(self, posts: Iterable[Post]) -> None:
        """One text pass over ``posts``, then one batch classification.

        The pass fills the assembly cache's word-count and novelty
        caches, so the solver's quality stage never tokenizes; the
        posteriors extend the membership dict in place.
        """
        tracer = self._instr.tracer
        cache = self._cache
        with tracer.span("text-features"):
            post_ids, ids, ptr = text_features(
                posts, self._classifier, self._novelty,
                cache.word_counts, cache.novelty_values_for(self._params),
            )
        with tracer.span("classify"):
            posteriors = self._classifier.classify_batch(ids, ptr)
        self._memberships.update(zip(post_ids, posteriors))

    def _analyze(
        self,
        corpus: BlogCorpus,
        initial: dict[str, float] | None,
        delta: CorpusDelta | None = None,
    ) -> InfluenceReport:
        cache = self._cache
        previous = self._report
        if delta is None:
            self._prepare_posts(
                corpus.post(post_id) for post_id in sorted(corpus.posts)
            )
        else:
            # Exactly the delta's posts — never a scan over the corpus.
            self._prepare_posts(sorted(delta.posts, key=lambda p: p.post_id))
        scores = InfluenceSolver(
            corpus,
            self._params,
            instrumentation=self._instr,
            sentiment_cache=cache.sentiment_cache,
            assembly_cache=cache,
        ).solve(initial=initial)
        self._last_iterations = scores.iterations
        with self._instr.tracer.span("domains"):
            return self._build_report(corpus, scores, previous, delta)

    def _build_report(
        self,
        corpus: BlogCorpus,
        scores: InfluenceScores,
        previous: InfluenceReport | None,
        delta: CorpusDelta | None,
    ) -> InfluenceReport:
        """Eq. 5 domain vectors and rankings over a fresh solve."""
        changed = self._cache.last_changed_ids
        if delta is not None and previous is not None and changed is not None:
            # O(dirty rows) report: patch the previous report's domain
            # vectors and rankings for the changed bloggers only.  The
            # membership dict is shared by reference — the analyzer
            # extends it in place, never copies it.
            domain_influence = DomainInfluence.evolved(
                previous.domain_influence,
                corpus,
                scores,
                self._memberships,
                changed_authors=set(self._cache.last_changed_authors or ()),
            )
            ranked = previous.general_ranked().patched(
                {
                    blogger_id: scores.influence[blogger_id]
                    for blogger_id in sorted(changed)
                }
            )
            return InfluenceReport(
                corpus, self._params, scores, domain_influence,
                ranked=ranked,
            )
        domain_influence = DomainInfluence(
            corpus, scores, self._memberships, self._classifier.classes,
            share_memberships=True,
        )
        return InfluenceReport(corpus, self._params, scores, domain_influence)

    def fit(self, corpus: BlogCorpus) -> InfluenceReport:
        """Run the initial full analysis."""
        if not corpus.frozen:
            corpus.validate()
        self._corpus = corpus
        self._owned = False
        self._memberships = {}
        self._cache.invalidate()
        with self._instr.tracer.span("incremental-fit"):
            self._report = self._analyze(corpus, initial=None)
        self._cold_iterations = self._last_iterations
        _LOG.info(
            "initial fit: %d bloggers, %d solver iterations",
            len(corpus.bloggers), self._cold_iterations,
        )
        return self._report

    def restore(self, corpus: BlogCorpus, report: InfluenceReport) -> None:
        """Adopt a previously computed analysis without re-solving.

        The ingestion pipeline's recovery path loads a checkpointed
        corpus and its bit-exact report (see
        :mod:`repro.core.report_io`) and resumes from them: the next
        :meth:`apply` warm-starts from the restored influence values
        exactly as it would have from a live solve.  ``report`` must
        have been computed under this analyzer's parameters and domain
        classifier.
        """
        if report.params != self._params:
            raise ReproError(
                "restored report was computed under different parameters"
            )
        if list(report.domains) != list(self._classifier.classes):
            raise ReproError(
                "restored report's domains do not match the classifier: "
                f"{list(report.domains)} vs {list(self._classifier.classes)}"
            )
        self._corpus = corpus
        self._owned = False
        self._report = report
        self._memberships = {
            post_id: dict(report.domain_influence.post_membership(post_id))
            for post_id in corpus.posts
        }
        self._cache.invalidate()
        self._last_iterations = report.scores.iterations
        self._cold_iterations = report.scores.iterations
        _LOG.info(
            "restored analysis: %d bloggers, %d posts",
            len(corpus.bloggers), len(corpus.posts),
        )

    def validate_delta(self, delta: CorpusDelta) -> None:
        """Check that a delta would apply cleanly, without applying it.

        Raises :class:`~repro.errors.CorpusError` on duplicate ids or
        dangling references against the current corpus.  The durable
        ingestion pipeline calls this *before* appending a delta to the
        write-ahead log, so a poison delta is rejected up front rather
        than persisted and replayed forever.
        """
        if self._corpus is None:
            raise ReproError("call fit() before validate_delta()")
        _validate_delta(self._corpus, delta)

    def apply(self, delta: CorpusDelta) -> InfluenceReport:
        """Fold a delta into the corpus and re-analyze warm-started.

        Returns the fresh report.  An empty delta returns the current
        report unchanged.  The delta is validated up front and a
        rejected delta leaves the analyzer's state untouched.

        The corpus handed to :meth:`fit` (or :meth:`restore`) is never
        mutated: the first apply makes one private copy, and every
        later delta extends that copy in place — per-delta cost is
        O(delta), not O(corpus).
        """
        if self._corpus is None or self._report is None:
            raise ReproError("call fit() before apply()")
        if delta.is_empty():
            return self._report

        metrics = self._instr.metrics
        _validate_delta(self._corpus, delta)
        with self._instr.tracer.span("incremental-apply"):
            with metrics.histogram(
                "repro_incremental_grow_seconds",
                "Corpus-mutation cost of one delta apply (excludes solve)",
            ).time():
                if not self._owned:
                    self._corpus = _copy_corpus(self._corpus)
                    self._owned = True
                self._corpus.extend(
                    bloggers=delta.bloggers,
                    posts=delta.posts,
                    comments=delta.comments,
                    links=delta.links,
                )
            self._cache.note_delta(
                bloggers=(b.blogger_id for b in delta.bloggers),
                posts=(p.post_id for p in delta.posts),
                comments=(
                    (c.post_id, c.commenter_id) for c in delta.comments
                ),
                links=delta.links,
            )
            warm_start = self._report.scores.influence
            self._report = self._analyze(
                self._corpus, initial=warm_start, delta=delta
            )

        savings = max(0, self._cold_iterations - self._last_iterations)
        metrics.counter(
            "repro_incremental_deltas_total", "Corpus deltas applied"
        ).inc()
        metrics.counter(
            "repro_incremental_entities_total", "Entities added via deltas"
        ).inc(delta.size())
        metrics.gauge(
            "repro_incremental_last_iterations",
            "Solver iterations of the last warm-started re-analysis",
        ).set(self._last_iterations)
        metrics.gauge(
            "repro_incremental_iteration_savings",
            "Iterations saved vs the cold initial fit",
        ).set(savings)
        if self._cache.last_mode:
            metrics.gauge(
                "repro_incremental_dirty_rows",
                "Rows re-assembled by the last dirty-row refresh",
            ).set(self._cache.last_dirty_rows)
        touched = self._cache.last_frontier_touched_rows
        changed = self._cache.last_changed_ids
        if touched is not None:
            metrics.counter(
                "repro_incremental_frontier_total",
                "Warm applies solved by the residual-bounded frontier",
            ).inc()
            metrics.gauge(
                "repro_incremental_touched_rows",
                "Rows the last frontier solve re-evaluated",
            ).set(len(touched))
        else:
            metrics.counter(
                "repro_incremental_full_solves_total",
                "Warm applies that fell back to a full Jacobi solve",
            ).inc()
        if changed is not None:
            metrics.gauge(
                "repro_incremental_changed_rows",
                "Bloggers whose report-visible state the last apply moved",
            ).set(len(changed))
        self._instr.recorder.note(
            "incremental-apply",
            entities=delta.size(),
            iterations=self._last_iterations,
            saved=savings,
        )
        _LOG.info(
            "applied delta of %d entities: %d warm-started iterations "
            "(cold fit took %d; saved %d)",
            delta.size(), self._last_iterations, self._cold_iterations,
            savings,
        )
        return self._report
