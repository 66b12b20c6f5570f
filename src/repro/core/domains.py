"""Domain-specific influence (Eq. 5) — the "multi-facet" in MASS.

    Inf(b_i, C_t) = Σ_k Inf(b_i, d_k) · iv(b_i, d_k, C_t)

where ``iv`` is the probability of post d_k belonging to domain C_t,
produced by the Post Analyzer's naive-Bayes classifier.  A blogger's
vector of per-domain scores, Inf(b_i, IV), is what both application
scenarios consume.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.solver import InfluenceScores
from repro.core.topk import RankedScores
from repro.data.corpus import BlogCorpus
from repro.errors import ParameterError
from repro.nlp.naive_bayes import NaiveBayesClassifier

__all__ = ["DomainInfluence"]


class DomainInfluence:
    """Per-blogger, per-domain influence scores.

    Build with :meth:`from_classifier` (the normal path: soft domain
    memberships from naive Bayes) or directly from precomputed post
    memberships (useful in tests and for plugging in other "interests
    mining methods", which the paper explicitly allows).

    With ``share_memberships=True`` the caller's membership mapping is
    adopted by reference instead of deep-copied — the incremental
    analyzer owns one membership dict for its whole life and extends it
    in place per delta, so the per-apply O(corpus) copy disappears.
    The warm path goes further with :meth:`evolved`, which re-derives
    only the changed authors' vectors from a previous instance.
    """

    def __init__(
        self,
        corpus: BlogCorpus,
        scores: InfluenceScores,
        post_memberships: Mapping[str, Mapping[str, float]],
        domains: Sequence[str],
        share_memberships: bool = False,
    ) -> None:
        if not domains:
            raise ParameterError("need at least one domain")
        self._domains = list(domains)
        self._corpus = corpus
        self._scores = scores
        if share_memberships and isinstance(post_memberships, dict):
            self._post_memberships = post_memberships
        else:
            self._post_memberships = {
                post_id: dict(membership)
                for post_id, membership in post_memberships.items()
            }

        missing = set(corpus.posts) - set(self._post_memberships)
        if missing:
            raise ParameterError(
                f"post memberships missing for {len(missing)} posts, "
                f"e.g. {sorted(missing)[:3]}"
            )

        self._rankings: dict[str, RankedScores] = {}
        self._vectors: dict[str, dict[str, float]] = {
            blogger_id: {domain: 0.0 for domain in self._domains}
            for blogger_id in corpus.blogger_ids()
        }
        for post_id, influence in scores.post_influence.items():
            author_id = corpus.post(post_id).author_id
            membership = self._post_memberships[post_id]
            vector = self._vectors[author_id]
            for domain in self._domains:
                vector[domain] += influence * membership.get(domain, 0.0)

    @classmethod
    def evolved(
        cls,
        previous: "DomainInfluence",
        corpus: BlogCorpus,
        scores: InfluenceScores,
        post_memberships: dict[str, Mapping[str, float]],
        changed_authors: set[str],
    ) -> "DomainInfluence":
        """A new instance patched from ``previous`` in O(changed).

        Only ``changed_authors`` (authors of posts whose Inf(b_i, d_k)
        moved, plus any brand-new bloggers) get their vectors
        re-accumulated; everyone else shares the previous instance's
        vector objects.  Memberships are adopted by reference.  Any
        domain ranking the previous instance had materialized is
        patched rather than re-sorted.
        """
        evolved = cls.__new__(cls)
        evolved._domains = previous._domains
        evolved._corpus = corpus
        evolved._scores = scores
        evolved._post_memberships = post_memberships
        vectors = dict(previous._vectors)
        domains = previous._domains
        post_influence = scores.post_influence
        posts_of: dict[str, list] = {}
        for blogger_id in changed_authors:
            posts_of[blogger_id] = sorted(
                corpus.posts_by(blogger_id), key=lambda p: p.post_id
            )
        for blogger_id, posts in sorted(posts_of.items()):
            vector = {domain: 0.0 for domain in domains}
            for post in posts:
                influence = post_influence[post.post_id]
                membership = post_memberships[post.post_id]
                for domain in domains:
                    vector[domain] += (
                        influence * membership.get(domain, 0.0)
                    )
            vectors[blogger_id] = vector
        repositioned = set(changed_authors)
        for blogger_id in corpus.blogger_ids():
            if blogger_id not in vectors:
                vectors[blogger_id] = {domain: 0.0 for domain in domains}
                repositioned.add(blogger_id)
        evolved._vectors = vectors
        evolved._rankings = {
            domain: ranked.patched(
                {
                    blogger_id: vectors[blogger_id][domain]
                    for blogger_id in sorted(repositioned)
                }
            )
            for domain, ranked in previous._rankings.items()
        }
        return evolved

    @classmethod
    def from_classifier(
        cls,
        corpus: BlogCorpus,
        scores: InfluenceScores,
        classifier: NaiveBayesClassifier,
    ) -> "DomainInfluence":
        """Classify every post with ``classifier`` and build the vectors."""
        post_ids = sorted(corpus.posts)
        posteriors = classifier.predict_proba_batch(
            corpus.post(post_id).text for post_id in post_ids
        )
        memberships = dict(zip(post_ids, posteriors))
        return cls(corpus, scores, memberships, classifier.classes)

    # ------------------------------------------------------------------
    @property
    def domains(self) -> list[str]:
        """The domain set (copy)."""
        return list(self._domains)

    def post_membership(self, post_id: str) -> dict[str, float]:
        """iv(·, d_k, ·): the domain distribution of one post."""
        return dict(self._post_memberships[post_id])

    def vector(self, blogger_id: str) -> dict[str, float]:
        """Inf(b, IV): the blogger's per-domain influence scores."""
        return dict(self._vectors[blogger_id])

    def score(self, blogger_id: str, domain: str) -> float:
        """Inf(b, C_t) for one blogger and domain."""
        if domain not in self._vectors[blogger_id]:
            raise ParameterError(
                f"unknown domain {domain!r}; known: {self._domains}"
            )
        return self._vectors[blogger_id][domain]

    def domain_scores(self, domain: str) -> dict[str, float]:
        """All bloggers' scores in one domain."""
        if domain not in self._domains:
            raise ParameterError(
                f"unknown domain {domain!r}; known: {self._domains}"
            )
        return {
            blogger_id: vector[domain]
            for blogger_id, vector in self._vectors.items()
        }

    def ranked(self, domain: str) -> RankedScores:
        """The domain's :class:`RankedScores` (materialized lazily).

        Once materialized, :meth:`evolved` patches it forward across
        warm applies instead of re-sorting all bloggers.
        """
        ranked = self._rankings.get(domain)
        if ranked is None:
            ranked = RankedScores(self.domain_scores(domain))
            self._rankings[domain] = ranked
        return ranked

    def ranking(self, domain: str, k: int | None = None) -> list[tuple[str, float]]:
        """Top-k bloggers in a domain (all of them when ``k`` is None)."""
        if domain not in self._domains:
            raise ParameterError(
                f"unknown domain {domain!r}; known: {self._domains}"
            )
        ranked = self.ranked(domain)
        if k is None:
            return ranked.ranking()
        return ranked.top(k)

    def weighted_scores(
        self, interest: Mapping[str, float]
    ) -> dict[str, float]:
        """Inf(b, IV) · iv — the dot product behind Scenario 1.

        ``interest`` maps domains to weights; unknown domains in the
        interest vector are rejected rather than silently ignored.
        """
        unknown = set(interest) - set(self._domains)
        if unknown:
            raise ParameterError(
                f"interest vector has unknown domains: {sorted(unknown)}"
            )
        return {
            blogger_id: sum(
                vector[domain] * weight for domain, weight in interest.items()
            )
            for blogger_id, vector in self._vectors.items()
        }
