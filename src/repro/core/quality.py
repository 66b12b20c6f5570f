"""QualityScore — the content half of a post's influence (Eq. 2).

"QualityScore(b_i, d_k) ... is evaluated by the length of a post ...
We measure QualityScore(b_i, d_k) as the product of a post's length and
its novelty."

Raw word counts make Quality unbounded and let a single 5,000-word post
drown the rest of the model, so the scorer supports three length
measures (see :class:`repro.core.parameters.MassParameters`):

- ``"max"`` — words / corpus-max words, in [0, 1] (library default);
- ``"log"`` — log(1 + words), compressive but unbounded;
- ``"raw"`` — the paper-literal word count.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core.novelty import LexiconNoveltyDetector, NoveltyDetector
from repro.core.parameters import MassParameters
from repro.data.entities import Post
from repro.nlp.tokenize import word_count

__all__ = ["QualityScorer"]


class QualityScorer:
    """Compute QualityScore(post) = Length(post) · Novelty(post).

    Parameters
    ----------
    params:
        Supplies the length-normalization mode.
    novelty_detector:
        Defaults to the paper's indicator-phrase detector with
        ``params.novelty_copied`` as the copied value.
    posts:
        The post population; required for ``"max"`` normalization
        (to know the corpus maximum length).  Read lazily, on the first
        :attr:`max_words` lookup.
    reference_day:
        The day post ages are measured back from when the temporal
        facet is active (the corpus horizon).  Ignored — and every
        decay factor is exactly ``1.0`` — when decay is inert.
    word_counts / novelty_values:
        Optional read-through caches keyed by post id.  Posts are
        immutable and post ids are globally unique, so a count or
        novelty value computed once is valid for the post's lifetime;
        the incremental analyzer fills them in its one text pass
        (:func:`~repro.core.text_features.text_features`), so a scorer
        reading through them never tokenizes.  ``novelty_values``
        must only be supplied when ``novelty_detector`` is None (the
        default lexicon detector is a pure function of the post text;
        custom detectors may be corpus-dependent).
    """

    def __init__(
        self,
        params: MassParameters,
        novelty_detector: NoveltyDetector | None = None,
        posts: Iterable[Post] = (),
        reference_day: int | None = None,
        word_counts: dict[str, int] | None = None,
        novelty_values: dict[str, float] | None = None,
    ) -> None:
        self._params = params
        self._reference_day = (
            reference_day if params.decay_active else None
        )
        self._novelty = novelty_detector or LexiconNoveltyDetector(
            copied_value=params.novelty_copied
        )
        self._word_counts = word_counts
        self._novelty_values = (
            novelty_values if novelty_detector is None else None
        )
        self._posts = posts
        self._max_words: int | None = None

    @property
    def max_words(self) -> int:
        """Corpus-max word count (0 unless ``"max"`` normalization).

        Computed on first use, so the pass over the post population
        runs inside the caller's ``quality`` stage.
        """
        if self._max_words is None:
            self._max_words = 0
            if self._params.length_normalization == "max":
                self._max_words = max(
                    (self._words(post) for post in self._posts), default=0
                )
        return self._max_words

    def _words(self, post: Post) -> int:
        if self._word_counts is None:
            return word_count(post.body)
        words = self._word_counts.get(post.post_id)
        if words is None:
            words = word_count(post.body)
            self._word_counts[post.post_id] = words
        return words

    def length_value(self, post: Post) -> float:
        """The Length() term under the configured normalization."""
        words = self._words(post)
        mode = self._params.length_normalization
        if mode == "raw":
            return float(words)
        if mode == "log":
            return math.log1p(words)
        # "max": bounded to [0, 1]; an all-empty corpus scores 0.
        max_words = self.max_words
        if max_words == 0:
            return 0.0
        return words / max_words

    def novelty_value(self, post: Post) -> float:
        """The Novelty() term (1.0 when the novelty facet is disabled)."""
        if not self._params.use_novelty:
            return 1.0
        if self._novelty_values is None:
            return self._novelty.novelty(post)
        value = self._novelty_values.get(post.post_id)
        if value is None:
            value = self._novelty.novelty(post)
            self._novelty_values[post.post_id] = value
        return value

    def decay_value(self, post: Post) -> float:
        """The recency multiplier of the temporal facet (1.0 when inert)."""
        if self._reference_day is None:
            return 1.0
        return self._params.decay_factor(
            self._reference_day - post.created_day
        )

    def score(self, post: Post) -> float:
        """QualityScore(post): length × novelty × recency decay."""
        base = self.length_value(post) * self.novelty_value(post)
        if self._reference_day is None:
            return base
        return base * self.decay_value(post)
