"""Novelty detection — is a post original or reproduced content?

Paper method: "We collect a set of words indicating that an article is
a copy of other sources, and set Novelty(b_i, d_k) to a value between 0
and 0.1 if the article contains such words, and otherwise we consider
the article original and set its Novelty(b_i, d_k) to 1."

:class:`LexiconNoveltyDetector` is that method.  As an extension (the
kind of duplicate detection [2] actually uses), a
:class:`ShingleNoveltyDetector` flags posts whose k-shingle sets
overlap an earlier post heavily, and :class:`CompositeNoveltyDetector`
takes the minimum of several detectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.data.entities import Post
from repro.nlp.lexicons import COPY_INDICATOR_PHRASES
from repro.nlp.tokenize import shingles, tokenize

__all__ = [
    "NoveltyDetector",
    "LexiconNoveltyDetector",
    "ShingleNoveltyDetector",
    "CompositeNoveltyDetector",
]


class NoveltyDetector:
    """Interface: map a post to a novelty value in (0, 1]."""

    def novelty(self, post: Post) -> float:
        """Novelty of ``post``: 1.0 original, ≤ 0.1 reproduced."""
        raise NotImplementedError

    def is_copy(self, post: Post) -> bool:
        """Whether the detector considers the post reproduced content."""
        return self.novelty(post) <= 0.1


class LexiconNoveltyDetector(NoveltyDetector):
    """The paper's indicator-phrase novelty heuristic.

    Parameters
    ----------
    phrases:
        Copy-indicator phrases; matching is on lowercase token
        subsequences so punctuation differences do not matter.
    copied_value:
        The novelty assigned when any phrase matches; must lie in
        (0, 0.1] per the paper.
    """

    def __init__(
        self,
        phrases: Iterable[str] = COPY_INDICATOR_PHRASES,
        copied_value: float = 0.05,
    ) -> None:
        if not 0.0 < copied_value <= 0.1:
            raise ValueError(
                f"copied_value must be in (0, 0.1], got {copied_value}"
            )
        self._phrases: list[tuple[str, ...]] = []
        for phrase in phrases:
            tokens = tuple(tokenize(phrase))
            if not tokens:
                raise ValueError(f"unusable copy-indicator phrase {phrase!r}")
            self._phrases.append(tokens)
        if not self._phrases:
            raise ValueError("need at least one copy-indicator phrase")
        self._copied_value = copied_value
        self._first_tokens = frozenset(phrase[0] for phrase in self._phrases)

    def _contains_phrase(self, tokens: Sequence[str]) -> bool:
        if self._first_tokens.isdisjoint(tokens):
            return False
        token_set = set(tokens)
        for phrase in self._phrases:
            if phrase[0] not in token_set:
                continue
            plen = len(phrase)
            for start in range(len(tokens) - plen + 1):
                if tuple(tokens[start:start + plen]) == phrase:
                    return True
        return False

    def novelty(self, post: Post) -> float:
        return self.novelty_of_tokens(tokenize(post.text))

    def novelty_of_tokens(self, tokens: Sequence[str]) -> float:
        """Novelty of a post given its ``tokenize(post.text)`` tokens."""
        if self._contains_phrase(tokens):
            return self._copied_value
        return 1.0


class ShingleNoveltyDetector(NoveltyDetector):
    """Near-duplicate detection by k-shingle containment (extension).

    A post is reproduced if the fraction of its shingles already seen
    in an *earlier* post (by ``created_day``, ties by post id) exceeds
    ``threshold``.  Build it over the whole corpus once; lookups are
    O(1).
    """

    def __init__(
        self,
        posts: Iterable[Post],
        k: int = 4,
        threshold: float = 0.5,
        copied_value: float = 0.05,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if not 0.0 < copied_value <= 0.1:
            raise ValueError(
                f"copied_value must be in (0, 0.1], got {copied_value}"
            )
        self._copied_value = copied_value
        self._copies: set[str] = set()
        seen: set[tuple[str, ...]] = set()
        ordered = sorted(posts, key=lambda p: (p.created_day, p.post_id))
        for post in ordered:
            post_shingles = shingles(post.text, k)
            if post_shingles:
                overlap = len(post_shingles & seen) / len(post_shingles)
                if overlap > threshold:
                    self._copies.add(post.post_id)
            seen.update(post_shingles)

    def novelty(self, post: Post) -> float:
        if post.post_id in self._copies:
            return self._copied_value
        return 1.0


class CompositeNoveltyDetector(NoveltyDetector):
    """Minimum over several detectors: any one flagging a copy wins."""

    def __init__(self, detectors: Sequence[NoveltyDetector]) -> None:
        if not detectors:
            raise ValueError("need at least one detector")
        self._detectors = list(detectors)

    def novelty(self, post: Post) -> float:
        return min(detector.novelty(post) for detector in self._detectors)
