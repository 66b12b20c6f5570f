"""One streaming text pass per post: Length, Novelty and classifier ids.

Three model terms read a post's words:

- the Length() term of QualityScore (Eq. 2) counts the body's tokens;
- the paper's Novelty() heuristic looks for copy-indicator phrases in
  title + body;
- the Post Analyzer's naive-Bayes membership iv(b_i, d_k, C_t) (Eq. 5)
  classifies title + body.

:func:`text_features` tokenizes each post's title and body once and
derives all three.  ``tokenize`` never matches across ``"\\n"``, so
``tokenize(post.text) == tokenize(post.title) + tokenize(post.body)``
and every derived value equals what the per-consumer tokenizations
computed before.

The pass streams: a post's token lists are dropped before the next
post is read, and only the compact array of in-vocabulary ids is
kept for :meth:`~repro.nlp.naive_bayes.NaiveBayesClassifier.classify_batch`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

from repro.core.novelty import LexiconNoveltyDetector
from repro.data.entities import Post
from repro.nlp.naive_bayes import NaiveBayesClassifier
from repro.nlp.tokenize import tokenize

__all__ = ["text_features"]


def text_features(
    posts: Iterable[Post],
    classifier: NaiveBayesClassifier,
    detector: LexiconNoveltyDetector,
    word_counts: dict[str, int],
    novelty_values: dict[str, float],
) -> tuple[list[str], array, array]:
    """Tokenize each post once; fill the Length and Novelty caches.

    ``word_counts`` and ``novelty_values`` are the quality scorer's
    read-through caches (see :class:`~repro.core.quality.QualityScorer`);
    ``novelty_values`` must belong to ``detector``.  Returns the post
    ids in input order plus the classifier encoding of their texts: a
    flat vocabulary-id array and a per-post pointer, ready for
    ``classifier.classify_batch(ids, ptr)``.
    """
    post_ids: list[str] = []
    ids = array("i")
    ptr = array("q", [0])
    for post in posts:
        post_id = post.post_id
        body = tokenize(post.body)
        tokens = tokenize(post.title) + body
        word_counts[post_id] = len(body)
        novelty_values[post_id] = detector.novelty_of_tokens(tokens)
        ids.extend(classifier.token_ids(tokens))
        ptr.append(len(ids))
        post_ids.append(post_id)
    return post_ids, ids, ptr
