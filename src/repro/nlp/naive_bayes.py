"""Multinomial naive Bayes text classifier, from scratch.

This is the Post Analyzer's engine: "MASS automatically analyzes the
posts and generates a iv(b_i, d_k, C_t) using naive Bayesian method".
``predict_proba`` returns the posterior P(C_t | d_k) over the
predefined domains — exactly the ``iv`` membership vector of Eq. 5.

Implementation notes
--------------------
- Multinomial event model with Laplace (add-``smoothing``) smoothing.
- All arithmetic in log space; posteriors normalized with log-sum-exp.
- Tokens never seen in training are skipped at prediction time (they
  carry no class signal and would only flatten posteriors).  Stopwords
  never enter a trained vocabulary, so the vocabulary lookup also
  applies the ``use_stopwords`` filter.
- Prediction is batched: documents are encoded to vocabulary ids
  (:meth:`NaiveBayesClassifier.token_ids`) and
  :meth:`NaiveBayesClassifier.classify_batch` scores a flat id array
  with a per-document pointer.  The numpy kernel is one ``bincount``
  per class; the pure-Python kernel is the same sequential sum.  Both
  return bit-identical posteriors, and the kernel is chosen like the
  sparse solver's (:func:`repro.core.sparse_solver.default_kernel`).
- ``NaiveBayesClassifier.from_seed_vocabulary`` trains on per-domain
  seed word lists as pseudo-documents, supporting the paper's
  "predefined by the business applications" domain mode when no
  labelled posts exist.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import ClassifierError
from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenize import tokenize

__all__ = ["NaiveBayesClassifier"]


class NaiveBayesClassifier:
    """Multinomial naive Bayes over bag-of-words features.

    Parameters
    ----------
    smoothing:
        Laplace smoothing constant added to every word count (> 0).
    use_stopwords:
        Drop stopwords from features (default True).

    Examples
    --------
    >>> clf = NaiveBayesClassifier().fit(
    ...     ["the marathon race", "the stock market"], ["Sports", "Economics"]
    ... )
    >>> clf.predict("a new marathon record")
    'Sports'
    """

    def __init__(self, smoothing: float = 1.0, use_stopwords: bool = True) -> None:
        if smoothing <= 0:
            raise ClassifierError(f"smoothing must be > 0, got {smoothing}")
        self._smoothing = smoothing
        self._use_stopwords = use_stopwords
        # Per class (in ``_labels`` order): the log prior and the word
        # log-probabilities indexed by vocabulary id.
        self._labels: list[str] = []
        self._log_priors: list[float] = []
        self._log_prob_rows: list[list[float]] = []
        self._log_prob_array = None  # numpy copy, built on first use
        self._vocabulary_ids: dict[str, int] = {}
        self._trained = False

    # ------------------------------------------------------------------
    def _features(self, text: str) -> list[str]:
        tokens = tokenize(text)
        if self._use_stopwords:
            tokens = remove_stopwords(tokens)
        return tokens

    @property
    def classes(self) -> list[str]:
        """Trained class labels in sorted order."""
        self._require_trained()
        return sorted(self._labels)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct feature words seen in training."""
        self._require_trained()
        return len(self._vocabulary_ids)

    def _require_trained(self) -> None:
        if not self._trained:
            raise ClassifierError("classifier is not trained; call fit() first")

    # ------------------------------------------------------------------
    def fit(
        self, texts: Sequence[str], labels: Sequence[str]
    ) -> "NaiveBayesClassifier":
        """Train on parallel sequences of texts and class labels."""
        if len(texts) != len(labels):
            raise ClassifierError(
                f"got {len(texts)} texts but {len(labels)} labels"
            )
        if not texts:
            raise ClassifierError("cannot train on an empty corpus")

        class_doc_counts: Counter[str] = Counter(labels)
        if len(class_doc_counts) < 2:
            raise ClassifierError(
                f"need at least 2 classes, got {sorted(class_doc_counts)}"
            )

        word_counts: dict[str, Counter[str]] = defaultdict(Counter)
        for text, label in zip(texts, labels):
            word_counts[label].update(self._features(text))

        vocabulary: set[str] = set()
        for counter in word_counts.values():
            vocabulary.update(counter)
        if not vocabulary:
            raise ClassifierError("training corpus has no usable tokens")

        total_docs = len(texts)
        words = sorted(vocabulary)
        vocab_size = len(words)
        self._labels = list(class_doc_counts)
        self._log_priors = [
            math.log(class_doc_counts[label] / total_docs)
            for label in self._labels
        ]
        self._log_prob_rows = []
        for label in self._labels:
            counter = word_counts[label]
            total = sum(counter.values()) + self._smoothing * vocab_size
            self._log_prob_rows.append([
                math.log((counter.get(word, 0) + self._smoothing) / total)
                for word in words
            ])
        self._log_prob_array = None
        self._vocabulary_ids = {word: i for i, word in enumerate(words)}
        self._trained = True
        return self

    @classmethod
    def from_seed_vocabulary(
        cls,
        seed_words: Mapping[str, Iterable[str]],
        smoothing: float = 1.0,
    ) -> "NaiveBayesClassifier":
        """Train from per-class seed word lists (one pseudo-doc per class).

        Every class gets a uniform prior; the likelihoods come from the
        seed vocabulary, so classification reduces to smoothed seed-word
        overlap.  This is how MASS bootstraps "predefined" domains.
        """
        texts = []
        labels = []
        for label in sorted(seed_words):
            words = list(seed_words[label])
            if not words:
                raise ClassifierError(f"seed vocabulary for {label!r} is empty")
            texts.append(" ".join(words))
            labels.append(label)
        classifier = cls(smoothing=smoothing, use_stopwords=False)
        classifier.fit(texts, labels)
        return classifier

    # ------------------------------------------------------------------
    def token_ids(self, tokens: Iterable[str]) -> list[int]:
        """Vocabulary ids of the in-vocabulary ``tokens``, in text order.

        Out-of-vocabulary tokens (stopwords included, when they were
        filtered out of training) are dropped.
        """
        self._require_trained()
        vocabulary = self._vocabulary_ids
        return [vocabulary[t] for t in tokens if t in vocabulary]

    def encode(self, texts: Iterable[str]) -> tuple[array, array]:
        """Tokenize ``texts`` into a flat id array plus a doc pointer.

        Document ``d`` owns ``ids[ptr[d]:ptr[d + 1]]``.  Texts are
        consumed one at a time, so a generator never has to be held.
        """
        ids = array("i")
        ptr = array("q", [0])
        for text in texts:
            ids.extend(self.token_ids(tokenize(text)))
            ptr.append(len(ids))
        return ids, ptr

    def classify_batch(
        self, ids: Sequence[int], ptr: Sequence[int]
    ) -> list[dict[str, float]]:
        """Posteriors for a batch of encoded documents.

        The batch entry point behind every prediction: ``ids`` and
        ``ptr`` are the flat vocabulary-id array and document pointer
        :meth:`encode` (or :meth:`token_ids` per document) produces.
        """
        return [
            self._normalize(scores) for scores in self._log_scores(ids, ptr)
        ]

    def predict_proba_batch(
        self, texts: Iterable[str]
    ) -> list[dict[str, float]]:
        """:meth:`predict_proba` for many texts in one kernel call."""
        return self.classify_batch(*self.encode(texts))

    def _log_scores(
        self, ids: Sequence[int], ptr: Sequence[int]
    ) -> list[list[float]]:
        """Unnormalized log posterior rows, in ``self._labels`` order.

        Each score is ``log_prior + s`` where ``s`` sums the document's
        word log-probabilities sequentially from 0.0 in text order —
        exactly what ``np.bincount`` computes, so the two kernels agree
        bit for bit.
        """
        self._require_trained()
        from repro.core.sparse_solver import default_kernel  # core imports nlp

        num_docs = len(ptr) - 1
        if default_kernel() == "numpy":
            import numpy as np

            ptr_arr = np.asarray(ptr, dtype=np.int64)
            id_arr = np.asarray(ids, dtype=np.intp)
            doc = np.repeat(
                np.arange(num_docs, dtype=np.intp), np.diff(ptr_arr)
            )
            table = self._numpy_table()
            columns = [
                (
                    prior
                    + np.bincount(doc, weights=row[id_arr], minlength=num_docs)
                ).tolist()
                for prior, row in zip(self._log_priors, table)
            ]
            return [list(scores) for scores in zip(*columns)]
        rows = []
        for d in range(num_docs):
            doc = ids[ptr[d]:ptr[d + 1]]
            scores = []
            for prior, row in zip(self._log_priors, self._log_prob_rows):
                total = 0.0
                for i in doc:
                    total += row[i]
                scores.append(prior + total)
            rows.append(scores)
        return rows

    def _numpy_table(self):
        table = self._log_prob_array
        if table is None:
            import numpy as np

            table = np.array(self._log_prob_rows, dtype=np.float64)
            self._log_prob_array = table
        return table

    def _normalize(self, scores: list[float]) -> dict[str, float]:
        peak = max(scores)
        exp_scores = [math.exp(s - peak) for s in scores]
        total = sum(exp_scores)
        return {
            label: value / total
            for label, value in zip(self._labels, exp_scores)
        }

    def log_posteriors(self, text: str) -> dict[str, float]:
        """Unnormalized log posterior per class for ``text``."""
        scores = self._log_scores(*self.encode([text]))[0]
        return dict(zip(self._labels, scores))

    def predict_proba(self, text: str) -> dict[str, float]:
        """Posterior P(class | text), normalized to sum to 1.

        A text with no in-vocabulary tokens falls back to the class
        priors — the least-wrong answer for contentless input.  This is
        :meth:`classify_batch` on a batch of one.
        """
        return self.predict_proba_batch([text])[0]

    def predict(self, text: str) -> str:
        """Most probable class for ``text`` (ties break alphabetically)."""
        probabilities = self.predict_proba(text)
        return max(sorted(probabilities), key=lambda label: probabilities[label])

    def score(self, texts: Sequence[str], labels: Sequence[str]) -> float:
        """Accuracy on a labelled evaluation set."""
        if len(texts) != len(labels):
            raise ClassifierError(
                f"got {len(texts)} texts but {len(labels)} labels"
            )
        if not texts:
            raise ClassifierError("cannot score an empty evaluation set")
        hits = sum(
            1 for text, label in zip(texts, labels) if self.predict(text) == label
        )
        return hits / len(texts)
