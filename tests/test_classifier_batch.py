"""Batch naive-Bayes classification is bit-identical to per-text calls.

Every prediction runs through ``classify_batch``; these properties pin
the batch path (both kernels) to a per-text reference that spells out
the multinomial model one token at a time: tokenize, drop stopwords,
drop out-of-vocabulary tokens, add the word log-probabilities
sequentially, normalize with ``math.exp``.
"""

import math
import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sparse_solver import HAS_NUMPY
from repro.data.entities import Post
from repro.nlp import NaiveBayesClassifier, tokenize
from repro.nlp.stopwords import remove_stopwords

KERNELS = ["python"] + (["numpy"] if HAS_NUMPY else [])

TRAIN_TEXTS = [
    "the marathon race and the stadium crowd",
    "football match in the league final, don't miss it",
    "stock market crash and inflation fears",
    "bank interest rates and the budget deficit",
    "a new recipe for the garden tomatoes",
]
TRAIN_LABELS = ["Sports", "Sports", "Economics", "Economics", "Food"]

CLASSIFIERS = {
    "stopwords-dropped": NaiveBayesClassifier(use_stopwords=True).fit(
        TRAIN_TEXTS, TRAIN_LABELS
    ),
    "stopwords-kept": NaiveBayesClassifier(use_stopwords=False).fit(
        TRAIN_TEXTS, TRAIN_LABELS
    ),
    "seed-vocabulary": NaiveBayesClassifier.from_seed_vocabulary({
        "Sports": ["marathon", "race", "goal"],
        "Economics": ["market", "stock", "bank"],
    }),
}

WORDS = sorted({
    token for text in TRAIN_TEXTS for token in tokenize(text)
}) + [
    "the", "and", "of", "zebra", "quux", "don't", "market's", "it's",
    "café", "naïve", "ΣΟΦΙΑ", "straße", "İstanbul", "Kelvin", "42",
]
SEPARATORS = [" ", "\n", ", ", "! ", "'", "—", "\t"]

words_text = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)),
    max_size=12,
).map(lambda parts: "".join(word + sep for word, sep in parts))
any_text = st.one_of(words_text, st.text(max_size=40), st.just(""))


@contextmanager
def kernel(name):
    with mock.patch.dict(os.environ, {"REPRO_SPARSE_KERNEL": name}):
        yield


def reference_proba(classifier, text):
    """P(class | text) computed one token at a time, in text order."""
    tokens = tokenize(text)
    if classifier._use_stopwords:
        tokens = remove_stopwords(tokens)
    vocabulary = classifier._vocabulary_ids
    features = [vocabulary[t] for t in tokens if t in vocabulary]
    scores = []
    for prior, row in zip(classifier._log_priors, classifier._log_prob_rows):
        total = 0.0
        for i in features:
            total += row[i]
        scores.append(prior + total)
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    norm = sum(exps)
    return {
        label: value / norm for label, value in zip(classifier._labels, exps)
    }


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
@settings(max_examples=60, deadline=None)
@given(texts=st.lists(any_text, max_size=8))
def test_batch_equals_per_text(name, texts):
    classifier = CLASSIFIERS[name]
    expected = [reference_proba(classifier, text) for text in texts]
    for kernel_name in KERNELS:
        with kernel(kernel_name):
            assert classifier.predict_proba_batch(texts) == expected
            assert [classifier.predict_proba(t) for t in texts] == expected


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_empty_and_oov_texts_fall_back_to_priors(kernel_name):
    classifier = CLASSIFIERS["stopwords-dropped"]
    prior = reference_proba(classifier, "")
    assert prior == pytest.approx({"Sports": 0.4, "Economics": 0.4, "Food": 0.2})
    with kernel(kernel_name):
        batch = classifier.predict_proba_batch(
            ["", "zebra quux", "the and of", "café ΣΟΦΙΑ"]
        )
    assert batch == [prior] * 4


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_empty_batch(kernel_name):
    classifier = CLASSIFIERS["seed-vocabulary"]
    with kernel(kernel_name):
        assert classifier.predict_proba_batch([]) == []
        ids, ptr = classifier.encode([])
        assert classifier.classify_batch(ids, ptr) == []


def test_encode_keeps_only_vocabulary_tokens_in_order():
    classifier = CLASSIFIERS["stopwords-dropped"]
    ids, ptr = classifier.encode(["the stock market", "", "market stock zebra"])
    vocabulary = classifier._vocabulary_ids
    assert list(ptr) == [0, 2, 2, 4]
    assert list(ids) == [
        vocabulary["stock"], vocabulary["market"],
        vocabulary["market"], vocabulary["stock"],
    ]


@settings(max_examples=200, deadline=None)
@given(title=st.one_of(words_text, st.text()),
       body=st.one_of(words_text, st.text()))
def test_title_body_tokenize_identity(title, body):
    assert tokenize(f"{title}\n{body}") == tokenize(title) + tokenize(body)
    post = Post("p", "a", title=title, body=body)
    assert tokenize(post.text) == tokenize(title) + tokenize(body)
