"""Compatibility after retiring the parallel backend and warm-path patching.

The block-Jacobi ``"parallel"`` backend, its ``num_workers`` /
``shard_count`` fields and the O(changed) report/snapshot patching are
gone.  What persisted state and the frozen benchmark harness still rely
on is pinned here:

- parameter fingerprints (and with them snapshot epochs and checkpoint
  compatibility) are the ones written before the retirement;
- ``solver_backend="parallel"`` is a deprecated alias of ``"sparse"``;
- report XML carrying the retired ``<param>`` names still loads;
- ``repro.core.parallel`` re-exports the one ``SeqlockArena`` class;
- ``DomainInfluence.evolved`` and ``InfluenceSnapshot.evolve`` are
  classmethods that return what a fresh build returns.
"""

import warnings

import pytest

from repro.core import (
    DomainInfluence,
    IncrementalAnalyzer,
    InfluenceSolver,
    MassModel,
    MassParameters,
    load_report,
    save_report,
)
from repro.data import figure1_corpus, figure1_domains
from repro.nlp import NaiveBayesClassifier
from repro.serve import InfluenceSnapshot
from repro.synth import DOMAIN_VOCABULARIES

DEFAULT_FINGERPRINT = (
    "d16126ae6d253c5d5e04a53a07cd0cf1006416c04876daa66c248c59dec82718"
)
PARALLEL_FINGERPRINT = (
    "86456b4e9495e07cafa39aa17c079c777e178707bba8cae3fb2552274f107eac"
)


def _parallel_params(**overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return MassParameters(solver_backend="parallel", **overrides)


class TestFingerprints:
    def test_default_fingerprint_unchanged(self):
        assert MassParameters().fingerprint() == DEFAULT_FINGERPRINT

    def test_parallel_fingerprint_unchanged(self):
        assert _parallel_params().fingerprint() == PARALLEL_FINGERPRINT

    def test_canonical_dict_keeps_retired_defaults(self):
        canonical = MassParameters().canonical_dict()
        assert canonical["num_workers"] == 0
        assert canonical["shard_count"] == "auto"
        assert list(canonical) == sorted(canonical)


class TestParallelAlias:
    def test_warns_and_resolves_to_sparse(self):
        with pytest.warns(DeprecationWarning, match="parallel"):
            params = MassParameters(solver_backend="parallel")
        assert params.resolved_solver_backend() == "sparse"

    def test_solves_bit_identically_to_sparse(self, fig1_corpus):
        sparse = InfluenceSolver(
            fig1_corpus, MassParameters(solver_backend="sparse")
        ).solve()
        alias = InfluenceSolver(fig1_corpus, _parallel_params()).solve()
        assert alias.backend == "sparse"
        assert alias.influence == sparse.influence
        assert alias.post_influence == sparse.post_influence


class TestReportXml:
    def test_retired_params_load_and_drop(self, tmp_path):
        corpus = figure1_corpus()
        report = MassModel(domain_seed_words=figure1_domains()).fit(corpus)
        path = save_report(report, tmp_path / "analysis.xml")
        text = path.read_text(encoding="utf-8")
        # The parameter block as the parallel-era writer emitted it.
        retired = (
            '<param name="num_workers" value="2" />'
            '<param name="shard_count" value="\'auto\'" />'
        )
        assert "<parameters>" in text
        path.write_text(
            text.replace("<parameters>", "<parameters>" + retired, 1),
            encoding="utf-8",
        )
        loaded = load_report(path, corpus)
        assert loaded.params == report.params
        assert loaded.scores.influence == report.scores.influence


class TestProbeShims:
    def test_core_parallel_reexports_the_same_arena(self):
        from repro.core.parallel import SeqlockArena as via_core
        from repro.serve.shm import SeqlockArena

        assert via_core is SeqlockArena

    def test_classmethods_rebuild(self, small_blogosphere):
        corpus, _ = small_blogosphere
        assert isinstance(DomainInfluence.__dict__["evolved"], classmethod)
        assert isinstance(InfluenceSnapshot.__dict__["evolve"], classmethod)

        classifier = NaiveBayesClassifier.from_seed_vocabulary(
            DOMAIN_VOCABULARIES
        )
        analyzer = IncrementalAnalyzer(classifier)
        report = analyzer.fit(corpus)
        assert analyzer.last_changed_ids is None

        domains = report.domain_influence
        evolved = DomainInfluence.evolved(
            domains, corpus, report.scores, domains._post_memberships,
            changed_authors=set(),
        )
        for blogger_id in corpus.blogger_ids():
            assert evolved.vector(blogger_id) == domains.vector(blogger_id)

        stamps = {"created_at": 1.0, "created_monotonic": 2.0}
        fresh = InfluenceSnapshot.compile(report, **stamps)
        evolved_snapshot = InfluenceSnapshot.evolve(
            fresh, report, set(), **stamps
        )
        assert evolved_snapshot.to_payload() == fresh.to_payload()
