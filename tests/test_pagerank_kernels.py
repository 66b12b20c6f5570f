"""The numpy PageRank kernel is bit-identical to the pure-Python one.

``REPRO_SPARSE_KERNEL`` picks the kernel; every property here runs the
same call under both and demands ``==`` on scores, iteration count,
convergence flag and residual.
"""

import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sparse_solver import HAS_NUMPY
from repro.errors import ConvergenceError
from repro.graph import Digraph, pagerank
from repro.graph.pagerank import personalized_pagerank

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="numpy unavailable")

NODES = [f"n{i}" for i in range(12)]

weights = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
edge_lists = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), weights),
    max_size=40,
)


@contextmanager
def kernel(name):
    with mock.patch.dict(os.environ, {"REPRO_SPARSE_KERNEL": name}):
        yield


def build(edges, isolated=()):
    graph = Digraph()
    for node in isolated:
        graph.add_node(node)
    for source, target, weight in edges:
        graph.add_edge(source, target, weight)
    return graph


def both(run):
    with kernel("python"):
        python = run()
    with kernel("numpy"):
        numpy = run()
    return python, numpy


@settings(max_examples=100, deadline=None)
@given(edges=edge_lists, isolated=st.lists(st.sampled_from(NODES)),
       damping=st.sampled_from([0.0, 0.5, 0.85, 0.99]))
def test_uniform_pagerank_matches(edges, isolated, damping):
    graph = build(edges, isolated)
    python, numpy = both(lambda: pagerank(graph, damping=damping))
    assert python == numpy


@settings(max_examples=100, deadline=None)
@given(edges=edge_lists, data=st.data())
def test_personalized_teleport_with_zeros_matches(edges, data):
    graph = build(edges, isolated=NODES[:2])
    nodes = graph.nodes()
    teleport = {
        node: data.draw(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0]))
        for node in nodes
    }
    teleport[nodes[0]] = 0.5  # keep the total positive
    python, numpy = both(lambda: personalized_pagerank(graph, teleport))
    assert python == numpy


def test_dangling_nodes_and_parallel_edges():
    graph = build(
        [("a", "b", 1.0), ("a", "b", 2.5), ("b", "c", 1.0), ("a", "c", 0.5),
         ("d", "a", 1.0)],
        isolated=["e"],
    )
    assert graph.weight("a", "b") == 3.5
    python, numpy = both(lambda: pagerank(graph))
    assert python == numpy
    assert python.converged


def test_iteration_cap_reports_equal_residual():
    graph = build([("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 1.0),
                   ("c", "b", 0.5)])
    python, numpy = both(
        lambda: pagerank(graph, tolerance=1e-15, max_iterations=3)
    )
    assert python == numpy
    assert not python.converged
    assert python.iterations == 3
    assert python.residual > 1e-15


@pytest.mark.parametrize("name", ["python", "numpy"])
def test_strict_raises_under_both_kernels(name):
    graph = build([("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 1.0)])
    with kernel(name):
        with pytest.raises(ConvergenceError):
            pagerank(graph, tolerance=1e-15, max_iterations=2, strict=True)
        with pytest.raises(ConvergenceError):
            personalized_pagerank(
                graph, {"a": 1.0, "b": 0.0, "c": 0.0},
                tolerance=1e-15, max_iterations=2, strict=True,
            )
