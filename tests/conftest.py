r"""Shared fixtures.

The letter tree used throughout, with its node ids:

            A=6
          /     \
       B=7       C=8
      / | \     / | \
   3=0 4=1 5=2 6=3 7=4 8=5

``letter_ids`` maps each letter to its id.
"""

import tracemalloc

import numpy as np
import pytest

from taxrewire import corpus
from taxrewire.corpus import Dataset, make_sparse
from taxrewire.learner import ModelSet, WeightBlock
from taxrewire.simgraph import SimilarPairSet
from taxrewire.taxonomy import Taxonomy, parse_taxonomy

LETTER_EDGES = "6 7\n6 8\n7 0\n7 1\n7 2\n8 3\n8 4\n8 5\n"

# Every character str.splitlines() breaks a line at; "\r\n" is one break.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.fixture
def letter_tree():
    return parse_taxonomy(LETTER_EDGES)


@pytest.fixture
def letter_ids():
    """name -> id shortcut for readable rewiring tests."""
    return {"3": 0, "4": 1, "5": 2, "6": 3, "7": 4, "8": 5, "A": 6, "B": 7, "C": 8}


def pair_set(*pairs: tuple[int, int], tau: float = 0.5) -> SimilarPairSet:
    """Build a pair set from (a, b) tuples; scores descend from 0.9."""
    scores = [round(0.9 - 0.01 * i, 6) for i in range(len(pairs))]
    return SimilarPairSet([min(p) for p in pairs], [max(p) for p in pairs], scores, tau)


@pytest.fixture(params=[1, 3], ids=lambda n: f"chunk{n}")
def parse_chunk(request, monkeypatch):
    """Bulk row parsing in chunks of 1 or 3 entries: errors in later chunks,
    lines longer than a chunk, and chunks of lines with no entries."""
    monkeypatch.setattr(corpus, "_PARSE_CHUNK", request.param)
    return request.param


@pytest.fixture
def tiny_dataset():
    """Six instances over two classes with an obvious separating feature."""
    vectors = [
        make_sparse([1, 3], [1.0, 0.2]),
        make_sparse([1], [0.9]),
        make_sparse([1, 2], [1.1, 0.1]),
        make_sparse([2], [1.0]),
        make_sparse([2, 3], [0.8, 0.2]),
        make_sparse([2, 1], [1.2, 0.05]),
    ]
    labels = [0, 0, 0, 1, 1, 1]
    return Dataset(vectors, labels, 3)


def one_hot_dataset(leaves, per_leaf, dims=None, seed=0, jitter=0.0):
    """Each class gets its own indicator feature; trivially separable.

    Feature index of leaf ``l`` is its 1-based position in sorted order.
    Optional jitter adds small seeded off-feature noise.
    """
    leaves = sorted(leaves)
    dims = dims or len(leaves)
    rng = np.random.default_rng(seed)
    vectors, labels = [], []
    for pos, leaf in enumerate(leaves, start=1):
        for _ in range(per_leaf):
            idx, val = [pos], [1.0]
            if jitter:
                other = 1 + int(rng.integers(dims))
                if other != pos:
                    idx.append(other)
                    val.append(jitter * float(rng.uniform(0.1, 1.0)))
            vectors.append(make_sparse(idx, val))
            labels.append(leaf)
    return Dataset(vectors, labels, dims)


def model_set_of(tax: Taxonomy, mode: str, thetas: dict, dims: int, c: float = 1.0) -> ModelSet:
    """The ``mode`` model set over ``tax`` whose node ``n`` has the weights ``thetas[n]``.

    Its blocks stack the rows of each parent's children in the tree
    ``mode`` descends: ``tax`` for td-lr, the one-level tree for flat.
    """
    if mode == "flat":
        leaves = tuple(sorted(tax.leaves - {tax.root}))
        children = {tax.root: leaves} if leaves else {}
    else:
        children = {n: tax.children(n) for n in tax.internal_nodes}
    blocks = {
        n: WeightBlock(np.array([thetas[k] for k in kids], np.float64).reshape(len(kids), dims),
                       np.full(len(kids), np.nan), np.ones(len(kids), dtype=bool))
        for n, kids in children.items()
    }
    return ModelSet(mode, tax.fingerprint(), dims, c, children, blocks)


def node_weights(model_set: ModelSet) -> dict:
    """Each node's weights, a row of its parent's block, in node order."""
    return {node: block.weights[i] for node, (block, i) in model_set.slots().items()}


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
