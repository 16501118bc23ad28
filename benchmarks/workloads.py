"""Workload definitions: seeded input generation and the CLI stages each runs.

Every workload writes its inputs into one directory (``true.edges``,
``corrupted.edges``, ``train.txt`` and, for the learning workloads,
``test.txt``) and lists the ``taxrewire`` commands of its pipeline as
argv lists.  The program only ever sees these generated files; the seed
stays with the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from taxrewire import cli, corpus, taxonomy

@dataclass(frozen=True)
class Planted:
    """Shape of a planted benchmark generated by ``taxrewire bench``.

    ``test_per_leaf`` instances of each leaf are held out for testing;
    the rest train.  0 means the workload does not classify.
    """

    leaves: int
    fanout: int
    dims: int
    per_leaf: int
    test_per_leaf: int
    noise: float
    misplaced: int


@dataclass(frozen=True)
class Text:
    """Shape of the seeded sparse word-count corpus.

    The tree is ``groups`` x ``leaves_per_group`` under one root.  Every
    non-root node owns ``topic_words`` words of the vocabulary.  A token
    of a document comes from its leaf's topic words with probability
    ``leaf_share``, from its parent group's with ``group_share``, and
    otherwise from a Zipf(``zipf_s``) background over the whole
    vocabulary.
    """

    groups: int
    leaves_per_group: int
    vocab: int
    topic_words: int
    train_per_leaf: int
    test_per_leaf: int
    doc_len: int
    leaf_share: float
    group_share: float
    zipf_s: float
    misplaced: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Planted | Text
    method: str | None  # None: similarity and rewire only
    selection: tuple[str, ...]  # similarity flags choosing the pairs
    tfidf: bool
    # Wall seconds of one pass of the frozen reference at the reference
    # speed; times are reported at that speed.
    reference_s: float = 1.0


_TEXT_64 = Text(
    groups=8, leaves_per_group=8, vocab=10_000, topic_words=20,
    train_per_leaf=20, test_per_leaf=60, doc_len=120,
    leaf_share=0.03, group_share=0.03, zipf_s=1.1, misplaced=4,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "repair-729",
            "similarity and rewire on 729 planted leaves: the simgraph, rewire and taxonomy layers",
            Planted(leaves=729, fanout=3, dims=32, per_leaf=2, test_per_leaf=0,
                    noise=0.2, misplaced=40),
            None, ("--top-k", "5000"), False, reference_s=8.0,
        ),
        Workload(
            "text-flat-64",
            "all stages, flat LR on a sparse tf-idf word corpus: the corpus, learner, solver and "
            "model-file I/O layers",
            _TEXT_64,
            # top-k at the planted same-parent pair count
            "flat", ("--top-k", str(_TEXT_64.groups * math.comb(_TEXT_64.leaves_per_group, 2))),
            True, reference_s=6.0,
        ),
    )
}


# ----------------------------------------------------------------------
# input generation


def make_inputs(workload: Workload, seed: int, out: Path) -> None:
    """Write the workload's inputs for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(workload.shape, Planted):
        _planted_inputs(workload.shape, seed, out)
    else:
        _text_inputs(workload.shape, seed, out)


def _planted_inputs(shape: Planted, seed: int, out: Path) -> None:
    code = cli.main([
        "bench", "--out", str(out), "--seed", str(seed),
        "--fanout", str(shape.fanout), "--leaves", str(shape.leaves),
        "--dims", str(shape.dims), "--instances-per-leaf", str(shape.per_leaf),
        "--noise", repr(shape.noise), "--misplaced", str(shape.misplaced),
    ])
    if code != 0:
        raise RuntimeError(f"taxrewire bench exited {code}")
    # data.txt lists each leaf's instances together; the first
    # per_leaf - test_per_leaf of each leaf train, the rest test.
    n_train = shape.per_leaf - shape.test_per_leaf
    seen: dict[str, int] = {}
    train, test = [], []
    for line in (out / "data.txt").read_text(encoding="utf-8").splitlines(keepends=True):
        label = line.split(" ", 1)[0]
        seen[label] = seen.get(label, 0) + 1
        (train if seen[label] <= n_train else test).append(line)
    (out / "data.txt").unlink()
    (out / "bench_summary.json").unlink()
    (out / "train.txt").write_text("".join(train), encoding="utf-8")
    if test:
        (out / "test.txt").write_text("".join(test), encoding="utf-8")


def _text_inputs(shape: Text, seed: int, out: Path) -> None:
    tree, corrupted, train, test = gen_text(shape, seed)
    (out / "true.edges").write_text(taxonomy.serialize_taxonomy(tree), encoding="utf-8")
    (out / "corrupted.edges").write_text(
        taxonomy.serialize_taxonomy(corrupted), encoding="utf-8"
    )
    (out / "train.txt").write_text(corpus.serialize_dataset(train), encoding="utf-8")
    (out / "test.txt").write_text(corpus.serialize_dataset(test), encoding="utf-8")


def gen_text(shape: Text, seed: int):
    """Seeded word-count corpus over a planted two-level tree.

    Returns (true tree, corrupted tree, train set, test set).  Values are
    raw term counts, so ``taxrewire`` applies tf-idf itself.
    """
    rng = np.random.default_rng(seed)
    tree = _two_level_tree(shape.groups, shape.leaves_per_group)
    nodes = tree.non_root_nodes()
    if len(nodes) * shape.topic_words > shape.vocab:
        raise ValueError("vocabulary too small for disjoint topic words")
    perm = rng.permutation(shape.vocab) + 1
    topic = {
        node: np.sort(perm[k * shape.topic_words:(k + 1) * shape.topic_words])
        for k, node in enumerate(nodes)
    }
    # Background ranks map onto a random permutation of the vocabulary.
    zipf = 1.0 / np.arange(1, shape.vocab + 1) ** shape.zipf_s
    cdf = np.cumsum(zipf / zipf.sum())
    background = rng.permutation(shape.vocab) + 1

    leaves = sorted(tree.leaves)
    shares = [shape.leaf_share, shape.group_share, 1.0 - shape.leaf_share - shape.group_share]

    def documents(per_leaf: int) -> corpus.Dataset:
        vectors, labels = [], []
        for leaf in leaves:
            group = tree.parent(leaf)
            for _ in range(per_leaf):
                n_leaf, n_group, n_bg = rng.multinomial(shape.doc_len, shares)
                words = np.concatenate([
                    rng.choice(topic[leaf], n_leaf),
                    rng.choice(topic[group], n_group),
                    background[np.searchsorted(cdf, rng.random(n_bg), side="right").clip(
                        max=shape.vocab - 1)],
                ])
                idx, counts = np.unique(words, return_counts=True)
                vectors.append(corpus.SparseVector(idx.astype(np.int64), counts.astype(np.float64)))
                labels.append(leaf)
        return corpus.Dataset(vectors, labels, shape.vocab)

    train = documents(shape.train_per_leaf)
    test = documents(shape.test_per_leaf)
    corrupted = tree
    groups = tree.children(tree.root)
    for leaf in rng.choice(leaves, shape.misplaced, replace=False):
        leaf = int(leaf)
        wrong = [g for g in groups if g != tree.parent(leaf)]
        corrupted = corrupted.reparent(leaf, wrong[int(rng.integers(len(wrong)))])
    return tree, corrupted, train, test


def _two_level_tree(groups: int, per_group: int) -> taxonomy.Taxonomy:
    """Root 0, groups 1..g, leaves numbered group by group after them."""
    parent_of = {g: 0 for g in range(1, groups + 1)}
    leaf = groups + 1
    for g in range(1, groups + 1):
        for _ in range(per_group):
            parent_of[leaf] = g
            leaf += 1
    return taxonomy.Taxonomy(0, parent_of)


# ----------------------------------------------------------------------
# pipeline


STAGES = ("similarity", "rewire", "train", "predict", "evaluate")


def stage_argv(workload: Workload, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's CLI invocations, in pipeline order, writing under ``out``."""
    train, corrupted = str(inputs / "train.txt"), str(inputs / "corrupted.edges")
    sim, rew, tr, pr, ev = (str(out / s) for s in STAGES)
    modified = str(out / "rewire" / "modified.edges")
    no_tfidf = [] if workload.tfidf else ["--no-tfidf"]
    stages = [
        ("similarity", ["similarity", "--data", train, "--hierarchy", corrupted,
                        "--out", sim, *workload.selection, *no_tfidf]),
        ("rewire", ["rewire", "--hierarchy", corrupted,
                    "--pairs", str(out / "similarity" / "pairs.txt"), "--out", rew]),
    ]
    if workload.method is None:
        return stages
    test = str(inputs / "test.txt")
    idf = ["--idf", str(out / "train" / "idf.txt")] if workload.tfidf else []
    stages += [
        ("train", ["train", "--data", train, "--hierarchy", modified, "--out", tr,
                   "--method", workload.method, "--C", "10", "--workers", "2", *no_tfidf]),
        ("predict", ["predict", "--model", str(out / "train" / "model.txt"), "--data", test,
                     "--hierarchy", modified, "--out", pr, *idf]),
        ("evaluate", ["evaluate", "--predictions", str(out / "predict" / "predictions.txt"),
                      "--data", test, "--hierarchy", str(inputs / "true.edges"), "--out", ev]),
    ]
    return stages
