import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxrewire import cli
from taxrewire.corpus import parse_dataset, parse_idf, parse_labels
from taxrewire.learner import parse_costs, parse_model_set, serialize_model_set
from taxrewire.rewire import DeleteOp, MoveOp, RewireLog
from taxrewire.simgraph import parse_pair_set
from taxrewire.taxonomy import (
    Taxonomy,
    TaxonomyError,
    parse_taxonomy,
    serialize_taxonomy,
)

from conftest import LINE_BREAKS, model_set_of, node_weights
from reference_impls import oracle_lca, random_taxonomy


class TestParsing:
    def test_numeric_mode_uses_tokens_as_ids(self):
        tax = parse_taxonomy("0 1\n0 2\n2 3\n")
        assert tax.root == 0
        assert tax.nodes == [0, 1, 2, 3]
        assert tax.parent(3) == 2

    def test_comments_and_blank_lines_skipped(self):
        tax = parse_taxonomy("# a comment\n\n0 1\n  \n0 2\n")
        assert tax.nodes == [0, 1, 2]

    def test_a_name_token_is_rejected(self):
        # A token that is not an id fails; no table renumbers the tree.
        with pytest.raises(TaxonomyError, match="line 1: node 'root' is not a decimal"):
            parse_taxonomy("root 01\nroot 1\n")

    @pytest.mark.parametrize(
        "token,what",
        [("root", "'root' is not a decimal integer id"),
         ("01", "'01' is not a decimal integer id"),
         ("+1", "'+1' is not a decimal integer id"),
         ("-1", "'-1' is not a decimal integer id"),
         ("\u00b2", "'\u00b2' is not a decimal integer id"),
         ("\u0661", "'\u0661' is not a decimal integer id"),
         ("9223372036854775808", "'9223372036854775808' is above 2^63 - 1"),
         # A long token is cut, so the message stays short.
         ("9" * 5000, "'99999999999999999...' is above 2^63 - 1")],
        ids=["name", "leading-zero", "plus", "minus", "superscript-two", "arabic-indic-one",
             "2^63", "5000-digits"],
    )
    def test_token_that_is_not_an_id_names_its_line(self, token, what):
        with pytest.raises(TaxonomyError) as exc:
            parse_taxonomy(f"0 1\n# a comment\n1 {token}\n")
        assert str(exc.value) == f"line 3: node {what}"
        assert len(str(exc.value).encode()) < 200

    def test_largest_id_accepted(self):
        tax = parse_taxonomy("0 9223372036854775807\n")
        assert tax.leaves == frozenset({2**63 - 1})
        assert serialize_taxonomy(tax) == "0 9223372036854775807\n"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("0 1 2\n", "expected 'parent child'"),
            ("0 0\n", "self-loop"),
            ("0 1\n2 1\n", "more than one parent"),
            ("0 1\n2 3\n", "multiple root"),
            ("0 1\n1 0\n", "cycle"),
            ("", "empty"),
            ("# only a comment\n", "empty"),
        ],
    )
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(TaxonomyError, match=fragment):
            parse_taxonomy(text)

    def test_error_carries_line_number(self):
        with pytest.raises(TaxonomyError, match="line 3"):
            parse_taxonomy("0 1\n0 2\nbroken\n")


class TestValidation:
    def test_negative_id_rejected(self):
        with pytest.raises(TaxonomyError, match="non-negative"):
            Taxonomy(0, {-1: 0})

    def test_id_above_int64_rejected(self):
        with pytest.raises(TaxonomyError, match="below 2\\^63, got 9223372036854775808"):
            Taxonomy(0, {2**63: 0})
        top = Taxonomy(0, {2**63 - 1: 0})
        with pytest.raises(TaxonomyError, match="below 2\\^63, got 9223372036854775808"):
            top.add_node(0)

    def test_bool_id_rejected(self):
        with pytest.raises(TaxonomyError):
            Taxonomy(0, {True: 0})

    def test_root_with_parent_rejected(self):
        with pytest.raises(TaxonomyError, match="root"):
            Taxonomy(0, {0: 1, 1: 2})

    def test_unreachable_component_rejected(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            Taxonomy(0, {1: 0, 2: 3, 3: 2})
        # Node 5 has a child but no parent: a second root.
        with pytest.raises(TaxonomyError, match="multiple root candidates: node 5 has no parent "
                           "but the root is 0"):
            Taxonomy(0, {1: 0, 2: 5})


class TestQueries:
    def test_children_sorted(self, letter_tree, letter_ids):
        assert letter_tree.children(letter_ids["B"]) == (0, 1, 2)
        assert letter_tree.children(letter_ids["A"]) == (7, 8)

    def test_leaves_and_internal(self, letter_tree):
        assert letter_tree.leaves == frozenset({0, 1, 2, 3, 4, 5})
        assert letter_tree.internal_nodes == [6, 7, 8]
        assert letter_tree.non_root_nodes() == [0, 1, 2, 3, 4, 5, 7, 8]

    def test_paths_and_depth(self, letter_tree, letter_ids):
        three = letter_ids["3"]
        assert letter_tree.path_to_root(three) == [0, 7, 6]
        assert letter_tree.ancestors(three) == [7, 6]
        assert letter_tree.depth(three) == 2
        assert letter_tree.depth(letter_tree.root) == 0

    def test_lca_cases(self, letter_tree, letter_ids):
        t = letter_tree
        assert t.lca(letter_ids["3"], letter_ids["4"]) == letter_ids["B"]
        assert t.lca(letter_ids["3"], letter_ids["6"]) == letter_ids["A"]
        assert t.lca(letter_ids["3"], letter_ids["3"]) == letter_ids["3"]
        assert t.lca(letter_ids["3"], letter_ids["B"]) == letter_ids["B"]
        assert t.lca(t.root, letter_ids["8"]) == t.root

    def test_lca_matches_oracle_on_random_trees(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            tax = random_taxonomy(rng, int(rng.integers(2, 40)))
            nodes = tax.nodes
            for _ in range(20):
                a = nodes[int(rng.integers(len(nodes)))]
                b = nodes[int(rng.integers(len(nodes)))]
                assert tax.lca(a, b) == oracle_lca(tax, a, b)

    def test_subtrees(self, letter_tree, letter_ids):
        b = letter_ids["B"]
        assert letter_tree.subtree_nodes(b) == [0, 1, 2, 7]
        assert letter_tree.subtree_leaves(b) == frozenset({0, 1, 2})
        assert letter_tree.subtree_leaves(letter_tree.root) == letter_tree.leaves

    def test_unknown_node_raises(self, letter_tree):
        with pytest.raises(TaxonomyError, match="unknown node"):
            letter_tree.parent(99)
        with pytest.raises(TaxonomyError, match="no parent"):
            letter_tree.parent(letter_tree.root)


class TestEdits:
    def test_add_node_defaults_to_max_plus_one(self, letter_tree, letter_ids):
        out, nid = letter_tree.add_node(letter_ids["B"])
        assert nid == 9
        assert out.parent(9) == letter_ids["B"]
        assert out.is_leaf(9)
        assert 9 not in letter_tree  # original untouched

    def test_add_node_id_clash(self, letter_tree):
        with pytest.raises(TaxonomyError, match="already exists"):
            letter_tree.add_node(letter_tree.root, node_id=0)

    def test_reparent_moves_subtree(self, letter_tree, letter_ids):
        out = letter_tree.reparent(letter_ids["3"], letter_ids["C"])
        assert out.parent(letter_ids["3"]) == letter_ids["C"]
        assert sorted(out.children(letter_ids["C"])) == [0, 3, 4, 5]
        assert letter_tree.parent(letter_ids["3"]) == letter_ids["B"]

    def test_reparent_rejects_root_and_self(self, letter_tree, letter_ids):
        with pytest.raises(TaxonomyError, match="root"):
            letter_tree.reparent(letter_tree.root, letter_ids["B"])
        with pytest.raises(TaxonomyError, match="itself"):
            letter_tree.reparent(letter_ids["B"], letter_ids["B"])

    def test_reparent_under_own_descendant_rejected(self, letter_tree, letter_ids):
        with pytest.raises(TaxonomyError, match="cycle"):
            letter_tree.reparent(letter_ids["B"], letter_ids["3"])


class TestSerialization:
    def test_round_trip_numeric(self):
        text = "0 1\n0 2\n2 3\n2 4\n"
        tax = parse_taxonomy(text)
        assert serialize_taxonomy(tax) == text

    def test_single_node_serializes_empty(self):
        assert serialize_taxonomy(Taxonomy(0, {})) == ""

    def test_unsorted_input_normalizes(self):
        a = parse_taxonomy("2 3\n0 2\n0 1\n")
        b = parse_taxonomy("0 1\n0 2\n2 3\n")
        assert serialize_taxonomy(a) == serialize_taxonomy(b)


class TestFingerprint:
    def test_edge_order_does_not_matter(self):
        a = parse_taxonomy("0 1\n0 2\n")
        b = parse_taxonomy("0 2\n0 1\n")
        assert a.fingerprint() == b.fingerprint()

    def test_structure_change_detected(self, letter_tree, letter_ids):
        moved = letter_tree.reparent(letter_ids["3"], letter_ids["C"])
        assert moved.fingerprint() != letter_tree.fingerprint()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_random_tree_round_trip(n_nodes, seed):
    rng = np.random.default_rng(seed)
    tax = random_taxonomy(rng, n_nodes)
    if len(tax) == 1:
        assert serialize_taxonomy(tax) == ""
        return
    again = parse_taxonomy(serialize_taxonomy(tax))
    assert again == tax
    assert again.fingerprint() == tax.fingerprint()


# ----------------------------------------------------------------------
# every reader takes a text or an open file, through one line reader

MODEL_TREE = parse_taxonomy("5 0\n5 3\n")
MODEL_LINES = serialize_model_set(model_set_of(MODEL_TREE, "flat", {
    0: [0.5, 0.0], 3: [0.25, -1.0]}, dims=2)).splitlines()
LOG_LINES = RewireLog([MoveOp(1, (0, 2), 0, 5, 6), DeleteOp(5, 4)]).to_jsonl().splitlines()


def model_key(ms):
    return (ms.mode, ms.fingerprint, ms.dimensionality, ms.c, ms.extra_headers, ms.children,
            {node: theta.tobytes() for node, theta in node_weights(ms).items()})


# name: (reader, its result as comparable values, the lines of a good
# file, a bad line and the message it gives after its line number)
READERS = {
    "parse_taxonomy": (parse_taxonomy, lambda tax: tax, ["0 1", "0 2", "1 3"],
                       "1 x", "node 'x' is not a decimal integer id"),
    "parse_dataset": (parse_dataset, lambda d: (d.labels, d.to_csr().toarray().tolist()),
                      ["3 1:0.5 4:2.0", "4 2:1.5", "3 1:1"], "3 1:x", "malformed entry '1:x'"),
    "parse_labels": (parse_labels, list, ["3 1:0.5", "4 2:1.5", "3"], "x 1:1",
                     "non-numeric label 'x'"),
    "parse_idf": (parse_idf, dict, ["1 0.5", "2 1.25", "4 0.0"], "3 nan", "non-finite idf 'nan'"),
    "parse_costs": (parse_costs, np.ndarray.tolist, ["1.0", "2.5", "0.5"], "-1",
                    "costs must be positive and finite"),
    "_parse_predictions": (lambda source: cli._parse_predictions(source, 3), list,
                           ["0 3", "1 4", "2 3"], "1 4 5", "expected 'index label'"),
    "parse_pair_set": (parse_pair_set, lambda p: (p.a.tolist(), p.b.tolist(),
                                                  p.score.tolist(), p.tau),
                       ["# tau 0.5", "0 1 0.9", "2 1 0.75", "0 2 0.6"], "0 0 0.5",
                       "pair (0, 0) names one class twice"),
    "parse_model_set": (lambda source: parse_model_set(source, MODEL_TREE), model_key,
                        MODEL_LINES, "0 1:0.5",
                        "an old 'idx:weight' model line"),
    "RewireLog.from_jsonl": (RewireLog.from_jsonl, lambda log: log.ops, LOG_LINES,
                             '{"op": "nope"}', "unknown op 'nope'"),
}


def outcome(reader, source):
    """``("ok", the reader's result as comparable values)``, or ``("error",
    its error's type, its message)``."""
    parse, key = READERS[reader][:2]
    try:
        return "ok", key(parse(source))
    except ValueError as exc:
        return "error", type(exc), str(exc)


def from_file(reader, text, directory):
    """:func:`outcome` of the reader on ``text`` written to a file and opened as the CLI opens it."""
    path = Path(directory) / "input.txt"
    path.write_text(text, encoding="utf-8", newline="")
    with path.open(encoding="utf-8") as fh:
        return outcome(reader, fh)


def head(reader):
    """Blank and '#' lines a good file of ``reader`` may start with: a log has no '#' line."""
    return ["", "  "] if reader == "RewireLog.from_jsonl" else ["", "# note", "  "]


class TestTextAndFileReadAlike:
    """A text, its file and its ``splitlines()`` read alike, lines numbered as in the text."""

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
    @pytest.mark.parametrize("reader", READERS)
    def test_every_line_break(self, tmp_path, reader, brk):
        good = READERS[reader][2]
        text = brk.join([*head(reader), good[0], "", *good[1:]])
        for source in (text, text + brk):  # without and with the final break
            want = outcome(reader, source)
            assert want[0] == "ok"
            assert from_file(reader, source, tmp_path) == want
            assert outcome(reader, source.splitlines()) == want

    @pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028"], ids=repr)
    @pytest.mark.parametrize("reader", READERS)
    def test_a_break_inside_a_line_cuts_it(self, tmp_path, reader, brk):
        good = READERS[reader][2]
        cut = len(good[-1]) // 2
        text = "\n".join([*good[:-1], good[-1][:cut] + brk + good[-1][cut:]]) + "\n"
        want = outcome(reader, text)
        assert want == outcome(reader, text.replace(brk, "\n"))
        assert from_file(reader, text, tmp_path) == want
        assert outcome(reader, text.splitlines()) == want

    @pytest.mark.parametrize("reader", READERS)
    def test_a_bad_line_is_named_alike(self, tmp_path, reader):
        lines = [*head(reader), *READERS[reader][2], READERS[reader][3]]
        text = "".join(line + brk for line, brk in zip(lines, LINE_BREAKS[::-1] * 2))
        want = outcome(reader, text)
        assert want[0] == "error" and f"line {len(lines)}: {READERS[reader][4]}" in want[2]
        assert from_file(reader, text, tmp_path) == want
        assert outcome(reader, text.splitlines()) == want

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("reader", READERS)
    def test_any_lines_read_alike(self, reader, data):
        _, _, good, bad, _ = READERS[reader]
        lines = data.draw(st.lists(st.sampled_from([*good, bad, "", "  ", "# note"]),
                                   max_size=8))
        breaks = data.draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                                    max_size=len(lines)))
        text = "".join(line + brk for line, brk in zip(lines, breaks))
        if lines and data.draw(st.booleans()):
            text = text[:-len(breaks[-1])]
        want = outcome(reader, text)
        with tempfile.TemporaryDirectory() as tmp:
            assert from_file(reader, text, tmp) == want
        assert outcome(reader, text.splitlines()) == want
