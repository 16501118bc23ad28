import json
import re
from dataclasses import astuple

import numpy as np
import pytest

from taxrewire.rewire import (
    CollapseOp,
    CreateOp,
    DeleteOp,
    MoveOp,
    RewireError,
    RewireLog,
    _delete_sweep,
    collapse_chains,
    replay_log,
    rewire_hierarchy,
)
from taxrewire.taxonomy import TaxonomyError, parse_taxonomy

from conftest import LETTER_EDGES, pair_set
from reference_impls import (
    json_dumps_log,
    random_pair_set,
    random_taxonomy,
    round_by_round_collapse,
    round_by_round_delete_sweep,
)


def apply_one(tax, op):
    """Replay a single logged edit on ``tax``."""
    return replay_log(tax, RewireLog([op]))


def delete_sweep(tax, class_leaves):
    """Run the final node_delete sweep on a copy of ``tax``."""
    work = tax.copy()
    ops = _delete_sweep(work, frozenset(class_leaves))
    work.validate()
    return work, ops


class TestVetoes:
    """Which edit a pair gets, on the letter tree (B holds 3,4,5; C holds 6,7,8).

    A leaf may join the other leaf's parent only if it is paired with every
    class leaf there; when neither may move, the pair gets a new node.
    """

    def test_isolated_pair_blocks_both_moves(self, letter_tree, letter_ids):
        i = letter_ids
        _, log = rewire_hierarchy(letter_tree, pair_set((i["3"], i["6"])))
        assert log.ops == [CreateOp(1, (i["3"], i["6"]), i["A"], 9)]

    def test_pair_with_all_siblings_allows_move(self, letter_tree, letter_ids):
        i = letter_ids
        # 6 is similar to every leaf under B, so 6 may join them;
        # 3 is not similar to 7 or 8, so 3 may not join C.
        pairs = pair_set((i["3"], i["6"]), (i["4"], i["6"]), (i["5"], i["6"]))
        _, log = rewire_hierarchy(letter_tree, pairs)
        assert log.ops[0] == MoveOp(1, (i["3"], i["6"]), i["6"], i["C"], i["B"])

    def test_symmetric_case_moves_first(self, letter_tree, letter_ids):
        i = letter_ids
        pairs = pair_set(
            (i["3"], i["6"]), (i["4"], i["6"]), (i["5"], i["6"]),
            (i["3"], i["7"]), (i["3"], i["8"]),
        )
        _, log = rewire_hierarchy(letter_tree, pairs)
        assert log.ops[0] == MoveOp(1, (i["3"], i["6"]), i["3"], i["B"], i["C"])

    def test_no_class_siblings_is_vacuously_permissive(self):
        # 1 sits alone under the root; nothing can veto a move toward it,
        # while sibling 4 of 3 is not paired with 1, so 1 may not move.
        tax = parse_taxonomy("0 1\n0 2\n2 3\n2 4\n")
        _, log = rewire_hierarchy(tax, pair_set((1, 3)))
        assert log.ops == [MoveOp(1, (1, 3), 3, 2, 0)]

    def test_same_parent_pair_logs_nothing(self, letter_tree, letter_ids):
        i = letter_ids
        out, log = rewire_hierarchy(letter_tree, pair_set((i["3"], i["4"])))
        assert out == letter_tree and log.ops == []

    def test_emptied_parent_does_not_veto(self):
        # (3, 6) moves 3 under 12 and empties 11, which is no class.
        # (3, 7) then shares a parent.  (6, 9) moves 6 under 10: among
        # 10's children only 9 is a class leaf.  Were the emptied 11 a
        # veto, the op would be a node_create.
        tax = parse_taxonomy("10 11\n10 12\n10 9\n11 3\n12 6\n12 7\n")
        out, log = rewire_hierarchy(tax, pair_set((3, 6), (3, 7), (6, 9)))
        assert log.ops[:2] == [MoveOp(1, (3, 6), 3, 11, 12), MoveOp(3, (6, 9), 6, 12, 10)]
        assert log.ops[2:] == [DeleteOp(node=11, parent=10)]
        assert out.parent(6) == 10


class TestElementaryOps:
    def test_node_create_under_lca(self, letter_tree, letter_ids):
        i = letter_ids
        _, log = rewire_hierarchy(letter_tree, pair_set((i["3"], i["6"])))
        # attached at the LCA, with the next free id
        assert log.ops == [CreateOp(1, (i["3"], i["6"]), i["A"], 9)]
        out = apply_one(letter_tree, log.ops[0])
        assert out.parent(9) == i["A"]
        assert out.parent(i["3"]) == 9 and out.parent(i["6"]) == 9
        assert sorted(out.children(9)) == sorted([i["3"], i["6"]])

    def test_node_create_never_takes_an_id_above_int64(self):
        top = 2**63 - 1
        tax = parse_taxonomy(f"0 1\n0 2\n1 3\n1 4\n1 5\n2 6\n2 7\n2 {top}\n")
        # Neither parent can take the other leaf, so the pair needs a new
        # parent, and max(ids) + 1 is 2^63.
        with pytest.raises(RewireError,
                           match=f"^pair \\(3, {top}\\): no node id is left for a new parent$"):
            rewire_hierarchy(tax, pair_set((3, top)))

    def test_node_create_rejects_same_parent_or_internal(self, letter_tree, letter_ids):
        i = letter_ids
        with pytest.raises(RewireError, match="share a parent"):
            apply_one(letter_tree, CreateOp(1, (i["3"], i["4"]), i["A"], 9))
        with pytest.raises(RewireError, match="not a leaf"):
            apply_one(letter_tree, CreateOp(1, (i["B"], i["6"]), i["A"], 9))

    def test_pc_rewire_moves_leaf(self, letter_tree, letter_ids):
        i = letter_ids
        out = apply_one(letter_tree, MoveOp(1, (i["3"], i["6"]), i["3"], i["B"], i["C"]))
        assert out.parent(i["3"]) == i["C"]
        assert letter_tree.parent(i["3"]) == i["B"]  # input untouched

    def test_pc_rewire_target_rules(self, letter_tree, letter_ids):
        i = letter_ids

        def move_3_under(target):
            return apply_one(letter_tree, MoveOp(1, (i["3"], i["6"]), i["3"], i["B"], target))

        with pytest.raises(RewireError, match="cannot receive children"):
            move_3_under(i["6"])
        with pytest.raises(RewireError, match="already under"):
            move_3_under(i["B"])
        with pytest.raises(RewireError, match="not in the tree"):
            move_3_under(42)
        # the root is always a legal target
        assert move_3_under(i["A"]).parent(i["3"]) == i["A"]

    def test_delete_sweep_is_identity_on_clean_trees(self, letter_tree):
        out, ops = delete_sweep(letter_tree, letter_tree.leaves)
        assert out == letter_tree and ops == []

    def test_delete_sweep_cascades_up_chains(self):
        tax = parse_taxonomy("0 1\n1 2\n0 3\n")
        out, ops = delete_sweep(tax, [3])
        assert out.nodes == [0, 3]
        assert [op.node for op in ops] == [2, 1]

    def test_delete_sweep_spares_class_leaves(self):
        tax = parse_taxonomy("0 1\n0 2\n1 3\n")
        out, _ = delete_sweep(tax, [2, 3])
        assert out.nodes == [0, 1, 2, 3]

    def test_collapse_splices_single_child_nodes(self):
        tax = parse_taxonomy("0 1\n1 2\n2 3\n2 4\n")
        out, ops = collapse_chains(tax)
        assert out.parent(2) == 0
        assert 1 not in out
        assert ops == [CollapseOp(node=1, child=2, parent=0)]

    def test_collapse_never_touches_class_leaves(self):
        tax = parse_taxonomy("0 1\n1 2\n")
        out, ops = collapse_chains(tax)
        # node 1 has one child (class leaf 2): spliced; 2 survives under 0
        assert out.nodes == [0, 2] and out.parent(2) == 0
        assert len(ops) == 1


class TestFullPass:
    def test_isolated_cross_pair_creates_node(self, letter_tree, letter_ids):
        i = letter_ids
        pairs = pair_set((i["3"], i["6"]))
        out, log = rewire_hierarchy(letter_tree, pairs)
        assert log.counts() == {
            "node_create": 1, "pc_rewire": 0, "node_delete": 0, "collapse": 0,
        }
        created = log.ops[0]
        assert isinstance(created, CreateOp)
        assert created.parent == i["A"]
        assert out.parent(i["3"]) == out.parent(i["6"]) == created.new_node

    def test_absorbing_pairs_move_one_leaf(self, letter_tree, letter_ids):
        i = letter_ids
        pairs = pair_set((i["3"], i["6"]), (i["4"], i["6"]), (i["5"], i["6"]))
        out, log = rewire_hierarchy(letter_tree, pairs)
        # first pair moves 6 under B; the remaining pairs then share parents
        assert log.counts()["pc_rewire"] == 1
        move = log.ops[0]
        assert isinstance(move, MoveOp)
        assert move.leaf == i["6"] and move.new_parent == i["B"]
        assert sorted(out.children(i["B"])) == [i["3"], i["4"], i["5"], i["6"]]
        assert sorted(out.children(i["C"])) == [i["7"], i["8"]]

    def test_first_leaf_moves_when_both_directions_allowed(self, letter_tree, letter_ids):
        i = letter_ids
        pairs = pair_set(
            (i["3"], i["6"]), (i["4"], i["6"]), (i["5"], i["6"]),
            (i["3"], i["7"]), (i["3"], i["8"]),
        )
        out, log = rewire_hierarchy(letter_tree, pairs)
        first_op = log.ops[0]
        assert isinstance(first_op, MoveOp)
        # pair (3, 6): both moves legal, the smaller id (3) moves under C
        assert first_op.leaf == i["3"]
        assert first_op.new_parent == i["C"]

    def test_emptied_parent_is_deleted(self, letter_tree, letter_ids):
        from itertools import combinations

        i = letter_ids
        # all six leaves mutually similar: B drains leaf by leaf into C
        # (the smaller-id side moves when both directions are legal),
        # leaving B childless and swept away.
        pairs = pair_set(*combinations(sorted(letter_tree.leaves), 2))
        out, log = rewire_hierarchy(letter_tree, pairs)
        assert log.counts() == {
            "node_create": 0, "pc_rewire": 3, "node_delete": 1, "collapse": 0,
        }
        assert i["B"] not in out
        assert sorted(out.children(i["C"])) == [0, 1, 2, 3, 4, 5]
        assert out.leaves == letter_tree.leaves

    def test_pairs_outside_the_class_leaves_are_rejected(self, letter_tree, letter_ids):
        i = letter_ids
        with pytest.raises(RewireError, match=r"^pair \(90, 91\): node 90 is not a class leaf"):
            rewire_hierarchy(letter_tree, pair_set((90, 91)))
        # an internal node; the first misfit in set order is named, even
        # after pairs that fit
        pairs = pair_set((i["3"], i["6"]), (i["6"], i["B"]), (i["4"], 99))
        with pytest.raises(RewireError, match=r"^pair \(3, 7\): node 7 is not a class leaf"):
            rewire_hierarchy(letter_tree, pairs)
        assert letter_tree == parse_taxonomy(LETTER_EDGES)

    def test_input_tree_never_mutated(self, letter_tree, letter_ids):
        i = letter_ids
        before = parse_taxonomy("6 7\n6 8\n7 0\n7 1\n7 2\n8 3\n8 4\n8 5\n")
        rewire_hierarchy(letter_tree, pair_set((i["3"], i["6"])))
        assert letter_tree == before

    def test_class_leaves_always_preserved(self, letter_tree, letter_ids):
        i = letter_ids
        pairs = pair_set((i["3"], i["6"]), (i["4"], i["7"]), (i["5"], i["8"]))
        out, _ = rewire_hierarchy(letter_tree, pairs)
        assert out.leaves == letter_tree.leaves


class IntSubclass(int):
    pass


class TestLog:
    def test_jsonl_round_trip(self, letter_tree):
        from itertools import combinations

        pairs = pair_set(*combinations(sorted(letter_tree.leaves), 2))
        _, log = rewire_hierarchy(letter_tree, pairs)
        assert {type(op) for op in log.ops} == {MoveOp, DeleteOp}
        again = RewireLog.from_jsonl(log.to_jsonl())
        assert again.ops == log.ops

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(RewireError, match="^log line 1: unknown op 'warp'$"):
            RewireLog.from_jsonl('{"op": "warp", "node": 1}\n')
        with pytest.raises(RewireError, match=r"^log line 1: unknown op \['node_delete'\]$"):
            RewireLog.from_jsonl('{"op": ["node_delete"], "node": 1, "parent": 0}\n')
        with pytest.raises(RewireError, match="^log line 1: "):
            RewireLog.from_jsonl("5\n")  # JSON, but not an object
        with pytest.raises(RewireError, match="^log line 1: 'pair'$"):
            RewireLog.from_jsonl('{"op": "pc_rewire", "iteration": 1, "leaf": 0}\n')
        with pytest.raises(RewireError, match="log line 2"):
            RewireLog.from_jsonl('{"op": "node_delete", "node": 1, "parent": 0}\nnot json\n')

    # Node fields hold node ids and an iteration is a positive int: a log
    # line that breaks this fails at load, before any replay.
    @pytest.mark.parametrize("fields,fragment", [
        ('"new_node": -5', "new_node: node ids must be non-negative integers below 2\\^63, "
                           "got -5$"),
        ('"new_node": true', "new_node: .*got True$"),
        ('"new_node": 2.5', "new_node: .*got 2.5$"),
        ('"new_node": 9223372036854775808', "new_node: .*got 9223372036854775808$"),
        ('"parent": "6"', "parent: .*got '6'$"),
        ('"pair": [0, 3.0]', "pair: .*got 3.0$"),
        ('"pair": [0, 3, 4]', "too many values to unpack"),
        ('"iteration": "x"', "iteration must be a positive integer, got 'x'$"),
        ('"iteration": 0', "iteration must be a positive integer, got 0$"),
        ('"iteration": true', "iteration must be a positive integer, got True$"),
    ], ids=["negative", "bool", "float", "2^63", "str", "float-in-pair", "three-in-pair",
            "iteration-str", "iteration-zero", "iteration-bool"])
    def test_from_jsonl_rejects_a_field_that_is_not_an_id(self, fields, fragment):
        record = {"op": "node_create", "iteration": 1, "pair": [0, 3], "parent": 6,
                  "new_node": 9, **json.loads("{" + fields + "}")}
        text = '{"op": "node_delete", "node": 1, "parent": 0}\n' + json.dumps(record) + "\n"
        with pytest.raises(RewireError, match="^log line 2: " + fragment):
            RewireLog.from_jsonl(text)

    def test_from_jsonl_rejects_a_bool_old_parent(self):
        # True == 1 in Python: without the check it would replay as node 1.
        line = ('{"op": "pc_rewire", "iteration": 1, "pair": [0, 3], "leaf": 0, '
                '"old_parent": true, "new_parent": 8}\n')
        with pytest.raises(RewireError, match="^log line 1: old_parent: .*got True$"):
            RewireLog.from_jsonl(line)

    # An op checks its fields when it is built, so a log never holds one
    # that to_jsonl would write as something from_jsonl rejects.
    @pytest.mark.parametrize("build,fragment", [
        (lambda: DeleteOp(True, np.int64(3)), "node: .*got True$"),
        (lambda: DeleteOp(3, np.int64(3)), f"parent: .*got {re.escape(repr(np.int64(3)))}$"),
        (lambda: DeleteOp(2.0, 0), "node: .*got 2.0$"),
        (lambda: DeleteOp(IntSubclass(2), 0), "node: .*got 2$"),
        (lambda: DeleteOp(-1, 0), "node: node ids must be non-negative integers below 2\\^63, "
                                  "got -1$"),
        (lambda: CollapseOp(1, 2**63, 0), "child: .*got 9223372036854775808$"),
        (lambda: CreateOp(1, (0, np.int64(3)), 6, 9),
         f"pair: .*got {re.escape(repr(np.int64(3)))}$"),
        (lambda: CreateOp(1, (0, 3, 4), 6, 9), "pair must be a tuple of two node ids"),
        (lambda: CreateOp(1, [0, 3], 6, 9), "pair must be a tuple of two node ids"),
        (lambda: MoveOp(1, (0, 3), 0, False, 8), "old_parent: .*got False$"),
        (lambda: MoveOp(np.int64(1), (0, 3), 0, 2, 8), "iteration must be a positive integer"),
        (lambda: MoveOp(0, (0, 3), 0, 2, 8), "iteration must be a positive integer, got 0$"),
    ], ids=["bool", "numpy-int", "float", "int-subclass", "negative", "2^63", "numpy-int-in-pair",
            "three-in-pair", "list-pair", "bool-old-parent", "numpy-iteration", "iteration-zero"])
    def test_op_rejects_a_field_that_is_not_an_id(self, build, fragment):
        with pytest.raises(ValueError, match=fragment):
            build()

    def assert_matches_json_dumps(self, log):
        text = log.to_jsonl()
        assert text == json_dumps_log(log.ops)
        assert RewireLog.from_jsonl(text).ops == log.ops

    def test_jsonl_matches_json_dumps_on_rewire_runs(self):
        rng = np.random.default_rng(5)
        kinds = set()
        for _ in range(30):
            tax = random_taxonomy(rng, int(rng.integers(2, 40)))
            _, log = rewire_hierarchy(tax, random_pair_set(rng, tax, max_pairs=60))
            self.assert_matches_json_dumps(log)
            kinds.update(type(op) for op in log.ops)
        assert kinds == {CreateOp, MoveOp, DeleteOp}

    def test_jsonl_matches_json_dumps_on_collapse_chains(self):
        rng = np.random.default_rng(6)
        n_ops = 0
        for _ in range(20):
            _, ops = collapse_chains(random_taxonomy(rng, int(rng.integers(2, 40))))
            self.assert_matches_json_dumps(RewireLog(list(ops)))
            n_ops += len(ops)
        assert n_ops

    def test_jsonl_matches_json_dumps_up_to_the_largest_id(self):
        top = 2**63 - 1
        log = RewireLog([
            CreateOp(top, (0, top - 1), top - 2, top),
            MoveOp(top, (top - 1, top), top, 0, top - 2),
            DeleteOp(top, top - 1),
            CollapseOp(top, 0, top - 1),
            CreateOp(1, (0, 1), 0, 2),
        ])
        self.assert_matches_json_dumps(log)

    def test_empty_log_serializes_empty(self):
        assert RewireLog([]).to_jsonl() == ""
        assert RewireLog.from_jsonl("").ops == []

    def test_replay_reproduces_each_worked_example(self, letter_tree, letter_ids):
        from itertools import combinations

        i = letter_ids
        cases = [
            pair_set((i["3"], i["6"])),
            pair_set((i["3"], i["6"]), (i["4"], i["6"]), (i["5"], i["6"])),
            pair_set(*combinations(sorted(letter_tree.leaves), 2)),
        ]
        for pairs in cases:
            out, log = rewire_hierarchy(letter_tree, pairs)
            assert replay_log(letter_tree, log) == out

    def test_replay_covers_collapse_ops(self):
        tax = parse_taxonomy("0 1\n1 2\n2 3\n2 4\n")
        out, ops = collapse_chains(tax)
        assert replay_log(tax, RewireLog(list(ops))) == out


class TestUntrustedReplay:
    """Logs that do not fit the tree are rejected, whatever their source.

    Letter-tree ids: leaves 3..8 are 0..5, A (root) 6, B 7, C 8.
    """

    @pytest.mark.parametrize(
        "jsonl,error,fragment",
        [
            pytest.param('{"op": "node_create", "iteration": 1, "pair": [0, 3], "parent": 6, '
                         '"new_node": 8}', TaxonomyError, "already exists", id="create-clash"),
            pytest.param('{"op": "node_create", "iteration": 1, "pair": [0, 3], "parent": 0, '
                         '"new_node": 9}', RewireError, "ancestor of 0 and 3 is 6, not 0",
                         id="create-cycle"),
            pytest.param('{"op": "node_delete", "node": 7, "parent": 6}',
                         TaxonomyError, "children", id="delete-parent"),
            pytest.param('{"op": "node_create", "iteration": 1, "pair": [0, 3], "parent": 6, '
                         '"new_node": 9}\n{"op": "node_delete", "node": 9, "parent": 6}',
                         TaxonomyError, "children", id="delete-created-parent"),
            pytest.param('{"op": "collapse", "node": 8, "child": 7, "parent": 0}',
                         RewireError, "node 8 is under 6, not under 0", id="collapse-cycle"),
            pytest.param('{"op": "collapse", "node": 7, "child": 6, "parent": 8}',
                         RewireError, "node 7 is under 6, not under 8", id="collapse-root"),
            pytest.param('{"op": "collapse", "node": 7, "child": 0, "parent": 6}',
                         RewireError, "node 7 does not have 0 as its only child",
                         id="collapse-not-only-child"),
            pytest.param('{"op": "pc_rewire", "iteration": 1, "pair": [0, 3], "leaf": 7, '
                         '"old_parent": 6, "new_parent": 0}', RewireError, "not a leaf",
                         id="move-cycle"),
            pytest.param('{"op": "pc_rewire", "iteration": 1, "pair": [0, 3], "leaf": 0, '
                         '"old_parent": 7, "new_parent": 0}', RewireError,
                         "cannot receive children", id="move-self"),
            # Logs whose recorded nodes are not what the tree gives, or that
            # delete a class.
            pytest.param('{"op": "pc_rewire", "iteration": 1, "pair": [0, 3], "leaf": 0, '
                         '"old_parent": 8, "new_parent": 8}', RewireError,
                         "node 0 is under 7, not under 8", id="move-wrong-old-parent"),
            pytest.param('{"op": "node_create", "iteration": 1, "pair": [0, 3], "parent": 7, '
                         '"new_node": 9}', RewireError, "ancestor of 0 and 3 is 6, not 7",
                         id="create-not-at-lca"),
            pytest.param("\n".join(
                '{"op": "pc_rewire", "iteration": 1, "pair": [%d, 3], "leaf": %d, '
                '"old_parent": 7, "new_parent": 8}' % (leaf, leaf) for leaf in (0, 1, 2)
            ) + '\n{"op": "node_delete", "node": 7, "parent": 8}', RewireError,
                         "node 7 is under 6, not under 8", id="delete-wrong-parent"),
            pytest.param('{"op": "node_delete", "node": 0, "parent": 7}', RewireError,
                         "node 0 is a class leaf of the input tree", id="delete-class-leaf"),
        ],
    )
    def test_bad_op_raises(self, letter_tree, jsonl, error, fragment):
        log = RewireLog.from_jsonl(jsonl + "\n")
        with pytest.raises(error, match=fragment):
            replay_log(letter_tree, log)
        assert letter_tree == parse_taxonomy(LETTER_EDGES)


def test_sweep_and_collapse_match_round_by_round_reference():
    """One-pass sweep and collapse against the round-by-round loops."""
    rng = np.random.default_rng(7)
    for _ in range(250):
        tax = random_taxonomy(rng, int(rng.integers(1, 40)))
        leaves = sorted(tax.leaves)
        keep = [leaf for leaf in leaves if rng.random() < 0.6]

        out, ops = delete_sweep(tax, keep)
        ref, ref_ops = round_by_round_delete_sweep(tax, keep)
        assert out == ref and [astuple(op) for op in ops] == ref_ops

        out, ops = collapse_chains(tax)
        ref, ref_ops = round_by_round_collapse(tax)
        assert out == ref and [astuple(op) for op in ops] == ref_ops
        assert replay_log(tax, RewireLog(list(ops))) == out


def test_random_inputs_keep_invariants():
    rng = np.random.default_rng(123)
    for _ in range(30):
        tax = random_taxonomy(rng, int(rng.integers(3, 25)))
        pairs = random_pair_set(rng, tax, max_pairs=12)
        out, log = rewire_hierarchy(tax, pairs)
        assert out.leaves == tax.leaves
        # no structural leaf that is not a class survives the sweep
        assert all(leaf in tax.leaves for leaf in out.leaves)
        for node in out.nodes:
            if node != out.root and out.is_leaf(node):
                assert node in tax.leaves
        assert replay_log(tax, log) == out
