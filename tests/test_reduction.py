"""Growing, finding, and contracting subnets until normal form."""

from __future__ import annotations

import copy
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NETS, load_fixture
from helpers import (
    chains,
    deep_tree,
    fan,
    layered_dag,
    perturb,
    random_wf_nets,
    reference_grow,
    reference_lemma,
    reference_nearby,
    reference_twins,
    state_machine,
)
from wfnet import reduction
from wfnet.nets import InvalidNetError, is_acyclic
from wfnet import (
    GenerationRecipe,
    Internal,
    Leaf,
    Net,
    classify,
    contract,
    descendants,
    expand,
    find_contractible,
    generate_andor_net,
    is_andor,
    is_well_nested,
    isomorphic,
    node_order,
    reduce_net,
    serialize_forest,
    serialize_net,
    subnet_view,
    validate,
)


def chain_host() -> Net:
    """pi -> t0 -> p1 -> t1 -> ... -> p5 -> t5 -> po."""
    places = ["pi"] + [f"p{i}" for i in range(1, 6)] + ["po"]
    transitions = [f"t{i}" for i in range(6)]
    hops = ["pi", "t0", "p1", "t1", "p2", "t2", "p3", "t3", "p4", "t4", "p5", "t5", "po"]
    arcs = list(zip(hops, hops[1:]))
    return Net.of(places=places, transitions=transitions, arcs=arcs,
                  inputs=["pi"], outputs=["po"])


class TestExpand:
    def test_selection_can_outgrow_its_ends(self, por11):
        # Under seed 2, por11's last contraction grows the transitions t5
        # and t4 into the whole net, whose view has place interface.
        befores = []
        reduce_net(por11, 2, observer=lambda before, *_: befores.append(before))
        net = befores[-1]
        selection = expand(net, "t5", "t4")
        assert selection == net.nodes
        view = subnet_view(net, selection)
        assert view.is_wf
        assert (view.net.io_type, view.net.inputs, view.net.outputs) == ("place", {"ctr_0"}, {"p4"})

    def test_grows_whole_pand(self, pand):
        grown = expand(pand, "p1", "p6")
        assert grown == pand.nodes
        assert classify(subnet_view(pand, grown).net).basic_classes == {"pAND"}

    def test_grows_whole_tand11(self, tand11):
        grown = expand(tand11, "t2", "t6")
        assert grown == tand11.nodes
        assert classify(subnet_view(tand11, grown).net).basic_classes == {"11tAND"}

    def test_absent_on_wide_tand(self, tand_wide):
        assert expand(tand_wide, "t1", "t6") is None

    def test_preconditions(self, pand):
        with pytest.raises(ValueError):
            expand(pand, "p1", "p1")
        with pytest.raises(ValueError):
            expand(pand, "p1", "t3")
        with pytest.raises(KeyError):
            expand(pand, "p1", "ghost")
        with pytest.raises(ValueError):
            expand(pand, "p6", "p1")

    @given(st.integers(0, 80))
    @settings(max_examples=40, deadline=None)
    def test_results_are_contractible(self, seed):
        # Whatever expand returns must be a well-nested basic-class subnet.
        net = generate_andor_net(
            GenerationRecipe(seed=seed, substitution_steps=4, max_basic_net_nodes=6)
        ).net
        order = node_order(net)
        pairs = [
            (a, b)
            for a in order
            for b in order
            if a != b and net.is_place(a) == net.is_place(b)
        ][:40]
        for a, b in pairs:
            if b not in descendants(net, a):
                continue
            grown = expand(net, a, b)
            if grown is None:
                continue
            assert is_well_nested(net, grown)
            view = subnet_view(net, grown)
            assert view.is_wf
            assert classify(view.net).basic_classes


class TestFindContractible:
    def test_loop_first_in_por11(self, por11):
        selection, classes = find_contractible(por11)
        assert selection == {"p1", "t1"}
        assert classes == {"11pOR"}

    def test_parallel_pair_in_pand(self, pand):
        selection, classes = find_contractible(pand)
        assert selection == {"p2", "p3"}
        assert classes == {"pAND"}

    def test_none_on_single_node(self):
        one = Net.of(places=["p"], transitions=[], arcs=[], inputs=["p"], outputs=["p"])
        assert find_contractible(one) is None

    def test_none_on_normal_forms(self, tand_wide, por_wide):
        for net in (tand_wide, por_wide):
            normal = reduce_net(net).net
            assert find_contractible(normal) is None

    def test_order_must_list_every_node_once(self, pand):
        order = sorted(pand.nodes)
        for bad in (order[1:], order + order[:1], order[1:] + ["x"]):
            with pytest.raises(ValueError, match="every node of the net exactly once"):
                find_contractible(pand, bad)

    def test_respects_order(self, pand):
        # pand has two parallel pairs; the order decides which one is found.
        selection, _ = find_contractible(pand, sorted(pand.nodes))
        assert selection == {"p2", "p3"}
        reversed_hit, _ = find_contractible(pand, sorted(pand.nodes, reverse=True))
        assert reversed_hit == {"p6", "p7"}

    def test_loop_transition_interface_blocks(self):
        # A self-loop transition that carries interface membership must stay.
        net = Net.of(
            places=["p", "q"], transitions=["t", "u"],
            arcs=[("p", "t"), ("t", "p"), ("p", "u"), ("u", "q")],
            inputs=["p"], outputs=["q"],
        )
        hit = find_contractible(net)
        assert hit is not None and hit[0] == {"p", "t"}
        blocked = net.replace(inputs=frozenset({"p"}), outputs=frozenset({"q", "t"}))
        if validate(blocked).ok:
            found = find_contractible(blocked)
            assert found is None or "t" not in found[0]


class TestReduce:
    def test_nested_reduces_to_single_place(self, nested):
        result = reduce_net(nested)
        assert len(result.net) == 1
        survivor = next(iter(result.net.nodes))
        assert result.net.is_place(survivor)
        assert result.net.inputs == result.net.outputs == {survivor}
        assert len(result.forest) == 1
        assert result.forest[0].leaf_ids() == nested.nodes
        assert len(result.forest[0].leaf_ids()) == 24

    def test_pand_tree_has_eleven_leaves(self, pand):
        result = reduce_net(pand)
        assert len(result.net) == 1
        assert len(result.forest) == 1
        assert result.forest[0].leaf_ids() == pand.nodes

    def test_basic_fixtures_collapse(self, tand11, por11, tor):
        for net in (tand11, por11, tor):
            result = reduce_net(net)
            assert len(result.net) == 1

    def test_wide_fixtures_stall(self, tand_wide, por_wide):
        assert len(reduce_net(tand_wide).net) == 10
        assert len(reduce_net(por_wide).net) == 7

    def test_forest_covers_survivors(self, tand_wide):
        result = reduce_net(tand_wide)
        roots = {t.node if isinstance(t, Internal) else t.node for t in result.forest}
        assert roots == result.net.nodes
        leaves = frozenset().union(*(t.leaf_ids() for t in result.forest))
        assert leaves == tand_wide.nodes

    def test_deterministic_per_seed(self, nested):
        for seed in (None, 5):
            first = reduce_net(nested, seed=seed)
            second = reduce_net(nested, seed=seed)
            assert first.net == second.net
            assert first.forest == second.forest

    def test_seeds_agree_up_to_isomorphism(self, nested, tand_wide):
        for net in (nested, tand_wide):
            base = reduce_net(net).net
            for seed in (1, 2, 3, 4):
                assert isomorphic(base, reduce_net(net, seed=seed).net)

    def test_normal_form_is_fixed_point(self, tand_wide):
        normal = reduce_net(tand_wide).net
        again = reduce_net(normal)
        assert again.net == normal
        assert again.contractions == 0
        assert all(isinstance(t, Leaf) for t in again.forest)

    def test_observer_sees_the_whole_story(self, nested):
        log = []
        result = reduce_net(nested, observer=lambda *a: log.append(a))
        assert len(log) == result.contractions
        current = nested
        for before, selection, fresh, after in log:
            assert before == current
            assert is_well_nested(before, selection)
            assert contract(before, selection, fresh) == after
            assert validate(after).ok
            current = after
        assert current == result.net

    def test_tree_classes_match_views(self, nested):
        log = []
        result = reduce_net(nested, observer=lambda *a: log.append(a))
        by_fresh = {fresh: (before, sel) for before, sel, fresh, _ in log}

        def walk(tree):
            if isinstance(tree, Internal):
                before, sel = by_fresh[tree.node]
                view = subnet_view(before, sel)
                assert tree.classes == classify(view.net).basic_classes
                assert tree.classes
                for child in tree.children:
                    walk(child)

        for root in result.forest:
            walk(root)

    def test_children_sorted_by_first_leaf(self, nested):
        result = reduce_net(nested)

        def walk(tree):
            if isinstance(tree, Internal):
                firsts = [child.first_leaf for child in tree.children]
                assert firsts == sorted(firsts)
                for child in tree.children:
                    walk(child)

        walk(result.forest[0])

    def test_rejects_invalid_input(self):
        bad = Net.of(places=["p"], transitions=[], arcs=[], inputs=[], outputs=["p"])
        with pytest.raises(ValueError):
            reduce_net(bad)

    def test_validates_its_input(self):
        bad = Net.of(places=["p", "q"], inputs=["p"], outputs=["q"])
        with pytest.raises(InvalidNetError):
            reduce_net(bad)


class TestIsAndor:
    def test_fixture_verdicts(self, all_fixture_nets):
        expected = {
            "pand": True, "tand11": True, "por11": True, "tor": True,
            "tand_wide": False, "por_wide": False, "nested": True,
        }
        for stem, net in all_fixture_nets.items():
            assert is_andor(net) == expected[stem], stem

    @given(st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_generated_nets_always_collapse(self, seed):
        net = generate_andor_net(
            GenerationRecipe(seed=seed, substitution_steps=5, max_basic_net_nodes=7)
        ).net
        assert is_andor(net)


class TestOrderIndependence:
    """Contracting overlapping or disjoint regions in either order lands on
    the same net, node for node."""

    def test_disjoint_regions(self):
        net = Net.of(
            places=["pi", "a1", "a2", "po"], transitions=["ta", "tb", "tc"],
            arcs=[("pi", "ta"), ("pi", "tb"), ("ta", "a1"), ("ta", "a2"),
                  ("tb", "a1"), ("tb", "a2"), ("a1", "tc"), ("a2", "tc"), ("tc", "po")],
            inputs=["pi"], outputs=["po"],
        )
        s1, s2 = {"ta", "tb"}, {"a1", "a2"}
        one = contract(contract(net, s1, "n1"), s2, "n2")
        two = contract(contract(net, s2, "n2"), s1, "n1")
        assert one == two
        assert one.arcs == {("pi", "n1"), ("n1", "n2"), ("n2", "tc"), ("tc", "po")}

    def test_overlapping_regions(self):
        net = chain_host()
        s1 = {"p1", "t1", "p2", "t2", "p3"}
        s2 = {"t2", "p3", "t3", "p4", "t4"}
        one = contract(contract(net, s1, "n1"), s2 - s1, "n2")
        two = contract(contract(net, s2, "n2"), s1 - s2, "n1")
        assert one == two

    def test_overlap_absorbed_into_fresh_node(self):
        net = chain_host()
        s1 = {"p1", "t1", "p2", "t2", "p3"}
        s2 = {"p3", "t3", "p4", "t4", "p5"}
        one = contract(contract(net, s1, "n1"), (s2 - s1) | {"n1"}, "n3")
        two = contract(contract(net, s2, "n2"), (s1 - s2) | {"n2"}, "n3")
        assert one == two

    def test_nested_region_collapses_the_same(self):
        net = chain_host()
        s1 = {"p1", "t1", "p2", "t2", "p3"}
        s2 = {"t1", "p2", "t2"}
        direct = contract(net, s1, "n1")
        staged = contract(contract(net, s2, "n2"), {"p1", "n2", "p3"}, "n1")
        assert direct == staged


class TestDeepTrees:
    def test_walks_survive_5000_levels(self):
        # Each level adds one leaf beside the tree below it.
        tree = Leaf("n0")
        for level in range(1, 5000):
            tree = Internal(node=f"x{level}", classes=frozenset({"pAND"}),
                            children=(tree, Leaf(f"n{level}")))
        assert tree.first_leaf == "n0"
        assert tree.leaf_ids() == {f"n{i}" for i in range(5000)}
        assert tree.depth() == 5000

    def test_equality_and_hash_at_5000_levels(self):
        one, two = deep_tree(5000), deep_tree(5000)
        assert one is not two
        assert one == two
        assert hash(one) == hash(two)
        other = deep_tree(5000, bottom="m0")
        assert one != other
        assert other.first_leaf == "m0"

    def test_equality_on_shallow_trees(self):
        def tree(classes=("pAND",), leaves=("a", "b")):
            return Internal(node="x", classes=frozenset(classes), children=tuple(map(Leaf, leaves)))

        assert tree() == tree() and tree() is not tree()
        assert len({tree(), tree()}) == 1
        assert tree() != tree(classes=("tOR",))
        assert tree() != tree(leaves=("b", "a"))
        assert tree() != tree(leaves=("a",))
        assert Leaf("a") == Leaf("a") and Leaf("a") != Leaf("b")
        assert Leaf("a") != "a" and tree() != ("x",)

    def test_repr_pickle_and_copy_at_5000_levels(self):
        tree = deep_tree(5000)
        text = repr(tree)
        assert text.startswith("Internal(node='x4999', classes=frozenset({'pAND'}), children=(Internal(")
        assert "children=(Leaf(node='n0'), Leaf(node='n1'))), Leaf(node='n2')))" in text
        assert text.endswith("Leaf(node='n4998'))), Leaf(node='n4999')))")
        assert text.count("Internal(") == 4999
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree

    def test_repr_text_of_shallow_trees(self):
        tree = Internal(node="a", classes=frozenset({"pAND"}), children=(Leaf("p"), Leaf("q")))
        assert repr(tree) == (
            "Internal(node='a', classes=frozenset({'pAND'}), children=(Leaf(node='p'), Leaf(node='q')))"
        )
        lone = Internal(node="a", classes=frozenset(), children=(Leaf("p"),))
        assert repr(lone) == "Internal(node='a', classes=frozenset(), children=(Leaf(node='p'),))"
        assert repr(Leaf("p")) == "Leaf(node='p')"
        assert eval(repr(deep_tree(50)), {"Internal": Internal, "Leaf": Leaf}) == deep_tree(50)
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert pickle.loads(pickle.dumps(Leaf("p"))) == Leaf("p")


PRESET_TWIN_LOOP = Net.of(
    places=["i", "x", "f", "o", "y", "z"],
    transitions=["s", "a", "b", "b2", "c", "d", "e"],
    arcs=[
        ("i", "s"), ("s", "x"), ("x", "a"), ("a", "f"), ("a", "o"), ("f", "b"), ("f", "b2"), ("b", "y"),
        ("b2", "y"), ("b2", "z"), ("o", "c"), ("c", "y"), ("y", "d"), ("d", "x"), ("y", "e"), ("e", "z"),
    ],
    inputs=["i"],
    outputs=["z"],
)


def _rank(net: Net, seed: int | None = None) -> dict[str, int]:
    return {n: k for k, n in enumerate(node_order(net, seed))}


def _intermediate_nets(net: Net, seed: int | None) -> list[Net]:
    """`net` and every net its reduction passes through."""
    nets = [net]
    reduce_net(net, seed, observer=lambda before, selection, fresh, after: nets.append(after))
    return nets


class TestNearby:
    """The worklist's candidates against `helpers.reference_nearby`.

    On an acyclic net `_nearby` is checked both as told and not told that
    the net is acyclic.
    """

    @staticmethod
    def assert_matches_reference(net: Net, rank: dict[str, int]) -> None:
        acyclic = is_acyclic(net)
        for focus in sorted(net.nodes):
            expected = reference_nearby(net, focus, rank)
            assert list(reduction._nearby(net, focus, rank)) == expected, focus
            if acyclic:
                assert list(reduction._nearby(net, focus, rank, True)) == expected, focus

    @pytest.mark.parametrize("stem", sorted(NETS))
    @pytest.mark.parametrize("seed", [None, 1])
    def test_every_focus_of_every_fixture_step(self, stem, seed):
        for net in _intermediate_nets(load_fixture(stem), seed):
            self.assert_matches_reference(net, _rank(net, seed))

    @pytest.mark.parametrize("recipe_seed, edit_seed", [(4, 1), (9, 2)])
    def test_every_focus_of_every_edited_member_step(self, recipe_seed, edit_seed):
        member = generate_andor_net(GenerationRecipe(seed=recipe_seed, substitution_steps=40)).net
        edited = perturb(member, edit_seed)
        assert edited is not None
        nets = _intermediate_nets(edited, edit_seed)
        assert len(nets[-1]) > 1
        for net in nets:
            self.assert_matches_reference(net, _rank(net, edit_seed))

    @pytest.mark.parametrize("recipe_seed, steps, edit_seed", [(64, 15, 3), (144, 20, 1), (162, 10, 2)])
    def test_every_focus_of_every_acyclic_edited_member_step(self, recipe_seed, steps, edit_seed):
        member = generate_andor_net(GenerationRecipe(seed=recipe_seed, substitution_steps=steps)).net
        edited = perturb(member, edit_seed)
        assert edited is not None and is_acyclic(edited)
        for net in _intermediate_nets(edited, edit_seed):
            self.assert_matches_reference(net, _rank(net, edit_seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_every_focus_of_every_layered_dag_step(self, seed):
        for net in _intermediate_nets(layered_dag(seed, layers=21), seed):
            self.assert_matches_reference(net, _rank(net, seed))

    def test_twins_are_the_reachable_twins(self):
        """Where (a) admits nothing, the lemma's candidates are `_twins` that focus reaches."""
        nets = [step for stem in sorted(NETS) for step in _intermediate_nets(load_fixture(stem), None)]
        nets += random_wf_nets(40, 1) + [layered_dag(0, layers=21), PRESET_TWIN_LOOP]
        checked = 0
        for net in nets:
            for focus in sorted(net.nodes):
                side = reduction._focus_side(net, focus)
                reached = descendants(net, focus)
                for acyclic in {False, is_acyclic(net)}:
                    twins = reduction._twins(net, side, focus, acyclic)
                    assert twins & reached == reference_twins(net, focus), (focus, acyclic)
                    checked += bool(twins)
        assert checked > 100

    def test_the_reducer_streams_a_reachable_preset_twin_of_a_cyclic_net(self, monkeypatch):
        # In PRESET_TWIN_LOOP, f and o share the preset {a}, and f reaches o
        # through the cycle x -> a -> f -> b -> y -> d -> x.  f has two
        # successors, b2 of which is not one-in, one-out, so (a) admits
        # nothing at f, and o, its preset twin, is its one candidate: the
        # acyclic shortcut, which drops preset twins, must not apply here.
        nearby = reduction._nearby
        streams = {}

        def checked(net, focus, rank, acyclic=False):
            got = list(nearby(net, focus, rank, acyclic))
            assert got == reference_nearby(net, focus, rank), focus
            streams.setdefault(focus, got)
            yield from got

        monkeypatch.setattr(reduction, "_nearby", checked)
        reduce_net(PRESET_TWIN_LOOP)
        assert streams["f"] == ["o"]

    def test_wide_fan_reaches_past_its_spokes(self):
        net = fan(500)
        assert list(reduction._nearby(net, "p", _rank(net))) == ["q", "o"]

    def test_walk_stops_at_the_first_candidate_taken(self, monkeypatch):
        size = 50
        net = Net.of(
            places=[f"p{k}" for k in range(size)],
            transitions=[f"t{k}" for k in range(size - 1)],
            arcs=[arc for k in range(size - 1) for arc in ((f"p{k}", f"t{k}"), (f"t{k}", f"p{k + 1}"))],
            inputs=["p0"],
            outputs=[f"p{size - 1}"],
        )
        allows = reduction._lemma_allows
        calls = []

        def counted(net, side, o):
            calls.append(o)
            return allows(net, side, o)

        monkeypatch.setattr(reduction, "_lemma_allows", counted)
        assert next(reduction._nearby(net, "p0", _rank(net))) == "p1"
        assert calls == ["p1"]


class TestLemmaAllows:
    """`_lemma_allows` on every reachable same-type pair, beyond `_CANDIDATE_CAP`.

    It must agree with `helpers.reference_lemma`, admit only pairs whose
    `_ends` keys meet (the first lemma, which the scan's index applies), and
    admit every pair that `_grow` contracts at cap None, `_GROW_CAP` or 4.
    """

    @staticmethod
    def assert_refines_ends_and_admits_every_grow(net: Net) -> None:
        # A selection never outgrows the net, so on a net no larger than
        # `_GROW_CAP` that cap walks exactly as cap None.
        caps = (None, 4) if len(net) <= reduction._GROW_CAP else (None, reduction._GROW_CAP, 4)
        for focus in sorted(net.nodes):
            side = reduction._focus_side(net, focus)
            mine = reduction._ends(net, focus, net.postset(focus))
            for o in sorted(descendants(net, focus) - {focus}):
                if net.is_place(o) == net.is_place(focus):
                    allowed = reduction._lemma_allows(net, side, o)
                    assert allowed == reference_lemma(net, focus, o), (focus, o)
                    if allowed:
                        assert mine & reduction._ends(net, o, net.preset(o)), (focus, o)
                    else:
                        for cap in caps:
                            assert reduction._grow(net, focus, o, cap) is None, (focus, o, cap)

    @pytest.mark.parametrize("stem", sorted(NETS))
    @pytest.mark.parametrize("seed", [None, 1])
    def test_every_pair_of_every_fixture_step(self, stem, seed):
        for net in _intermediate_nets(load_fixture(stem), seed):
            self.assert_refines_ends_and_admits_every_grow(net)

    @pytest.mark.parametrize("recipe_seed, edit_seed", [(4, 1), (9, 2)])
    def test_every_pair_of_every_edited_member_step(self, recipe_seed, edit_seed):
        member = generate_andor_net(GenerationRecipe(seed=recipe_seed, substitution_steps=40)).net
        edited = perturb(member, edit_seed)
        assert edited is not None
        for net in _intermediate_nets(edited, edit_seed):
            self.assert_refines_ends_and_admits_every_grow(net)

    def test_every_pair_of_every_state_machine_step(self):
        for net in _intermediate_nets(state_machine(20, 1), None):
            self.assert_refines_ends_and_admits_every_grow(net)

    def test_every_pair_of_every_random_net_step(self):
        # Pairs with equal postsets (presets) but different output (input)
        # membership, which the fixtures and edited members lack: without
        # these nets, dropping either membership test goes unnoticed.
        for net in random_wf_nets(40, 1):
            for step in _intermediate_nets(net, None):
                self.assert_refines_ends_and_admits_every_grow(step)


class TestGrowOrder:
    """`_grow` takes pending nodes from a heap; `helpers.reference_grow` with `min(pending)`."""

    @staticmethod
    def assert_same_grows(net: Net) -> None:
        for i in sorted(net.nodes):
            for o in sorted(descendants(net, i) - {i}):
                if net.is_place(o) == net.is_place(i):
                    for cap in (reduction._GROW_CAP, None):
                        assert reduction._grow(net, i, o, cap) == reference_grow(net, i, o, cap), (i, o, cap)

    @pytest.mark.parametrize("stem", sorted(NETS))
    @pytest.mark.parametrize("seed", [None, 1])
    def test_every_pair_of_every_fixture_step(self, stem, seed):
        for net in _intermediate_nets(load_fixture(stem), seed):
            self.assert_same_grows(net)

    def test_every_pair_of_a_state_machine(self):
        self.assert_same_grows(state_machine(20, 1))

    def test_every_pair_of_an_edited_member(self):
        member = generate_andor_net(GenerationRecipe(seed=4, substitution_steps=40)).net
        edited = perturb(member, 1)
        assert edited is not None
        self.assert_same_grows(edited)


class TestWorklistCaps:
    def test_grow_cap_decides_the_fan_reduction(self, monkeypatch):
        assert reduce_net(fan(500)).contractions == 253
        monkeypatch.setattr(reduction, "_GROW_CAP", 10**9)
        assert reduce_net(fan(500)).contractions == 3


# SHA-256 of serialize_forest + serialize_net of reduce_net (seed None).
ADVERSARIAL_DIGESTS = {
    "fan_100": "591b13fc6dc059f38ac219f7df2f71c5db69171c8b73200cf2ccf768bb6ffc03",
    "fan_500": "a929efa6f64750f82a8fae1f966d30ff71b48632a0cbf3ef96bdb67dc7e52b3d",
    "chains_300_side_exit": "c21a8548030b7cfc81825cd2818e30eab6bdd74349e1074ad9daa264f1b0de4d",
    "chains_300_second_exit": "b6cedb530f69e2784b0fceeb88a630169a4595bee1f98c7ee9ab28c314730e8d",
    "chains_300_cross_arcs": "1f4eeeb227e2db0f0a540165a6ea2a73eb5f5e31f6afc7a608c26497733c6d52",
}


def _adversarial(name: str) -> Net:
    kind, width, *variant = name.split("_", 2)
    return fan(int(width)) if kind == "fan" else chains(int(width), *variant)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_DIGESTS))
def test_adversarial_reductions_are_pinned(name):
    result = reduce_net(_adversarial(name))
    text = serialize_forest(result.forest) + serialize_net(result.net)
    assert hashlib.sha256(text.encode()).hexdigest() == ADVERSARIAL_DIGESTS[name]
