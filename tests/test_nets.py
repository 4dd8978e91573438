"""Net structure, validation, reachability, and completions."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wfnet import (
    FreshIds,
    Net,
    ancestors,
    descendants,
    fresh_name,
    is_acyclic,
    place_completion,
    reachable,
    require_wf,
    transition_completion,
    validate,
)
from wfnet.nets import InvalidNetError, descendants_closure


def chain(n: int = 3) -> Net:
    """p0 -> t0 -> p1 -> t1 -> ... -> pn, a place-interface pipeline."""
    places = [f"p{i}" for i in range(n + 1)]
    transitions = [f"t{i}" for i in range(n)]
    arcs = []
    for i in range(n):
        arcs.append((f"p{i}", f"t{i}"))
        arcs.append((f"t{i}", f"p{i + 1}"))
    return Net.of(
        places=places, transitions=transitions, arcs=arcs,
        inputs=[places[0]], outputs=[places[-1]],
    )


class TestStructure:
    def test_nodes_and_membership(self, pand):
        assert len(pand) == 11
        assert "p1" in pand and "t3" in pand and "zz" not in pand
        assert pand.nodes == pand.places | pand.transitions

    def test_is_place(self, pand):
        assert pand.is_place("p4")
        assert not pand.is_place("t2")
        with pytest.raises(KeyError):
            pand.is_place("nope")

    def test_preset_postset(self, pand, por11):
        assert pand.preset("t3") == {"p4", "p5"}
        assert pand.postset("t2") == {"p5", "p8"}
        assert por11.postset("p4") == {"t4", "t5"}
        assert pand.preset("p1") == frozenset()

    def test_preset_unknown_node(self, pand):
        with pytest.raises(KeyError):
            pand.preset("ghost")

    def test_preset_postset_of_a_dangling_arc_end(self):
        net = Net.of(places=["p"], transitions=["t"], arcs=[("p", "t"), ("t", "q")])
        assert net.preset("q") == {"t"}
        assert net.postset("q") == frozenset()
        assert net.preset("p") == frozenset() and net.postset("p") == {"t"}
        for accessor in (net.preset, net.postset):
            with pytest.raises(KeyError) as excinfo:
                accessor("ghost")
            assert excinfo.value.args == ("ghost",)

    def test_equality_ignores_name(self, pand):
        renamed = pand.replace(name="other")
        assert renamed == pand
        assert renamed.name == "other"

    def test_io_type(self, pand, tor):
        assert pand.io_type == "place"
        assert tor.io_type == "transition"

    def test_io_type_mixed_raises(self):
        net = Net.of(
            places=["p"], transitions=["t"], arcs=[("p", "t")],
            inputs=["p"], outputs=["t"],
        )
        with pytest.raises(ValueError):
            net.io_type


class TestValidate:
    def test_fixtures_are_valid(self, all_fixture_nets):
        for stem, net in all_fixture_nets.items():
            report = validate(net)
            assert report.ok, f"{stem}: {report.lines()}"

    def test_valid_report_first_line(self, pand, tor):
        assert validate(pand).lines()[0] == "valid workflow net (place interface)"
        assert validate(tor).lines()[0] == "valid workflow net (transition interface)"

    def test_bad_id(self):
        net = Net.of(places=["ok", "not ok"], transitions=[], arcs=[],
                     inputs=["ok"], outputs=["ok"])
        report = validate(net)
        assert not report.ok
        assert report.bad_ids == ("not ok",)
        assert "invalid node ids: 'not ok'" in report.lines()

    def test_dangling_arc(self):
        net = Net.of(places=["p"], transitions=["t"],
                     arcs=[("p", "t"), ("t", "q")], inputs=["p"], outputs=["p"])
        report = validate(net)
        assert not report.ok
        assert ("t", "q") in report.dangling_arcs
        assert "arcs with unknown endpoints: t->q" in report.lines()

    def test_nonbipartite_arc(self):
        net = Net.of(places=["p1", "p2"], transitions=[], arcs=[("p1", "p2")],
                     inputs=["p1"], outputs=["p2"])
        report = validate(net)
        assert not report.ok
        assert report.nonbipartite_arcs == (("p1", "p2"),)

    def test_unknown_interface(self):
        net = Net.of(places=["p"], transitions=[], arcs=[],
                     inputs=["p", "q"], outputs=["p"])
        report = validate(net)
        assert not report.ok
        assert report.unknown_interface == ("q",)
        assert "interface nodes not in net: q" in report.lines()

    def test_empty_interface(self):
        net = Net.of(places=["p"], transitions=[], arcs=[], inputs=[], outputs=["p"])
        assert not validate(net).ok

    def test_mixed_interface(self):
        net = Net.of(places=["p", "q"], transitions=["t"],
                     arcs=[("p", "t"), ("t", "q")], inputs=["p"], outputs=["t", "q"])
        report = validate(net)
        assert not report.ok
        assert report.mixed_interface

    def test_unreachable_and_dead_end(self):
        net = Net.of(
            places=["p1", "p2", "orphan"], transitions=["t1"],
            arcs=[("p1", "t1"), ("t1", "p2")], inputs=["p1"], outputs=["p2"],
        )
        report = validate(net)
        assert not report.ok
        assert "orphan" in report.unreachable_nodes
        assert "orphan" in report.dead_end_nodes

    def test_duplicate_arcs_warn_only(self, pand):
        report = validate(pand, duplicate_arcs=[("p1", "t1")])
        assert report.ok
        assert any("duplicate" in line for line in report.lines())

    def test_require_wf(self, pand):
        assert require_wf(pand) == "place"
        bad = Net.of(places=["p"], transitions=[], arcs=[], inputs=[], outputs=[])
        with pytest.raises(InvalidNetError):
            require_wf(bad)

    def test_node_clash(self):
        net = Net(
            places=frozenset({"x"}), transitions=frozenset({"x"}),
            arcs=frozenset(), inputs=frozenset({"x"}), outputs=frozenset({"x"}),
        )
        report = validate(net)
        assert not report.ok
        assert report.node_clashes == ("x",)
        assert "both place and transition: x" in report.lines()


class TestReachability:
    def test_single_node_reaches_itself(self):
        net = Net.of(places=["p"], transitions=[], arcs=[], inputs=["p"], outputs=["p"])
        assert reachable(net, "p", "p")

    def test_forward_only(self, pand):
        assert reachable(net=pand, origin="p1", target="p6")
        assert not reachable(net=pand, origin="p6", target="p1")
        assert reachable(net=pand, origin="t2", target="p8")

    def test_descendants_ancestors(self, pand):
        assert descendants(pand, "t3") == {"t3", "p6", "p7"}
        assert ancestors(pand, "p4") == {"p4", "t1", "p1"}

    def test_acyclicity(self, pand, por11, tor):
        assert is_acyclic(pand)
        assert not is_acyclic(por11)
        assert not is_acyclic(tor)

    def test_closure_matches_per_node_search(self, all_fixture_nets):
        # Oracle: the batch closure must agree with one BFS per node.
        for net in all_fixture_nets.values():
            closure = descendants_closure(net)
            for n in net.nodes:
                assert closure[n] == descendants(net, n)


class TestCompletions:
    def test_place_completion_size(self, tand11):
        completed = place_completion(tand11)
        assert len(completed.places) == 7
        assert len(completed.transitions) == 4
        assert completed.inputs == {"p_i"}
        assert completed.outputs == {"p_o"}

    def test_place_completion_arcs(self, tand_wide):
        completed = place_completion(tand_wide)
        assert len(completed.places) == 8
        assert len(completed.transitions) == 6
        assert completed.postset("p_i") == {"t1", "t2"}
        assert completed.preset("p_o") == {"t5", "t6"}
        assert validate(completed).ok
        assert completed.io_type == "place"

    def test_transition_completion(self, pand):
        completed = transition_completion(pand)
        assert completed.inputs == {"t_i"}
        assert completed.outputs == {"t_o"}
        assert completed.postset("t_i") == {"p1", "p2", "p3"}
        assert completed.preset("t_o") == {"p6", "p7", "p8"}
        assert validate(completed).ok
        assert completed.io_type == "transition"

    def test_wrong_interface_type(self, pand, tor):
        with pytest.raises(ValueError):
            place_completion(pand)
        with pytest.raises(ValueError):
            transition_completion(tor)

    def test_fresh_id_collision_avoided(self):
        net = Net.of(
            places=["p_i"], transitions=["t1", "t2"],
            arcs=[("t1", "p_i"), ("p_i", "t2")], inputs=["t1"], outputs=["t2"],
        )
        completed = place_completion(net)
        assert validate(completed).ok
        assert completed.inputs != {"p_i"}


class TestFreshNames:
    def test_fresh_name(self):
        assert fresh_name("n", []) == "n"
        assert fresh_name("n", ["n"]) == "n_2"
        assert fresh_name("n", ["n", "n_2"]) == "n_3"

    def test_fresh_ids_skip_taken(self):
        ids = FreshIds(["ctr_0", "ctr_2"])
        assert ids.take() == "ctr_1"
        assert ids.take() == "ctr_3"
        ids.reserve(["ctr_4"])
        assert ids.take() == "ctr_5"


@st.composite
def small_nets(draw: st.DrawFn) -> Net:
    """Arbitrary (not necessarily valid) small bipartite structures."""
    n_places = draw(st.integers(0, 4))
    n_trans = draw(st.integers(0, 4))
    places = [f"p{i}" for i in range(n_places)]
    transitions = [f"t{i}" for i in range(n_trans)]
    arcs = []
    if places and transitions:
        pairs = [(p, t) for p in places for t in transitions]
        arcs += draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
        back = [(t, p) for p in places for t in transitions]
        arcs += draw(st.lists(st.sampled_from(back), max_size=8, unique=True))
    nodes = places + transitions
    inputs = draw(st.lists(st.sampled_from(nodes), max_size=2, unique=True)) if nodes else []
    outputs = draw(st.lists(st.sampled_from(nodes), max_size=2, unique=True)) if nodes else []
    return Net.of(places=places, transitions=transitions, arcs=arcs,
                  inputs=inputs, outputs=outputs)


class TestProperties:
    @given(small_nets())
    def test_validate_is_total(self, net):
        report = validate(net)
        assert isinstance(report.ok, bool)
        assert isinstance(report.lines(), list)

    @given(small_nets())
    def test_reachability_is_reflexive(self, net):
        for n in net.nodes:
            assert reachable(net, n, n)

    @given(small_nets())
    def test_closure_agrees_with_search(self, net):
        closure = descendants_closure(net)
        for n in net.nodes:
            assert closure[n] == descendants(net, n)
