"""Subnet views, well-nestedness, contraction, and the quotient check."""

from __future__ import annotations

import random

import pytest

from conftest import NETS, load_fixture
from helpers import reference_path_quotient
from wfnet import (
    GenerationRecipe,
    Net,
    contract,
    generate_andor_net,
    is_well_nested,
    path_quotient_check,
    reduce_net,
    subnet_view,
    substitute,
    validate,
)
from wfnet.nets import InvalidNetError, _Graph, _adjacency, descendants_closure
from wfnet.subnets import _is_path_quotient


class TestSubnetView:
    def test_parallel_pair(self, pand):
        view = subnet_view(pand, {"p2", "p3"})
        assert view.net.inputs == {"p2", "p3"}
        assert view.net.outputs == {"p2", "p3"}
        assert view.net.arcs == frozenset()
        assert view.is_wf
        assert view.net.io_type == "place"

    def test_inner_loop_of_nested(self, nested):
        view = subnet_view(nested, {"p7", "p8", "t8", "t9", "p9", "p10", "t10"})
        assert view.net.inputs == {"p7", "p8"}
        assert view.net.outputs == {"p9", "p10"}
        assert view.is_wf

    def test_mixed_boundary_is_not_wf(self, pand):
        view = subnet_view(pand, {"p1", "t1"})
        assert view.net.inputs == {"p1"}
        assert view.net.outputs == {"t1"}
        assert not view.is_wf

    def test_view_restricts_arcs(self, pand):
        view = subnet_view(pand, {"p4", "p5", "t3"})
        assert view.net.arcs == {("p4", "t3"), ("p5", "t3")}
        assert view.net.outputs == {"t3"}

    def test_whole_net_view(self, pand):
        view = subnet_view(pand, pand.nodes)
        assert view.net == pand.replace(name=None)

    def test_empty_selection(self, pand):
        with pytest.raises(ValueError):
            subnet_view(pand, set())

    def test_foreign_member(self, pand):
        with pytest.raises(KeyError):
            subnet_view(pand, {"p1", "zz"})

    def test_trivial_flag(self, pand):
        assert subnet_view(pand, {"p1"}).trivial
        assert not subnet_view(pand, {"p2", "p3"}).trivial

    @pytest.mark.parametrize("selection", [{"p2", "p3"}, {"p4", "p5", "t3"}, {"p1", "t1"}])
    def test_view_of_a_working_graph_is_frozen(self, pand, selection):
        view = subnet_view(_Graph(pand), selection)
        assert view.net == subnet_view(pand, selection).net
        for part in (view.net.places, view.net.transitions, view.net.arcs, view.net.inputs, view.net.outputs):
            assert type(part) is frozenset
        hash(view.net)


class TestWellNested:
    def test_parallel_pair_nests_but_mixed_pair_does_not(self, pand):
        assert is_well_nested(pand, {"p2", "p3"})
        assert not is_well_nested(pand, {"p1", "p2"})

    def test_singletons_always_nest(self, pand):
        for node in pand.nodes:
            assert is_well_nested(pand, {node})

    def test_interface_membership_matters(self):
        # q1 and q2 have equal wiring but only q1 is an output.
        net = Net.of(
            places=["p", "q1", "q2", "r"], transitions=["t", "u"],
            arcs=[("p", "t"), ("t", "q1"), ("t", "q2"), ("q2", "u"), ("q1", "u"), ("u", "r")],
            inputs=["p"], outputs=["q1", "r"],
        )
        assert validate(net).ok
        assert not is_well_nested(net, {"q1", "q2"})

    def test_loop_in_nested(self, nested):
        assert is_well_nested(nested, {"p7", "p8", "t8", "t9", "p9", "p10", "t10"})


class TestContract:
    def test_parallel_places(self, pand):
        result = contract(pand, {"p2", "p3"}, "n")
        assert "n" in result.places
        assert result.preset("t2") == {"n"}
        assert result.inputs == {"p1", "n"}
        assert result.outputs == pand.outputs
        assert len(result) == 10
        assert validate(result).ok

    def test_self_loop(self, por11):
        result = contract(por11, {"p1", "t1"}, "n")
        assert "n" in result.places
        assert ("n", "n") not in result.arcs
        assert result.postset("n") == {"t2", "t3"}
        assert result.preset("n") == {"t4"}
        assert result.inputs == {"n"}
        assert validate(result).ok

    def test_total_contraction(self, tor):
        result = contract(tor, tor.nodes, "n")
        assert result.nodes == {"n"}
        assert result.inputs == result.outputs == {"n"}
        assert result.arcs == frozenset()
        assert validate(result).ok

    def test_id_collision(self, pand):
        with pytest.raises(ValueError):
            contract(pand, {"p2", "p3"}, "t1")

    def test_non_wf_view_rejected(self, pand):
        with pytest.raises((ValueError, InvalidNetError)):
            contract(pand, {"p1", "t1"}, "n")

    def test_contract_inverts_substitution(self):
        host = Net.of(
            places=["p", "q"], transitions=["t"], arcs=[("p", "t"), ("t", "q")],
            inputs=["p"], outputs=["q"],
        )
        inner = Net.of(
            places=["r1", "r2"], transitions=[], arcs=[],
            inputs=["r1", "r2"], outputs=["r1", "r2"],
        )
        grown = substitute(host, "p", inner)
        shrunk = contract(grown, {"r1", "r2"}, "p")
        assert shrunk == host

    def test_contract_keeps_interface_when_disjoint(self, nested):
        result = contract(nested, {"p7", "p8", "t8", "t9", "p9", "p10", "t10"}, "n")
        assert result.inputs == nested.inputs
        assert result.outputs == nested.outputs
        assert result.preset("n") == {"t6", "t7"}
        assert result.postset("n") == {"t11"}
        assert validate(result).ok


class TestPathQuotient:
    def test_passes_on_real_contractions(self, pand, por11, nested):
        for net, selection in [
            (pand, {"p2", "p3"}),
            (por11, {"p1", "t1"}),
            (nested, {"p7", "p8", "t8", "t9", "p9", "p10", "t10"}),
        ]:
            after = contract(net, selection, "fresh")
            assert path_quotient_check(net, after, frozenset(selection), "fresh")

    def test_rejects_connectivity_forgery(self):
        # Two disjoint pipelines; gluing their middles invents a path
        # from a1 to b2 that the original never had.
        before = Net.of(
            places=["a1", "a2", "b1", "b2"], transitions=["ta", "tb"],
            arcs=[("a1", "ta"), ("ta", "a2"), ("b1", "tb"), ("tb", "b2")],
            inputs=["a1", "b1"], outputs=["a2", "b2"],
        )
        forged = Net.of(
            places=["a1", "n", "b2"], transitions=["ta", "tb"],
            arcs=[("a1", "ta"), ("ta", "n"), ("n", "tb"), ("tb", "b2")],
            inputs=["a1", "n"], outputs=["n", "b2"],
        )
        assert not path_quotient_check(before, forged, frozenset({"a2", "b1"}), "n")

    @pytest.mark.parametrize("order_seed", [None, 1])
    @pytest.mark.parametrize("seed", [4, 9])
    def test_agrees_with_pairwise_reference(self, seed, order_seed):
        # Every contraction's real `after`, one with an arc removed and one
        # with a type-correct arc added, against the pairwise loops.
        rng = random.Random(seed)
        verdicts = []

        def check(before, selection, fresh, after):
            closure_before = descendants_closure(before)
            assert path_quotient_check(before, after, selection, fresh)
            forged = [after]
            if after.arcs:
                forged.append(after.replace(arcs=after.arcs - {rng.choice(sorted(after.arcs))}))
            tail = rng.choice(sorted(after.nodes))
            other_type = after.transitions if after.is_place(tail) else after.places
            heads = sorted(other_type - after.postset(tail))
            if heads:
                forged.append(after.replace(arcs=after.arcs | {(tail, rng.choice(heads))}))
            for candidate in forged:
                closure_after = descendants_closure(candidate)
                verdict = _is_path_quotient(closure_before, closure_after, selection, fresh)
                assert verdict == reference_path_quotient(closure_before, closure_after, selection, fresh)
                verdicts.append(verdict)

        net = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=40)).net
        reduce_net(net, seed=order_seed, observer=check)
        assert True in verdicts and False in verdicts

    def test_rejects_mismatched_node_sets(self, nested):
        selection = frozenset({"p7", "p8", "t8", "t9", "p9", "p10", "t10"})
        after = contract(nested, selection, "n")
        closure_before = descendants_closure(nested)
        extra = after.replace(places=after.places | {"extra"})
        source = min(after.inputs)
        missing = after.replace(
            places=after.places - {source},
            arcs=frozenset(arc for arc in after.arcs if source not in arc),
        )
        for forged in (extra, missing):
            assert not _is_path_quotient(closure_before, descendants_closure(forged), selection, "n")
        assert not _is_path_quotient(closure_before, descendants_closure(after), selection, min(selection))
        assert not _is_path_quotient(closure_before, descendants_closure(after), selection | {"nowhere"}, "n")


def _adjacency_case(name: str) -> Net:
    if name in NETS:
        return load_fixture(name)
    seed = int(name.removeprefix("generated"))
    return generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=40)).net


class TestPatchedAdjacency:
    """`contract` patches the host's adjacency instead of deriving it from arcs."""

    @pytest.mark.parametrize("order_seed", [None, 1])
    @pytest.mark.parametrize("name", sorted(NETS) + ["generated4", "generated9"])
    def test_matches_adjacency_rebuilt_from_arcs(self, name, order_seed):
        contractions = []

        def check(before, selection, fresh, after):
            contractions.append(fresh)
            rebuilt = Net(
                places=after.places, transitions=after.transitions, arcs=after.arcs,
                inputs=after.inputs, outputs=after.outputs,
            )
            for n in rebuilt.nodes:
                assert after.preset(n) == rebuilt.preset(n), (fresh, n)
                assert after.postset(n) == rebuilt.postset(n), (fresh, n)
            assert not any(m in after for m in selection)
            assert not any(a in selection or b in selection for a, b in after.arcs)
            assert not any(
                selection & (after.preset(n) | after.postset(n)) for n in after.nodes
            )
            # Stale entries for removed members would not show through
            # preset/postset of the remaining nodes.
            assert (after._pred, after._succ) == (rebuilt._pred, rebuilt._succ)

        reduce_net(_adjacency_case(name), order_seed, observer=check)
        assert contractions


class TestViewMaps:
    """`subnet_view` restricts its host's maps; they equal the maps rebuilt from the view's arcs."""

    @pytest.mark.parametrize("order_seed", [None, 1])
    @pytest.mark.parametrize("name", sorted(NETS) + ["generated4"])
    def test_every_contracted_selection(self, name, order_seed):
        selections = []

        def check(before, selection, fresh, after):
            selections.append(selection)
            arcs = frozenset((a, b) for a, b in before.arcs if a in selection and b in selection)
            views = [subnet_view(before, selection).net, subnet_view(_Graph(before), selection).net]
            for view in views:
                assert view._pred == _adjacency(view.nodes, ((b, a) for a, b in view.arcs)), fresh
                assert view._succ == _adjacency(view.nodes, view.arcs), fresh
                plain = Net(
                    places=view.places, transitions=view.transitions, arcs=view.arcs,
                    inputs=view.inputs, outputs=view.outputs,
                )
                assert view.arcs == arcs
                assert view == plain
                assert hash(view) == hash(plain)
            assert views[0] == views[1]

        reduce_net(_adjacency_case(name), order_seed, observer=check)
        assert selections


def _assert_exact_adjacency(net: Net) -> None:
    rebuilt = Net(
        places=net.places, transitions=net.transitions, arcs=net.arcs,
        inputs=net.inputs, outputs=net.outputs,
    )
    for n in rebuilt.nodes:
        assert net.preset(n) == rebuilt.preset(n), n
        assert net.postset(n) == rebuilt.postset(n), n
    assert (net._pred, net._succ) == (rebuilt._pred, rebuilt._succ)


class TestSubstitutedAdjacency:
    """`substitute` hands its result the host's adjacency, patched."""

    @pytest.mark.parametrize("io_type", ["place", "transition"])
    @pytest.mark.parametrize("seed", [4, 9])
    def test_every_generation_step(self, seed, io_type):
        generated = generate_andor_net(
            GenerationRecipe(seed=seed, substitution_steps=40, root_io_type=io_type)
        )
        root = generated.steps[0].node
        net = Net.of(
            places=[root] if io_type == "place" else [],
            transitions=[root] if io_type == "transition" else [],
            inputs=[root], outputs=[root],
        )
        for step in generated.steps:
            net = substitute(net, step.node, step.inner)
            _assert_exact_adjacency(net)
            assert step.node not in net
        assert net == generated.net

    @pytest.mark.parametrize("node", ["a", "t1", "b", "t2", "c"])
    def test_interface_and_inner_nodes(self, node):
        chain = Net.of(
            places=["a", "b", "c"], transitions=["t1", "t2"],
            arcs=[("a", "t1"), ("t1", "b"), ("b", "t2"), ("t2", "c")],
            inputs=["a"], outputs=["c"],
        )
        if chain.is_place(node):
            inner = Net.of(
                places=["r1", "r2", "r3"], transitions=["u"],
                arcs=[("r1", "u"), ("u", "r3")],
                inputs=["r1", "r2"], outputs=["r2", "r3"],
            )
        else:
            inner = Net.of(
                places=["m"], transitions=["u1", "u2", "u3"],
                arcs=[("u1", "m"), ("m", "u3")],
                inputs=["u1", "u2"], outputs=["u2", "u3"],
            )
        result = substitute(chain, node, inner)
        _assert_exact_adjacency(result)
        assert validate(result).ok
        assert (node in chain.inputs) == (inner.inputs <= result.inputs)
        assert (node in chain.outputs) == (inner.outputs <= result.outputs)


class TestReusedIds:
    """A new id that is only the end of a dangling host arc is still taken."""

    def test_substitute_refuses_an_arc_source(self):
        host = Net.of(places=["p"], arcs=[("x", "p")], inputs=["p"], outputs=["p"])
        inner = Net.of(places=["x"], inputs=["x"], outputs=["x"])
        with pytest.raises(ValueError):
            substitute(host, "p", inner)

    def test_contract_refuses_an_arc_source(self):
        host = Net.of(
            places=["p", "q"], transitions=["t"],
            arcs=[("x", "p"), ("p", "t"), ("t", "q")], inputs=["p"], outputs=["q"],
        )
        with pytest.raises(ValueError):
            contract(host, {"p"}, "x")
