"""The working graph: edited in place, frozen only at the API.

`reduce_net` copies its input once into a `nets._Graph` and contracts it in
place; `generate_andor_net` substitutes into one.  These tests pin what that
must not change: every value handed out (observer arguments, the result,
the hosts of `contract` and `substitute`) stays a frozen `Net` that later
edits never reach, freezing a graph gives back the net it was built from,
and neither a reduction without an observer nor a generation builds a
`Net` per step.
"""

from __future__ import annotations

import pytest

from conftest import NETS, load_fixture
from wfnet import (
    GenerationRecipe,
    Net,
    contract,
    generate_andor_net,
    reduce_net,
    reduction,
    substitute,
)
from wfnet.nets import _adjacency, _Graph


def _member(seed: int, steps: int = 40) -> Net:
    return generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=steps)).net


def _chain(places: int) -> Net:
    """p0 -> t0 -> p1 -> ... -> p{places-1}."""
    ps = [f"p{k}" for k in range(places)]
    ts = [f"t{k}" for k in range(places - 1)]
    arcs = [arc for k, t in enumerate(ts) for arc in ((ps[k], t), (t, ps[k + 1]))]
    return Net.of(places=ps, transitions=ts, arcs=arcs, inputs=[ps[0]], outputs=[ps[-1]])


def _case(name: str) -> Net:
    return load_fixture(name) if name in NETS else _member(int(name.removeprefix("generated")))


def _maps(net: Net) -> tuple[dict, dict]:
    return dict(net._pred), dict(net._succ)


def _rebuilt(net: Net) -> Net:
    return Net(
        places=net.places, transitions=net.transitions, arcs=net.arcs,
        inputs=net.inputs, outputs=net.outputs,
    )


class TestObserverValues:
    """What an observer is handed is still right after the reduction has moved on."""

    @pytest.mark.parametrize("order_seed", [None, 1])
    @pytest.mark.parametrize("name", sorted(NETS) + ["generated4", "generated9"])
    def test_logged_steps_replay_after_the_reduction(self, name, order_seed):
        net = _case(name)
        log = []
        result = reduce_net(net, order_seed, observer=lambda *step: log.append(step))
        assert log

        assert log[0][0] is net
        for (_, _, _, after), (before, _, _, _) in zip(log, log[1:]):
            assert before is after
        assert result.net is log[-1][3]
        for before, selection, fresh, after in log:
            assert type(before) is Net and type(after) is Net
            assert contract(before, selection, fresh) == after
            assert _maps(after) == _maps(_rebuilt(after)), fresh
        assert type(result.net) is Net
        hash(result.net)

    @pytest.mark.parametrize("name", sorted(NETS) + ["generated4"])
    def test_result_without_observer_is_a_value(self, name):
        net = _case(name)
        result = reduce_net(net, 1)
        assert type(result.net) is Net
        hash(result.net)
        assert _maps(result.net) == _maps(_rebuilt(result.net))
        assert result.net == reduce_net(net, 1, observer=lambda *step: None).net


class TestHostUntouched:
    """`contract` and `substitute` on a `Net` copy it; they never edit it."""

    @pytest.mark.parametrize("name", sorted(NETS) + ["generated4"])
    def test_contract(self, name):
        net = _case(name)
        steps = []
        reduce_net(net, observer=lambda *step: steps.append(step))
        for before, selection, fresh, _ in steps:
            snapshot = _maps(before)
            contract(before, selection, fresh)
            assert _maps(before) == snapshot
            taken = sorted(before.nodes - selection)
            if taken:
                with pytest.raises(ValueError, match="already in use"):
                    contract(before, selection, taken[0])
                assert _maps(before) == snapshot

    @pytest.mark.parametrize("seed", [4, 9])
    def test_substitute(self, seed):
        generated = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=40))
        net = Net.of(places=[generated.steps[0].node], inputs=[generated.steps[0].node],
                     outputs=[generated.steps[0].node])
        for step in generated.steps:
            snapshot = _maps(net)
            result = substitute(net, step.node, step.inner)
            assert _maps(net) == snapshot
            net = result
        assert net == generated.net

    def test_refused_edit_leaves_a_working_graph_as_it_was(self, nested):
        graph = _Graph(nested)
        selection = frozenset({"p7", "p8", "t8", "t9", "p9", "p10", "t10"})
        with pytest.raises(ValueError, match="already in use"):
            contract(graph, selection, "p1")
        assert graph.freeze() == nested
        assert _maps(graph.freeze()) == _maps(nested)


class TestNoNetPerContraction:
    """Without an observer, a reduction builds one `Net`: its result."""

    @pytest.mark.parametrize("net", [_chain(500), _member(4, 80)], ids=["chain500", "generated4"])
    def test_one_build_per_reduction(self, net, monkeypatch):
        builds = 0
        init = Net.__init__

        def counted_init(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Net, "__init__", counted_init)
        result = reduce_net(net)
        assert result.contractions > 1
        assert builds == 1


class TestMapsAfterEveryEdit:
    """`_replace_nodes` edits a graph's maps directly; after every step they
    must be the maps `_adjacency` rebuilds from the arcs they hold."""

    @staticmethod
    def assert_maps_rebuild(graph: _Graph) -> None:
        arcs = {(a, b) for a, post in graph._succ.items() for b in post}
        assert graph._succ == _adjacency(graph.nodes, arcs)
        assert graph._pred == _adjacency(graph.nodes, ((b, a) for a, b in arcs))

    @pytest.mark.parametrize("name", sorted(NETS) + ["generated4", "generated9"])
    def test_every_contraction_of_a_reduction(self, name, monkeypatch):
        steps = 0

        def checked(host, selection, fresh):
            nonlocal steps
            result = contract(host, selection, fresh)
            assert result is host
            self.assert_maps_rebuild(result)
            steps += 1
            return result

        monkeypatch.setattr(reduction, "contract", checked)
        result = reduce_net(_case(name))
        assert steps == result.contractions > 0

    @pytest.mark.parametrize("seed", [4, 9, 21])
    def test_every_substitution_of_a_generation(self, seed):
        generated = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=40))
        root = generated.steps[0].node
        graph = _Graph(Net.of(places=[root], inputs=[root], outputs=[root]))
        wide = 0
        for step in generated.steps:
            assert substitute(graph, step.node, step.inner) is graph
            self.assert_maps_rebuild(graph)
            wide += len(step.inner.inputs) > 1 and len(step.inner.outputs) > 1
        assert wide > 0
        assert graph.freeze() == generated.net

    def test_several_heads_and_tails_between_several_feeders_and_fed_nodes(self, pand):
        # The middle place m has two producers and two consumers; the pand
        # fixture has three inputs and three outputs, and `tor` two of each.
        host = Net.of(
            places=["i", "m", "o"], transitions=["a1", "a2", "b1", "b2"],
            arcs=[("i", "a1"), ("i", "a2"), ("a1", "m"), ("a2", "m"),
                  ("m", "b1"), ("m", "b2"), ("b1", "o"), ("b2", "o")],
            inputs=["i"], outputs=["o"],
        )
        tor = Net.of(
            places=["q"], transitions=["u1", "u2", "u3", "u4"],
            arcs=[("u1", "q"), ("u2", "q"), ("q", "u3"), ("q", "u4")],
            inputs=["u1", "u2"], outputs=["u3", "u4"],
        )
        graph = _Graph(host)
        substitute(graph, "m", pand)
        self.assert_maps_rebuild(graph)
        assert graph._succ["a1"] == graph._succ["a2"] == pand.inputs
        assert graph._pred["b1"] == graph._pred["b2"] == pand.outputs
        substitute(graph, "b1", tor)
        self.assert_maps_rebuild(graph)
        assert graph._succ["o"] == frozenset() and graph._pred["o"] == {"u3", "u4", "b2"}
        contract(graph, pand.nodes, "x")
        self.assert_maps_rebuild(graph)
        assert graph._pred["x"] == {"a1", "a2"} and graph._succ["x"] == {"u1", "u2", "b2"}
        assert substitute(graph.freeze(), "x", pand) == substitute(substitute(host, "m", pand), "b1", tor)


class TestFreezeRoundTrip:
    """A graph holds its arcs only in its maps; freezing it rebuilds the same net."""

    ODD_NETS = {
        "dangling": Net.of(places=["p"], transitions=["t"],
                           arcs=[("p", "t"), ("t", "ghost"), ("stray", "p")],
                           inputs=["p"], outputs=["t"]),
        "self_arc": Net.of(places=["p"], arcs=[("p", "p")], inputs=["p"], outputs=["p"]),
        "isolated": Net.of(places=["p", "lone"], transitions=["t"], arcs=[("p", "t")],
                           inputs=["p"], outputs=["t"]),
        "empty": Net.of(),
    }

    @pytest.mark.parametrize("name", sorted(NETS) + sorted(ODD_NETS))
    def test_freeze_gives_back_the_net(self, name):
        net = self.ODD_NETS[name] if name in self.ODD_NETS else load_fixture(name)
        frozen = _Graph(net).freeze()
        assert type(frozen) is Net
        assert frozen == net and frozen.name == net.name
        assert _maps(frozen) == _maps(_rebuilt(frozen)) == _maps(net)


class TestNoNetPerGenerationStep:
    """Generation substitutes into one working graph and freezes it once."""

    def test_builds_are_steps_plus_two(self, monkeypatch):
        steps = 50
        builds = 0
        init = Net.__init__

        def counted_init(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Net, "__init__", counted_init)
        generated = generate_andor_net(GenerationRecipe(seed=3, substitution_steps=steps))
        assert len(generated.steps) == steps
        # The root, one per basic net, and one freeze.
        assert builds == steps + 2
