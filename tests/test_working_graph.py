"""The reducer's working graph: edited in place, frozen only at the API.

`reduce_net` copies its input once into a `nets._Graph` and contracts it in
place.  These tests pin what that must not change: every value handed out
(observer arguments, the result, the hosts of `contract` and `substitute`)
stays a frozen `Net` that later edits never reach, and a reduction without
an observer builds no `Net` per contraction.
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
from wfnet.nets import _Graph


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
    """Without an observer, a reduction builds one `Net` per view and one result."""

    @pytest.mark.parametrize("net", [_chain(500), _member(4, 80)], ids=["chain500", "generated4"])
    def test_builds_are_views_plus_one(self, net, monkeypatch):
        counts = {"builds": 0, "views": 0}
        init = Net.__init__
        view = reduction.subnet_view

        def counted_init(self, *args, **kwargs):
            counts["builds"] += 1
            init(self, *args, **kwargs)

        def counted_view(*args, **kwargs):
            counts["views"] += 1
            return view(*args, **kwargs)

        monkeypatch.setattr(Net, "__init__", counted_init)
        monkeypatch.setattr(reduction, "subnet_view", counted_view)
        result = reduce_net(net)
        assert result.contractions > 1
        assert counts["builds"] == counts["views"] + 1
