"""Net isomorphism up to renaming."""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from wfnet import (
    GenerationRecipe,
    Net,
    find_isomorphism,
    generate_andor_net,
    isomorphic,
)


def relabel(net: Net, mapping: dict[str, str]) -> Net:
    return Net.of(
        places=[mapping[p] for p in net.places],
        transitions=[mapping[t] for t in net.transitions],
        arcs=[(mapping[a], mapping[b]) for a, b in net.arcs],
        inputs=[mapping[n] for n in net.inputs],
        outputs=[mapping[n] for n in net.outputs],
    )


class TestFindIsomorphism:
    def test_identity(self, pand):
        mapping = find_isomorphism(pand, pand)
        assert mapping == {n: n for n in pand.nodes}

    def test_renaming_found_and_correct(self, nested):
        wanted = {n: f"x_{n}" for n in sorted(nested.nodes)}
        other = relabel(nested, wanted)
        mapping = find_isomorphism(nested, other)
        assert mapping is not None
        assert relabel(nested, mapping) == other.replace(name=None)

    def test_kind_mismatch(self):
        place = Net.of(places=["p"], transitions=[], arcs=[], inputs=["p"], outputs=["p"])
        trans = Net.of(places=[], transitions=["t"], arcs=[], inputs=["t"], outputs=["t"])
        assert find_isomorphism(place, trans) is None

    def test_size_mismatch(self, pand, por11):
        assert not isomorphic(pand, por11)

    def test_wiring_mismatch(self):
        chain = Net.of(
            places=["a", "b"], transitions=["t"], arcs=[("a", "t"), ("t", "b")],
            inputs=["a"], outputs=["b"],
        )
        loop = Net.of(
            places=["a", "b"], transitions=["t"], arcs=[("a", "t"), ("t", "a")],
            inputs=["a"], outputs=["a", "b"],
        )
        assert not isomorphic(chain, loop)

    def test_interface_membership_distinguishes(self):
        base = Net.of(
            places=["a", "b"], transitions=["t"], arcs=[("a", "t"), ("t", "b")],
            inputs=["a"], outputs=["b"],
        )
        wider = base.replace(outputs=frozenset({"a", "b"}))
        assert not isomorphic(base, wider)

    def test_symmetry_needs_backtracking(self):
        # Two parallel diamond halves: signatures alone cannot split them.
        def diamond(suffix: str) -> list[tuple[str, str]]:
            return [
                (f"i{suffix}", f"s{suffix}"), (f"s{suffix}", f"m{suffix}"),
                (f"m{suffix}", f"e{suffix}"), (f"e{suffix}", f"o{suffix}"),
            ]

        net1 = Net.of(
            places=["i1", "m1", "o1", "i2", "m2", "o2"],
            transitions=["s1", "e1", "s2", "e2"],
            arcs=diamond("1") + diamond("2"),
            inputs=["i1", "i2"], outputs=["o1", "o2"],
        )
        shuffled = relabel(net1, {n: f"z_{n}" for n in net1.nodes})
        assert isomorphic(net1, shuffled)


class TestProperties:
    @given(st.integers(0, 60), st.integers(0, 10_000))
    def test_relabelled_generated_nets_match(self, seed, salt):
        net = generate_andor_net(
            GenerationRecipe(seed=seed, substitution_steps=4, max_basic_net_nodes=6)
        ).net
        names = sorted(net.nodes)
        shuffled = names[:]
        random.Random(salt).shuffle(shuffled)
        mapping = dict(zip(names, (f"r_{n}" for n in shuffled)))
        other = relabel(net, mapping)
        found = find_isomorphism(net, other)
        assert found is not None
        assert relabel(net, found) == other

    @given(st.integers(0, 60))
    def test_isomorphism_is_reflexive(self, seed):
        net = generate_andor_net(
            GenerationRecipe(seed=seed, substitution_steps=3, max_basic_net_nodes=5)
        ).net
        assert isomorphic(net, net)


class TestLargeNets:
    def test_three_thousand_nodes_without_recursion(self):
        # Deep enough that one stack frame per node would pass the recursion limit.
        net = generate_andor_net(GenerationRecipe(seed=9, substitution_steps=740)).net
        assert len(net) >= 3000
        assert find_isomorphism(net, net) == {n: n for n in net.nodes}
        renaming = {n: f"x_{n}" for n in net.nodes}
        assert find_isomorphism(net, relabel(net, renaming)) == renaming
