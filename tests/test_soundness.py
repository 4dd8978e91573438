"""State exploration and the bounded soundness checks.

Verdicts on nontrivial nets are cross-checked against the brute-force
oracles in helpers.py before anything is frozen into an expectation.
"""

from __future__ import annotations

import pytest

from helpers import oracle_k_sound, oracle_substitution_sound, to_bag
from wfnet import (
    GenerationRecipe,
    Marking,
    Net,
    check_k_sound,
    check_star_sound_bounded,
    check_substitution_sound_bounded,
    explore_reachable,
    generate_andor_net,
    input_marking,
    output_marking,
    place_completion,
    replay,
    summarize_star,
)


def m(**counts: int) -> Marking:
    return Marking(counts)


@pytest.fixture(scope="module")
def unbounded() -> Net:
    """t1 pumps tokens into b without limit; t2/t3 drain toward the output."""
    return Net.of(
        places=["a", "b", "o"],
        transitions=["t1", "t2", "t3"],
        arcs=[("a", "t1"), ("t1", "a"), ("t1", "b"), ("a", "t2"), ("t2", "o"),
              ("b", "t3"), ("t3", "o")],
        inputs=["a"],
        outputs=["o"],
    )


class TestExplore:
    def test_pc_tand11_has_six_markings(self, tand11):
        completed = place_completion(tand11)
        graph = explore_reachable(completed, input_marking(completed, 1))
        assert graph.complete
        assert set(graph.edges) == {
            m(p_i=1),
            m(p1=1, p2=1, p3=1),
            m(p3=1, p5=1),
            m(p1=1, p2=1, p6=1),
            m(p5=1, p6=1),
            m(p_o=1),
        }

    def test_state_cap(self, pand):
        graph = explore_reachable(pand, input_marking(pand, 1), max_states=2)
        assert not graph.complete
        assert graph.bound_hit == "max_states"

    def test_token_cap(self, unbounded):
        graph = explore_reachable(
            unbounded, Marking({"a": 1}), max_states=10_000, max_tokens=5
        )
        assert not graph.complete
        assert graph.bound_hit == "max_tokens"
        assert graph.overfull

    def test_path_to_replays(self, pand):
        graph = explore_reachable(pand, input_marking(pand, 1))
        for target in graph.edges:
            firings = graph.path_to(target)
            assert replay(pand, graph.initial, firings) == target

    def test_can_reach_is_backward_closure(self, pand):
        graph = explore_reachable(pand, input_marking(pand, 1))
        goal = output_marking(pand, 1)
        finishing = graph.can_reach(goal)
        assert goal in finishing
        assert finishing == frozenset(graph.edges)


    def test_can_reach_a_marking_off_the_places(self, pand):
        graph = explore_reachable(pand, input_marking(pand, 1))
        assert graph.can_reach(m(t1=1)) == frozenset()

    @pytest.mark.parametrize("bounds", [{"max_states": 0}, {"max_tokens": 0}])
    def test_bounds_below_one_are_refused(self, pand, bounds):
        with pytest.raises(ValueError, match="exploration bounds must be at least 1"):
            explore_reachable(pand, input_marking(pand, 1), **bounds)


class TestKSound:
    def test_basic_fixtures_sound(self, pand, tand11, por11, tor):
        for net in (pand, tand11, por11, tor):
            for k in (1, 2, 3):
                assert check_k_sound(net, k).status == "sound"

    def test_k_must_be_positive(self, pand):
        with pytest.raises(ValueError):
            check_k_sound(pand, 0)

    def test_tand_wide_unsound_at_one(self, tand_wide):
        verdict = check_k_sound(tand_wide, 1)
        assert verdict.status == "unsound"
        assert verdict.witness is not None
        # The completion cannot finish at all, so the start is already stuck.
        assert verdict.witness.firings == ()
        assert verdict.witness.stuck == m(p_i=1)

    def test_por_wide_unsound_at_one(self, por_wide):
        verdict = check_k_sound(por_wide, 1)
        assert verdict.status == "unsound"
        assert verdict.witness is not None
        assert verdict.witness.firings == ("t3",)
        assert verdict.witness.stuck == m(p1=1, p3=1)

    def test_witnesses_replay_and_are_stuck(self, tand_wide, por_wide):
        from helpers import can_reach, interface_bag

        for net in (tand_wide, por_wide):
            verdict = check_k_sound(net, 1)
            checked = verdict.checked_net
            witness = verdict.witness
            reached = replay(checked, input_marking(checked, 1), witness.firings)
            assert reached == witness.stuck
            goal = to_bag(interface_bag(checked, checked.outputs, 1))
            assert not can_reach(checked, dict(witness.stuck.items()), goal)

    def test_inconclusive_when_capped(self, pand, unbounded):
        assert check_k_sound(pand, 1, max_states=2).status == "inconclusive"
        verdict = check_k_sound(unbounded, 1, max_tokens=4)
        assert verdict.status == "inconclusive"
        assert verdict.bound_hit == "max_tokens"

    def test_transition_nets_checked_on_completion(self, tor):
        verdict = check_k_sound(tor, 1)
        assert verdict.checked_net.io_type == "place"
        assert verdict.checked_net.inputs == {"p_i"}

    def test_agrees_with_oracle(self, pand, por11, tand_wide, por_wide):
        cases = [
            (pand, 1), (pand, 2), (por11, 1), (por11, 2),
            (place_completion(tand_wide), 1), (por_wide, 1), (por_wide, 2),
        ]
        for seed in (3, 5, 8):
            recipe = GenerationRecipe(seed=seed, substitution_steps=3, max_basic_net_nodes=5)
            generated = generate_andor_net(recipe).net
            if generated.io_type == "transition":
                generated = place_completion(generated)
            cases.append((generated, 1))
        for net, k in cases:
            expected, _ = oracle_k_sound(net, k)
            verdict = check_k_sound(net, k)
            assert verdict.status == ("sound" if expected else "unsound")


class TestStarBounded:
    def test_sound_summary(self, pand):
        verdicts = check_star_sound_bounded(pand, 3)
        assert [v.k for v in verdicts] == [1, 2, 3]
        assert all(v.status == "sound" for v in verdicts)
        assert summarize_star(verdicts) == "sound up to k=3"

    def test_unsound_summary(self, tand_wide):
        verdicts = check_star_sound_bounded(tand_wide, 3)
        assert summarize_star(verdicts) == "unsound at k=1"

    def test_inconclusive_summary(self, pand):
        verdicts = check_star_sound_bounded(pand, 2, max_states=2)
        assert summarize_star(verdicts).startswith("inconclusive at k=1")

    def test_max_k_validation(self, pand):
        with pytest.raises(ValueError):
            check_star_sound_bounded(pand, 0)


class TestSubstitutionSound:
    def test_sound_cases(self, pand, por11):
        for net in (pand, por11):
            verdict = check_substitution_sound_bounded(net, 2)
            assert verdict.status == "sound"

    def test_unsound_case_with_replayable_witness(self, por_wide):
        verdict = check_substitution_sound_bounded(por_wide, 1)
        assert verdict.status == "unsound"
        witness = verdict.witness
        assert witness is not None
        checked = verdict.checked_net
        reached = replay(checked, input_marking(checked, 1), witness.firings)
        removed = witness.removed_outputs * output_marking(checked, 1)
        assert reached - removed == witness.stuck

    def test_agrees_with_oracle(self, pand, por11, por_wide, tand_wide):
        cases = [(pand, 2), (por11, 2), (por_wide, 1), (place_completion(tand_wide), 1)]
        for seed in (2, 9):
            recipe = GenerationRecipe(seed=seed, substitution_steps=3, max_basic_net_nodes=5)
            generated = generate_andor_net(recipe).net
            if generated.io_type == "transition":
                generated = place_completion(generated)
            cases.append((generated, 2))
        for net, k in cases:
            expected, _ = oracle_substitution_sound(net, k)
            verdict = check_substitution_sound_bounded(net, k)
            assert verdict.status == ("sound" if expected else "unsound")

    def test_describe_mentions_drop_count(self, por_wide):
        verdict = check_substitution_sound_bounded(por_wide, 1)
        if verdict.witness and verdict.witness.removed_outputs:
            assert "removing" in verdict.describe()
