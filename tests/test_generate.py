"""The substitution-based net generator."""

from __future__ import annotations

import hashlib
import random

import pytest

from wfnet import (
    BASIC_KINDS,
    GenerationRecipe,
    IdSource,
    classify,
    generate_andor_net,
    generate_basic_net,
    serialize_net,
    validate,
)


class TestIdSource:
    def test_never_repeats(self):
        ids = IdSource()
        seen = {ids.place() for _ in range(5)} | {ids.transition() for _ in range(5)}
        assert len(seen) == 10

    def test_prefix_matches_kind(self):
        ids = IdSource()
        assert ids.place().startswith("p")
        assert ids.transition().startswith("t")


class TestRecipeValidation:
    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            GenerationRecipe(seed=1, substitution_steps=-1)

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            GenerationRecipe(seed=1, max_basic_net_nodes=3)

    def test_rejects_unknown_root(self):
        with pytest.raises(ValueError):
            GenerationRecipe(seed=1, root_io_type="marking")


class TestBasicNets:
    @pytest.mark.parametrize("kind", BASIC_KINDS)
    def test_valid_and_in_class(self, kind):
        for seed in range(30):
            rng = random.Random(seed)
            budget = rng.randint(4, 10)
            net = generate_basic_net(kind, budget, rng, IdSource())
            assert validate(net).ok
            assert kind in classify(net).basic_classes
            assert 1 <= len(net) <= budget

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            generate_basic_net("pAND", 3, random.Random(0), IdSource())

    def test_deterministic_for_fixed_rng_state(self):
        nets = [
            generate_basic_net("tOR", 8, random.Random(42), IdSource())
            for _ in range(2)
        ]
        assert nets[0] == nets[1]


class TestGenerateAndorNet:
    def test_deterministic(self):
        recipe = GenerationRecipe(seed=13, substitution_steps=9)
        assert generate_andor_net(recipe).net == generate_andor_net(recipe).net

    def test_seeds_differ(self):
        first = generate_andor_net(GenerationRecipe(seed=1, substitution_steps=9)).net
        second = generate_andor_net(GenerationRecipe(seed=2, substitution_steps=9)).net
        assert first != second

    def test_zero_steps_is_one_node(self):
        generated = generate_andor_net(GenerationRecipe(seed=1, substitution_steps=0))
        assert len(generated.net) == 1
        assert generated.steps == ()

    def test_transition_root(self):
        generated = generate_andor_net(
            GenerationRecipe(seed=4, substitution_steps=0, root_io_type="transition")
        )
        assert generated.net.io_type == "transition"

    def test_grown_nets_validate(self):
        for seed in range(12):
            recipe = GenerationRecipe(seed=seed, substitution_steps=6, max_basic_net_nodes=7)
            generated = generate_andor_net(recipe)
            assert validate(generated.net).ok
            assert len(generated.steps) == 6

    def test_size_bound(self):
        steps, budget = 10, 6
        recipe = GenerationRecipe(seed=3, substitution_steps=steps, max_basic_net_nodes=budget)
        net = generate_andor_net(recipe).net
        assert len(net) <= 1 + steps * (budget - 1)

    def test_inner_nets_recorded(self):
        generated = generate_andor_net(GenerationRecipe(seed=8, substitution_steps=5))
        for step in generated.steps:
            assert validate(step.inner).ok
            assert step.kind in classify(step.inner).basic_classes


class TestGenerationBytes:
    """The bytes of every generated net and recorded step, pinned over a grid of recipes.

    The digest moves if any step picks another node or kind, or if any `rng`
    call moves, since every later choice depends on all earlier ones.
    """

    GENERATION_DIGEST = "3a9721e8e1953be89f190f050158741c5cce0d6945282db03229dce87870cf54"

    def test_generation_digest(self):
        digest = hashlib.sha256()
        for root in ("place", "transition"):
            for steps in (0, 1, 5, 30, 120):
                for seed in range(40):
                    recipe = GenerationRecipe(seed=seed, substitution_steps=steps, root_io_type=root)
                    generated = generate_andor_net(recipe)
                    digest.update(serialize_net(generated.net).encode())
                    for step in generated.steps:
                        digest.update(f"{step.node}\n{step.kind}\n".encode())
                        digest.update(serialize_net(step.inner).encode())
        assert digest.hexdigest() == self.GENERATION_DIGEST
