"""Reductions of nets that are not AND-OR, pinned byte for byte.

A non-member is reduced until the completeness pass finds nothing, so
nearly every node pays for a failed contraction search; these nets are
where the worklist skips the pairs and walks its lemma rules out.  The
digests were recorded before that filter was refined, so they pin that
it changes no output byte.  The width-3 layered DAGs are those of
`test_completeness_pass.py`; the edited members are `perturb`ed generated
members, three of them acyclic, which take the reducer's acyclic path.
"""

from __future__ import annotations

import hashlib

import pytest

from helpers import layered_dag, perturb
from wfnet import GenerationRecipe, Net, generate_andor_net, reduce_net, serialize_forest, serialize_net
from wfnet.nets import is_acyclic

# SHA-256 of serialize_forest + serialize_net of reduce_net under seeds None,
# 1 and 2.  `dag_S_L` is `layered_dag(S, layers=L)`; `member_R_N_edit_E` is
# `perturb(member, E)` of the member generated with seed R and N steps.
NONMEMBER_DIGESTS = {
    "dag_0_21": (  # 63 nodes, acyclic, 1 contractions
        "8e42615f306d1397fe61b6ca7e6ec6d9461778141c6aafd4108e8ae4669010e6",
        "8e42615f306d1397fe61b6ca7e6ec6d9461778141c6aafd4108e8ae4669010e6",
        "8e42615f306d1397fe61b6ca7e6ec6d9461778141c6aafd4108e8ae4669010e6",
    ),
    "dag_1_21": (  # 63 nodes, acyclic, 1 contractions
        "06c9e2ad7979c2178676d441d4d4961c954e78fd73db95cac693928e18422ff8",
        "06c9e2ad7979c2178676d441d4d4961c954e78fd73db95cac693928e18422ff8",
        "06c9e2ad7979c2178676d441d4d4961c954e78fd73db95cac693928e18422ff8",
    ),
    "dag_2_21": (  # 63 nodes, acyclic, 3 contractions
        "a0866d17fe8e928fc02d8ee8882a98a02cefd53fcd23c07165890bfa87fb6110",
        "904c64f1b33fad8aaabb475d5a987b30e934e2153a1b9b8dcb9c65d09e30a259",
        "ce3af1cd164af25d538dabbfd1ea19805a86ea9fb1437039a423dea74b9bac1c",
    ),
    "dag_4_41": (  # 123 nodes, acyclic, 2 contractions
        "b90e0dd271286e4c41cf6cf894fed9d530c96b112616c7fe3bb4e1e81dbab915",
        "089145fa4d1078a5652a46a3cee89b3bf189adbbceb9b86819835e7c700b76cf",
        "b90e0dd271286e4c41cf6cf894fed9d530c96b112616c7fe3bb4e1e81dbab915",
    ),
    "member_4_40_edit_1": (  # 161 nodes, cyclic, 62 contractions
        "7b70545cc0559a7ca73acb7b33ffeae555e5b0ec9f01295774d73632f2856059",
        "c5c35ed00d1584f53fef995be7068ac9a733da0f380c0e3296528f3817497442",
        "0555a05a2ec16570850e3b227a5ad7b71c2f1db967a7f0ce8327b60d758f0f22",
    ),
    "member_9_40_edit_2": (  # 155 nodes, cyclic, 72 contractions
        "9916e41fe2d46ec9b6804b5199beafb970df094b67c55210121e021e272c2462",
        "086d6b010164146102ec964a7ab2ae9347a016b5d377c67eadd3ab537c2f3430",
        "49a5832e1f9cb28e3ce58e83e1d5dea6b0e875d946f9807ef813640ac57c39d5",
    ),
    "member_17_40_edit_5": (  # 151 nodes, cyclic, 61 contractions
        "0bb1bd79b99fcad16f90441f5b13932b5f683e59657c9d822d8d5d7b0e29d151",
        "7a48395b6843b0d52ef6a9b6122bb771108d78da54738610b23a415faee8491d",
        "7e02f2010799e0a417787cd8061f7f2b68b83c1d12651bde12c4fbcd6e196c67",
    ),
    "member_23_40_edit_8": (  # 160 nodes, cyclic, 61 contractions
        "2eefcf06048a4d18aa71b7031a46a516e580935b727c38bdb4e17ff2a4606194",
        "1cb771ed970dbb3936b2262804e03746f3e25e4e4b69f903e47a53a21acc69db",
        "95b5ede2662c1563ee6086cad92c397099743c8f54d13ef313affc03aa272d38",
    ),
    "member_64_15_edit_3": (  # 55 nodes, acyclic, 31 contractions
        "604fb2742f695c464ffb64196e7d3d533f8e80885103bacc65faf4976b247af8",
        "f81a168dbd3f1da85a059100b52366d56ad08899dcaba796bc2e979e86d42763",
        "f38ed2bd81f01d96e7d5bf8cd34e846cf8a79fe19c2c84a2801113acf117088f",
    ),
    "member_144_20_edit_1": (  # 81 nodes, acyclic, 34 contractions
        "c1588571426207c74fbef04b63cf75c85e892c0cad4ccd5f6230ec5b5d68e5bd",
        "654ad05672eaa277634acecdde97184b5e03519c5d0d94e4c5d7148b09f305f1",
        "e1c9fd2c87bc41631a775b2f99c085edcc3404357b7d9b2a5194e2b1b189d459",
    ),
    "member_162_10_edit_2": (  # 48 nodes, acyclic, 14 contractions
        "648fce4fddbd185424351d7f6c9f2535bfc038581c04c46020c756cff54c3896",
        "32d9f6b019713ea0b7e3b69191b19747c3a9f3ad91e456fe910c9448417ee959",
        "fc7b7656474b8b117d60c38bccc6d51daa272085589dc9114c7876ecf5933c85",
    ),
}


def nonmember(name: str) -> Net:
    kind, *numbers = name.split("_")
    if kind == "dag":
        seed, layers = map(int, numbers)
        return layered_dag(seed, layers=layers)
    recipe_seed, steps, _, edit_seed = numbers
    member = generate_andor_net(GenerationRecipe(seed=int(recipe_seed), substitution_steps=int(steps))).net
    edited = perturb(member, int(edit_seed))
    assert edited is not None
    return edited


@pytest.mark.parametrize("name", sorted(NONMEMBER_DIGESTS))
def test_nonmember_reductions_are_pinned(name):
    net = nonmember(name)
    for seed, digest in zip((None, 1, 2), NONMEMBER_DIGESTS[name]):
        result = reduce_net(net, seed)
        assert len(result.net) > 1
        text = serialize_forest(result.forest) + serialize_net(result.net)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, seed


# The acyclic nets above and six more acyclic edits of small members.
ACYCLIC_NONMEMBERS = sorted(name for name in NONMEMBER_DIGESTS if "_40_" not in name) + [
    "member_11_10_edit_1",
    "member_19_10_edit_1",
    "member_64_10_edit_2",
    "member_90_10_edit_1",
    "member_144_15_edit_1",
    "member_162_10_edit_3",
]


@pytest.mark.parametrize("name", ACYCLIC_NONMEMBERS)
def test_contraction_keeps_an_acyclic_net_acyclic(name):
    """The invariant behind the reducer's acyclic shortcut, at every step under three seeds."""
    net = nonmember(name)
    assert is_acyclic(net)
    steps = []
    for seed in (None, 1, 2):
        reduce_net(net, seed, observer=lambda before, selection, fresh, after: steps.append(after))
    assert len(steps) >= 3
    assert all(is_acyclic(after) for after in steps)
