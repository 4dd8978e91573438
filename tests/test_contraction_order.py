"""Pinned contraction orders: the exact bytes `reduce_net` writes.

Confluence only promises the same normal form up to renaming; which
selection is contracted first, and so the fresh ids and the tree, is fixed
by the worklist's caps and its loop tie-break, and, once the worklist finds
nothing, by the first hit of `find_contractible`, the completeness pass.
The reduction digests pin the worklist's choices; on every input but the
state machine below the completeness pass finds nothing.  That one pins a
reduction whose completeness pass hits, and `FIRST_HITS` pins the pass's
first hit on each fixture under two orders.  Changing any of them shows up
here.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import NETS, load_fixture
from helpers import state_machine
from wfnet import reduction
from wfnet import (
    GenerationRecipe,
    Net,
    find_contractible,
    generate_andor_net,
    reduce_net,
    serialize_forest,
    serialize_net,
)

# SHA-256 of serialize_forest + serialize_net of reduce_net under seeds None, 1, 2.
FIXTURE_DIGESTS = {
    "pand": (
        "b009e20099ad022de9303bdbd6165c4b7b0f2dababba658a8fe98ade64163289",
        "1f4fb31aa9a2a4b7bed080c31580463e79f42d998312721ca9bb93f1faf5d020",
        "dce99656d1aaf1b1f7d072f696d84bd0532e5183365bea3d518a0197e2f4b753",
    ),
    "tand11": (
        "cc051f8262a222c4dbbdc9183ab1f4619c73bc3f490aa002fba97e845b503446",
        "a8f84d01a7bacef73fffcfffc789f10b0c1a0f1e8b1ae0beceff7c23153391da",
        "a8f84d01a7bacef73fffcfffc789f10b0c1a0f1e8b1ae0beceff7c23153391da",
    ),
    "por11": (
        "637919ea1ea2fd2239ade1f87d3039b89f47ec1039f24d8a9c72f75f329e5523",
        "332b76acf231c817ab6767c8bd65e2e3628b996190a1d7efad12aacb0f4700a9",
        "fb5413ad944593171423348195ae3c8407fd9f465d20fdb4db920353539df095",
    ),
    "tor": (
        "ef0bdb8d37192891d9c5f231e6a6b256b06f23441d6bd90cbcbc647fd65ab583",
        "180ee1b2318727a7bdb2105944cf932a2876eafd0eda46556ca48cc4ebdaecd2",
        "861573db2b1599a3682a96e75fb1b87a1f98368e4b927d3ca596452960f24322",
    ),
    "tand_wide": (
        "a162f05d64698be7bcdce2ea0668581025aab8565dfac599205741848b066c31",
        "a162f05d64698be7bcdce2ea0668581025aab8565dfac599205741848b066c31",
        "a162f05d64698be7bcdce2ea0668581025aab8565dfac599205741848b066c31",
    ),
    "por_wide": (
        "0a07e138cafb4b25dc4a69755685b55b236d21e856833ca9c967f0d0ea88bdee",
        "16ba36de89b7a1b326bfc1878ab5e237a82d3ead20bfb002cca43d1a45453d6c",
        "1e2a6b13ea404e89b5201919d524754f0754f46706d46f2157e1affce3511f96",
    ),
    "nested": (
        "8a5a989d714d55151ca28ed53c73069ee0fffdbb79ade47ca427495e53d4ab51",
        "616424994945fd519241e1a950a2c190bc15999caedd5368a0f3b348cf8db12a",
        "c8e80f4ce991c0aec30e4a01723515eb855ab94288c450ac67c50916fe2e3867",
    ),
}

# The smallest generated members found on which the worklist's candidate
# cap decides what is contracted next (161 and 155 nodes).
CAPPED_DIGESTS = {
    4: "4690bbd8c4842ce5bfe9fa4b26a5d5220b31b6c949edb6bc1cfff9720e90daa1",
    9: "ba98bc2090d83e55d1affa7c058a414d190545183561a9c71c6ed925aef5748b",
}

# Place p carries two self-loops, a and b.  Seed 0 orders the nodes
# p, b, a, u, q: the worklist looks at p first and breaks the tie by id.
TWO_LOOPS = Net.of(
    places=["p", "q"],
    transitions=["a", "b", "u"],
    arcs=[("p", "a"), ("a", "p"), ("p", "b"), ("b", "p"), ("p", "u"), ("u", "q")],
    inputs=["p"],
    outputs=["q"],
)
TWO_LOOPS_DIGEST = "222a21cc3bdb608a54d7245039ab8e895d966e45112005e9d473b0251a33084d"

# With the grow cap at 10, the worklist gives up on every expand walk in
# this 60-node strongly connected state machine and contracts only twins;
# the completeness pass then contracts the 51 nodes left in one `11pOR`
# hit, and its second scan finds nothing.
STATE_MACHINE_DIGEST = "c19e3cbdfcf7ce708d57220f1c48970635b4a7f298f2cdf41a44035dba44bbc2"

# find_contractible under the sorted and the reversed node order.
FIRST_HITS = {
    "pand": [({"p2", "p3"}, {"pAND"}), ({"p6", "p7"}, {"pAND"})],
    "tand11": [({"p1", "p2"}, {"pAND"}), ({"p1", "p2"}, {"pAND"})],
    "por11": [({"p1", "t1"}, {"11pOR"}), ({"p1", "t1"}, {"11pOR"})],
    "tor": [({"p2", "t10"}, {"11pOR"}), ({"p2", "t10"}, {"11pOR"})],
    "tand_wide": [({"p3", "p6", "t4"}, {"11pOR", "pAND"}), ({"p3", "p6", "t4"}, {"11pOR", "pAND"})],
    "por_wide": [({"p1", "t1"}, {"11pOR"}), ({"p1", "t1"}, {"11pOR"})],
    "nested": [({"p11", "p12"}, {"pAND"}), ({"t6", "t7"}, {"tOR"})],
}


def reduction_digest(net: Net, seed: int | None) -> str:
    result = reduce_net(net, seed)
    data = serialize_forest(result.forest) + serialize_net(result.net)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("stem", sorted(NETS))
def test_fixture_reductions_are_pinned(stem):
    net = load_fixture(stem)
    digests = tuple(reduction_digest(net, seed) for seed in (None, 1, 2))
    assert digests == FIXTURE_DIGESTS[stem]


@pytest.mark.parametrize("seed", sorted(CAPPED_DIGESTS))
def test_capped_member_reductions_are_pinned(seed):
    net = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=40)).net
    assert reduction_digest(net, None) == CAPPED_DIGESTS[seed]


def test_loop_tie_break_is_pinned():
    assert reduction_digest(TWO_LOOPS, 0) == TWO_LOOPS_DIGEST


def test_completeness_pass_hit_is_pinned(monkeypatch):
    scans = []

    def scan(net, order=None, **options):
        hit = find_contractible(net, order, **options)
        scans.append(hit)
        return hit

    monkeypatch.setattr(reduction, "_GROW_CAP", 10)
    monkeypatch.setattr(reduction, "find_contractible", scan)
    assert reduction_digest(state_machine(20, 1), None) == STATE_MACHINE_DIGEST
    assert [None if hit is None else (len(hit[0]), hit[1]) for hit in scans] == [(51, {"11pOR"}), None]


@pytest.mark.parametrize("stem", sorted(NETS))
def test_find_contractible_is_pinned(stem):
    net = load_fixture(stem)
    hits = [
        find_contractible(net, order)
        for order in (None, sorted(net.nodes, reverse=True))
    ]
    assert hits == FIRST_HITS[stem]
