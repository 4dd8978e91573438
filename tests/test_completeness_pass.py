"""The completeness pass grows only the pairs its lemma admits.

`find_contractible` skips every expand pair (focus, o) that the lemma in
its docstring rules out.  `helpers.reference_scan` grows every pair; the
two must return the same first hit, or both None, under every order.  The
lemma itself is checked on every pair of a set of small nets: a pair that
`_grow` contracts, capped or not, must have meeting `helpers.ends` keys.  On
seeded random workflow nets the pass is checked against the subset oracle
of `helpers`, which shares no code with it: no normal form may have a
contractible subset, and `is_andor` must agree with `oracle_andor`; on
edited small members, which contract in larger selections, no normal form
may have a subset that either the oracle or `_hit` accepts.  The
reducer runs only the expand phase when its queue runs dry; at every such
scan the loop and parallel tests must find nothing anywhere, so that the
scan returns what the full pass and `helpers.reference_scan` return.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from conftest import NETS, load_fixture
from helpers import (
    chains,
    contractible_subset,
    ends,
    layered_dag,
    oracle_andor,
    perturb,
    random_wf_nets,
    reference_scan,
    state_machine,
)
from wfnet import (
    GenerationRecipe,
    Net,
    find_contractible,
    generate_andor_net,
    is_andor,
    node_order,
    reduce_net,
    serialize_forest,
    serialize_net,
)
from wfnet import reduction
from wfnet.nets import descendants, reach_masks
from wfnet.reduction import _GROW_CAP, _grow, _hit, _loop, _parallel


def scanned_nets(net: Net) -> list[Net]:
    """Every net a reduction of `net` passes through, its normal form last."""
    nets: list[Net] = []
    result = reduce_net(net, observer=lambda before, selection, fresh, after: nets.append(before))
    return nets + [result.net]


def assert_same_first_hits(net: Net) -> None:
    for order in (None, node_order(net, 1), node_order(net, 2)):
        assert find_contractible(net, order) == reference_scan(net, order)


def mask_nets() -> dict[str, Net]:
    nets = dict(NETS, state_machine=state_machine(20, 1), dag=layered_dag(0, layers=21))
    for variant in ("side_exit", "second_exit", "cross_arcs"):
        nets[f"chains_{variant}"] = chains(40, variant)
    for k, net in enumerate(random_wf_nets(50, 7)):
        nets[f"random{k}"] = net
    return nets


MASK_NETS = mask_nets()


@pytest.mark.parametrize("name", sorted(MASK_NETS))
def test_reach_masks_agree_with_descendants(name):
    """The scan's reachability answers, one mask test per pair, against one walk per node.

    `por11` has a self-loop, the state machine is one strongly connected
    component, and the 21-layer DAG has one component per node.
    """
    net = MASK_NETS[name]
    bit, reach = reach_masks(net)
    for n in net.nodes:
        assert {m for m in net.nodes if reach[n] & bit[m]} == descendants(net, n), n


@pytest.fixture
def dry_scans(monkeypatch):
    """The hits of the reducer's dry-queue scans, each checked as it runs.

    Every scan the reducer makes must skip the loop and parallel phases.
    On the net it scans, no node may have a loop or parallel hit, and the
    expand-only hit must be the full pass's and the reference scan's.
    """
    hits = []

    def scan(graph, order=None, **options):
        assert options == {"expand_only": True}
        hit = find_contractible(graph, order, **options)
        net = graph.freeze()
        rank = {n: k for k, n in enumerate(order)}
        assert all(_loop(net, n, rank) is None and _parallel(net, n, rank) is None for n in order)
        assert hit == find_contractible(net, order) == reference_scan(net, order)
        hits.append(hit)
        return hit

    monkeypatch.setattr(reduction, "find_contractible", scan)
    return hits


@pytest.mark.parametrize("stem", sorted(NETS))
def test_dry_queue_scans_of_the_fixtures(dry_scans, stem):
    for seed in (None, 1, 2):
        reduce_net(load_fixture(stem), seed)
    assert len(dry_scans) >= 3


@pytest.mark.parametrize("seed", range(3))
def test_dry_queue_scans_of_random_nets(dry_scans, seed):
    for net in random_wf_nets(40, seed):
        reduce_net(net, seed)
    assert len(dry_scans) >= 40


@pytest.mark.parametrize("seed", range(6))
def test_dry_queue_scans_of_edited_members(dry_scans, seed):
    net = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=12)).net
    for edit in range(3):
        net = perturb(net, seed=100 * seed + edit)
        if net is None:
            break
        reduce_net(net, seed)
    assert dry_scans


@pytest.mark.parametrize("seed", range(3))
def test_dry_queue_scans_of_layered_dags(dry_scans, seed):
    reduce_net(layered_dag(seed, layers=21), seed)
    assert dry_scans


def test_dry_queue_scan_that_hits(dry_scans, monkeypatch):
    """At grow cap 10 the worklist leaves the state machine's 51-node hit to the scan."""
    monkeypatch.setattr(reduction, "_GROW_CAP", 10)
    reduce_net(state_machine(20, 1))
    assert [None if hit is None else len(hit[0]) for hit in dry_scans] == [51, None]


@pytest.mark.parametrize("seed", [4, 9])
def test_generated_member_reductions(seed):
    net = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=40)).net
    for step in scanned_nets(net):
        assert_same_first_hits(step)


@pytest.mark.parametrize("seed", range(12))
def test_multi_edit_variants(seed):
    net = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=8)).net
    for edit in range(3):
        variant = perturb(net, seed=100 * seed + edit)
        if variant is None:
            break
        net = variant
        for step in scanned_nets(net):
            assert_same_first_hits(step)


@pytest.mark.parametrize("seed", range(3))
def test_layered_dags(seed):
    net = layered_dag(seed, layers=21)
    nets = scanned_nets(net)
    assert len(nets[-1]) > 1
    for step in nets:
        assert_same_first_hits(step)


# In SHARED_POSTSET, t1 and t2 share the preset {a}, t2 and t3 the postset
# {e, g}, and {t1, p, t3, t2} is contractible (class tOR).  From the first
# focus t2 it is the hit of the candidate t3, a pair that passes the
# lemma's test only through the shared postset: in(t2) is empty, as t2 has
# two successors.  The pair (t1, t2), through the shared preset, gives the
# same hit, but the focus t5 comes before t1 and finds {t5, q, t6}.
# SHARED_PRESET is the same net with every arc reversed, where the pair
# (t3, t2) passes only through the shared preset {e, g}.
_PLACES = ["s", "a", "p", "e", "g", "q", "f"]
_TRANSITIONS = ["t0", "t1", "t2", "t3", "t4", "t5", "t6"]
_ARCS = [
    ("s", "t0"), ("t0", "a"), ("a", "t1"), ("a", "t2"), ("t1", "p"), ("p", "t3"), ("t3", "e"), ("t3", "g"),
    ("t2", "e"), ("t2", "g"), ("e", "t4"), ("t4", "a"), ("e", "t5"), ("g", "t5"), ("t5", "q"), ("q", "t6"),
    ("t6", "f"),
]
SHARED_POSTSET = Net.of(places=_PLACES, transitions=_TRANSITIONS, arcs=_ARCS, inputs=["s"], outputs=["f"])
SHARED_PRESET = Net.of(
    places=_PLACES, transitions=_TRANSITIONS, arcs=[(b, a) for a, b in _ARCS], inputs=["f"], outputs=["s"]
)


@pytest.mark.parametrize(
    "net, first",
    [(SHARED_POSTSET, ["t2", "t3"]), (SHARED_PRESET, ["t3", "t2"])],
    ids=["shared-postset", "shared-preset"],
)
def test_hit_only_through_a_shared_side(net, first):
    order = first + ["t5", "t6"] + sorted(net.nodes - set(first) - {"t5", "t6"})
    expected = (frozenset({"t1", "p", "t3", "t2"}), frozenset({"tOR"}))
    assert reference_scan(net, order) == expected
    assert find_contractible(net, order) == expected


# In AND_KIND_KEY the focus t52 has one successor, ctr_9, which is not
# one-in, one-out, so (a) can admit t52's pairs only in the AND-kind class
# `tOR`.  Around ctr_9 only t53 has other than one successor, so D2 names
# t53's (postset, output membership), and t53, with the one predecessor
# ctr_9, is the candidate that grows into the first hit.  t53 shares neither
# t52's preset nor its postset: only the pool part for that class and that
# key holds it.
AND_KIND_KEY = Net.of(
    places=["ctr_0", "ctr_1", "ctr_2", "ctr_3", "ctr_7", "ctr_9", "p2", "p26", "p48", "p58"],
    transitions=["ctr_10", "ctr_11", "ctr_12", "ctr_13", "t50", "t51", "t52", "t53", "t55"],
    arcs=[
        ("ctr_1", "t51"), ("ctr_1", "t52"), ("ctr_10", "ctr_0"), ("ctr_11", "ctr_7"), ("ctr_12", "p26"),
        ("ctr_13", "ctr_1"), ("ctr_2", "t55"), ("ctr_3", "ctr_11"), ("ctr_7", "ctr_12"), ("ctr_9", "t53"),
        ("p2", "ctr_13"), ("p26", "ctr_10"), ("p48", "t50"), ("p58", "ctr_10"), ("t50", "ctr_9"),
        ("t51", "p48"), ("t52", "ctr_9"), ("t53", "ctr_2"), ("t53", "ctr_3"), ("t55", "p58"),
    ],
    inputs=["ctr_3", "p2", "p58"],
    outputs=["ctr_0"],
)


def test_hit_only_through_a_d2_key():
    order = ["t52"] + sorted(AND_KIND_KEY.nodes - {"t52"})
    expected = (frozenset({"t50", "t51", "t52", "t53", "p48", "ctr_9"}), frozenset({"tOR"}))
    assert reference_scan(AND_KIND_KEY, order) == expected
    assert find_contractible(AND_KIND_KEY, order) == expected


# The worklist skips the candidates the lemma rules out only after cutting
# its list to `_CANDIDATE_CAP`.  Filtering first would let the cap keep
# candidates it drops today and change what is contracted next; on this
# 96-node member, reduced under seed 2, it changes the bytes below.
CUT_BEFORE_FILTER_DIGEST = "002ecdc89552a674af5e13fbc9beacdadab4a6fb614d87ba4c64c0beace56c7d"


def test_worklist_filters_after_the_cut():
    net = generate_andor_net(GenerationRecipe(seed=9, substitution_steps=25)).net
    result = reduce_net(net, 2)
    data = serialize_forest(result.forest) + serialize_net(result.net)
    assert hashlib.sha256(data.encode("utf-8")).hexdigest() == CUT_BEFORE_FILTER_DIGEST


def lemma_nets() -> dict[str, Net]:
    nets = dict(NETS, shared_postset=SHARED_POSTSET, shared_preset=SHARED_PRESET, dag=layered_dag(0, layers=21))
    for seed in range(4):
        net = generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=8)).net
        nets[f"member{seed}"] = net
        for edit in range(2):
            net = perturb(net, seed=10 * seed + edit)
            if net is None:
                break
            nets[f"member{seed}_edit{edit}"] = net
    return nets


LEMMA_NETS = lemma_nets()


def growing_pairs(net: Net) -> list[tuple[str, str]]:
    """Every same-type pair (i, o), o reachable from i, that `_grow` contracts capped or uncapped."""
    return [
        (i, o)
        for i in sorted(net.nodes)
        for o in sorted(descendants(net, i) - {i})
        if net.is_place(o) == net.is_place(i)
        and any(_grow(net, i, o, cap) is not None for cap in (None, _GROW_CAP, 4))
    ]


@pytest.mark.parametrize("name", sorted(LEMMA_NETS))
def test_lemma_admits_every_pair_that_grows(name):
    net = LEMMA_NETS[name]
    for i, o in growing_pairs(net):
        assert not ends(net, i, net.postset(i)).isdisjoint(ends(net, o, net.preset(o))), (i, o)


def test_every_lemma_net_but_the_dag_has_a_pair_that_grows():
    assert [name for name, net in sorted(LEMMA_NETS.items()) if not growing_pairs(net)] == ["dag"]


@pytest.mark.parametrize("seed", range(5))
def test_random_net_normal_forms_are_irreducible(seed):
    """No node subset of a normal form passes the subset oracle's test.

    Forty seeded random workflow nets per seed (`helpers.random_wf_nets`),
    each reduced under seeds None and 1.  A net the reduction leaves as it
    is has just been shown to have no contractible subset, so `oracle_andor`
    could only say no; it runs on the nets that contract at least once.
    """
    for net in random_wf_nets(40, seed):
        forms = {reduce_net(net, order_seed).net for order_seed in (None, 1)}
        for form in forms:
            assert len(form) == 1 or contractible_subset(form) is None, net
        if forms != {net}:
            assert is_andor(net) == oracle_andor(net), net


def edited_members(seed: int) -> list[Net]:
    """One and two `perturb` edits of each of ten small generated members.

    The members take six substitution steps (about 20 nodes).  Nearly every
    edit still contracts some selection of three or more nodes, and most
    stop at a normal form of several nodes.
    """
    nets = []
    for member_seed in range(10 * seed, 10 * seed + 10):
        net = generate_andor_net(GenerationRecipe(seed=member_seed, substitution_steps=6)).net
        for edit in range(2):
            net = perturb(net, seed=1000 + 10 * member_seed + edit)
            if net is None:
                break
            nets.append(net)
    return nets


@pytest.mark.parametrize("seed", range(6))
def test_edited_member_normal_forms_are_irreducible(seed, monkeypatch):
    """No node subset of a normal form is contractible, by the oracle or by `_hit`.

    Each net is reduced at the real grow cap and at a grow cap of 3, where
    the worklist grows no selection of more than three nodes and leaves
    every larger one to the completeness pass.  A normal form of 2 to 14
    nodes, the oracle's limit, must have no subset that
    `helpers.contractible_subset` accepts, and no subset that `_hit`
    accepts.  A scan without its expand phase fails the oracle at grow cap
    3, a `_grow` that pulls in no predecessors fails it at either cap, and
    a `_hit` without its well-nestedness check accepts a subset.
    """
    checked = 0
    for net in edited_members(seed):
        for cap in (_GROW_CAP, 3):
            monkeypatch.setattr(reduction, "_GROW_CAP", cap)
            form = reduce_net(net).net
            if not 1 < len(form) <= 14:
                continue
            checked += 1
            assert contractible_subset(form) is None, (net, cap)
            nodes = sorted(form.nodes)
            for size in range(2, len(nodes) + 1):
                for subset in itertools.combinations(nodes, size):
                    assert _hit(form, frozenset(subset)) is None, (net, cap, subset)
    assert checked >= 25
