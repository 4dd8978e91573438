"""Acceptance checks for the whole package, one verdict line per criterion.

Each test exercises one end-to-end requirement (exact results, with runtime
budgets where stated) and prints a single PASS or FAIL line even when the
suite runs with captured output.  The reachability-quotient criterion
inspects every contraction performed by the verification, confluence, and
inversion workloads, so those workloads live in shared module fixtures.
"""

from __future__ import annotations

import itertools
import random
import time
from types import SimpleNamespace

import pytest

from conftest import DATA_DIR, NETS
from helpers import can_reach, oracle_andor, perturb
from wfnet import (
    GenerationRecipe,
    Net,
    check_k_sound,
    check_star_sound_bounded,
    classify,
    contract,
    fire,
    generate_andor_net,
    input_marking,
    is_andor,
    isomorphic,
    parse_net,
    path_quotient_check,
    reduce_net,
    serialize_net,
    substitute,
    validate,
)
from wfnet.cli import main as cli_main
from wfnet.nets import descendants_closure
from wfnet.subnets import _is_path_quotient


def _report(capsys, index: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {index:02d}] {title}: {status} ({detail})")
    assert ok, f"acceptance {index:02d} {title}: {detail}"


@pytest.fixture(scope="module")
def quotient_log():
    """Booleans from path_quotient_check, one per observed contraction."""
    return []


def quotient_observer(log):
    """A reduction observer that logs path_quotient_check for every contraction.

    Each step's `before` is the previous step's `after`, so the closure
    computed for that `after` is reused for it; every `after`'s closure is
    computed from that net alone.
    """
    last = (None, None)

    def observer(before, selection, fresh, after):
        nonlocal last
        closure_before = last[1] if last[0] is before else descendants_closure(before)
        closure_after = descendants_closure(after)
        log.append(_is_path_quotient(closure_before, closure_after, selection, fresh))
        last = (after, closure_after)

    return observer


@pytest.fixture(scope="module")
def verification_runs(quotient_log):
    """Reduction results and timings for the three membership fixtures."""
    observer = quotient_observer(quotient_log)
    runs = {}
    for stem in ("nested", "tand_wide", "por_wide"):
        start = time.perf_counter()
        result = reduce_net(NETS[stem], observer=observer)
        runs[stem] = (result, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def confluence_runs(quotient_log):
    """200 generated nets, each reduced under five order policies."""
    observer = quotient_observer(quotient_log)
    start = time.perf_counter()
    failures = []
    sizes = []
    for seed in range(1, 201):
        steps = 3 + (seed % 28)
        budget = min(10, 1 + 99 // steps)
        recipe = GenerationRecipe(
            seed=seed,
            substitution_steps=steps,
            max_basic_net_nodes=budget,
            root_io_type="place" if seed % 2 else "transition",
        )
        net = generate_andor_net(recipe).net
        sizes.append(len(net))
        if len(net) > 100:
            failures.append(f"seed {seed}: {len(net)} nodes")
            continue
        results = [
            reduce_net(net, seed=order, observer=observer)
            for order in (None, 1, 2, 3, 4)
        ]
        if not all(len(r.net) == 1 for r in results):
            failures.append(f"seed {seed}: not all one-node")
        for a, b in itertools.combinations(results, 2):
            if not isomorphic(a.net, b.net):
                failures.append(f"seed {seed}: outcomes differ")
                break
    return SimpleNamespace(
        elapsed=time.perf_counter() - start,
        failures=failures,
        sizes=sizes,
        reductions=200 * 5,
    )


def _with_prefix(net: Net, prefix: str) -> Net:
    renamed = {n: prefix + n for n in net.places | net.transitions}
    return Net.of(
        places=[renamed[p] for p in net.places],
        transitions=[renamed[t] for t in net.transitions],
        arcs=[(renamed[a], renamed[b]) for a, b in net.arcs],
        inputs=[renamed[n] for n in net.inputs],
        outputs=[renamed[n] for n in net.outputs],
    )


@pytest.fixture(scope="module")
def inversion_cases(quotient_log):
    """100 substitute-then-contract round trips with their outcomes."""
    failures = []
    for i in range(100):
        host = generate_andor_net(
            GenerationRecipe(
                seed=1000 + i,
                substitution_steps=2 + (i % 4),
                root_io_type="place" if i % 2 else "transition",
            )
        ).net
        rng = random.Random(9000 + i)
        node = rng.choice(sorted(host.nodes))
        kind = "place" if host.is_place(node) else "transition"
        inner = _with_prefix(
            generate_andor_net(
                GenerationRecipe(
                    seed=5000 + i, substitution_steps=i % 3, root_io_type=kind
                )
            ).net,
            f"x{i}_",
        )
        before = substitute(host, node, inner)
        restored = contract(before, inner.nodes, node)
        if restored != host:
            failures.append(f"case {i}: contraction did not restore the host")
        quotient_log.append(
            path_quotient_check(before, restored, inner.nodes, node)
        )
    return SimpleNamespace(failures=failures, total=100)


def test_01_fixture_classification(capsys):
    start = time.perf_counter()
    labels = {stem: classify(NETS[stem]) for stem in NETS}
    elapsed = time.perf_counter() - start
    ok = (
        labels["pand"].basic_classes == {"pAND"}
        and labels["tand11"].basic_classes == {"11tAND"}
        and labels["tand11"].one_input
        and labels["tand11"].one_output
        and labels["por11"].basic_classes == {"11pOR"}
        and labels["tor"].basic_classes == {"tOR"}
        and labels["tand_wide"].is_tand
        and not labels["tand_wide"].basic_classes
        and not labels["tand_wide"].one_input
        and labels["por_wide"].is_por
        and not labels["por_wide"].basic_classes
        and not labels["por_wide"].one_output
        and elapsed < 1.0
    )
    _report(capsys, 1, "fixture classification", ok, f"7 fixtures in {elapsed:.3f}s")


def test_02_membership_verdicts(capsys, verification_runs):
    nested_result, nested_t = verification_runs["nested"]
    issues = []
    if len(nested_result.net) != 1 or nested_result.net.io_type != "place":
        issues.append("hierarchical fixture did not collapse to one place")
    for stem in ("tand_wide", "por_wide"):
        result, elapsed = verification_runs[stem]
        if len(result.net) == 1:
            issues.append(f"{stem} collapsed but must not")
        if elapsed >= 1.0:
            issues.append(f"{stem} reduction took {elapsed:.2f}s")
    if nested_t >= 1.0:
        issues.append(f"nested reduction took {nested_t:.2f}s")
    if cli_main(["verify-andor", str(DATA_DIR / "nested.net")]) != 0:
        issues.append("verify-andor exit code for the member")
    if cli_main(["verify-andor", str(DATA_DIR / "tand_wide.net")]) != 2:
        issues.append("verify-andor exit code for the first non-member")
    if cli_main(["verify-andor", str(DATA_DIR / "por_wide.net")]) != 2:
        issues.append("verify-andor exit code for the second non-member")
    capsys.readouterr()
    _report(
        capsys, 2, "membership verdicts", not issues,
        "; ".join(issues) or "one member, two non-members, exits 0/2/2",
    )


def _witness_replays(verdict) -> bool:
    net = verdict.checked_net
    marking = input_marking(net, verdict.k)
    for t in verdict.witness.firings:
        marking = fire(net, marking, t)
    if marking != verdict.witness.stuck:
        return False
    stuck = {p: marking[p] for p in marking.places()}
    goal = tuple(sorted((p, verdict.k) for p in net.outputs))
    return not can_reach(net, stuck, goal)


def test_03_soundness_verdicts_and_witnesses(capsys):
    issues = []
    for stem in ("tand_wide", "por_wide"):
        verdict = check_k_sound(NETS[stem], 1)
        if verdict.status != "unsound":
            issues.append(f"{stem} not reported unsound")
        elif not _witness_replays(verdict):
            issues.append(f"{stem} witness does not replay")
    states = 0
    for stem in ("pand", "tand11", "por11", "tor"):
        for verdict in check_star_sound_bounded(NETS[stem], 3):
            if verdict.status != "sound":
                issues.append(f"{stem} k={verdict.k}: {verdict.status}")
            if verdict.states_explored > 100_000:
                issues.append(f"{stem} k={verdict.k}: state budget exceeded")
            states += verdict.states_explored
    _report(
        capsys, 3, "soundness verdicts and witnesses", not issues,
        "; ".join(issues) or f"2 replayed witnesses, 12 sound verdicts, {states} states",
    )


def test_04_reduction_confluence_across_orders(capsys, confluence_runs):
    runs = confluence_runs
    ok = not runs.failures and runs.elapsed < 120.0 and max(runs.sizes) <= 100
    detail = "; ".join(runs.failures) or (
        f"{runs.reductions} reductions, nets up to {max(runs.sizes)} nodes, "
        f"{runs.elapsed:.1f}s"
    )
    _report(capsys, 4, "reduction confluence across orders", ok, detail)


def test_05_substitution_contraction_inversion(capsys, inversion_cases):
    ok = not inversion_cases.failures
    detail = "; ".join(inversion_cases.failures) or (
        f"{inversion_cases.total} round trips restored the host exactly"
    )
    _report(capsys, 5, "substitution-contraction inversion", ok, detail)


def test_06_contraction_commutes_in_all_overlap_cases(capsys):
    chain = Net.of(
        places=["pi", "p1", "p2", "p3", "p4", "p5", "po"],
        transitions=["t0", "t1", "t2", "t3", "t4", "t5"],
        arcs=[("pi", "t0"), ("t0", "p1"), ("p1", "t1"), ("t1", "p2"),
              ("p2", "t2"), ("t2", "p3"), ("p3", "t3"), ("t3", "p4"),
              ("p4", "t4"), ("t4", "p5"), ("p5", "t5"), ("t5", "po")],
        inputs=["pi"], outputs=["po"],
    )
    diamond = Net.of(
        places=["pi", "a1", "a2", "po"], transitions=["ta", "tb", "tc"],
        arcs=[("pi", "ta"), ("pi", "tb"), ("ta", "a1"), ("ta", "a2"),
              ("tb", "a1"), ("tb", "a2"), ("a1", "tc"), ("a2", "tc"), ("tc", "po")],
        inputs=["pi"], outputs=["po"],
    )
    issues = []

    # Disjoint regions.
    s1, s2 = {"ta", "tb"}, {"a1", "a2"}
    if contract(contract(diamond, s1, "n1"), s2, "n2") != contract(
        contract(diamond, s2, "n2"), s1, "n1"
    ):
        issues.append("disjoint regions")

    # Overlapping regions, remainder contracted second.
    s1 = {"p1", "t1", "p2", "t2", "p3"}
    s2 = {"t2", "p3", "t3", "p4", "t4"}
    if contract(contract(chain, s1, "n1"), s2 - s1, "n2") != contract(
        contract(chain, s2, "n2"), s1 - s2, "n1"
    ):
        issues.append("overlapping regions")

    # Overlap absorbed into the fresh node.
    s2 = {"p3", "t3", "p4", "t4", "p5"}
    if contract(contract(chain, s1, "n1"), (s2 - s1) | {"n1"}, "n3") != contract(
        contract(chain, s2, "n2"), (s1 - s2) | {"n2"}, "n3"
    ):
        issues.append("absorbed overlap")

    # One region nested inside the other.
    inner = {"t1", "p2", "t2"}
    if contract(chain, s1, "n1") != contract(
        contract(chain, inner, "n2"), {"p1", "n2", "p3"}, "n1"
    ):
        issues.append("nested regions")

    _report(
        capsys, 6, "contraction order independence", not issues,
        "; ".join(issues) or "all four overlap cases node-identical",
    )


def test_07_reachability_quotient_on_every_contraction(
    capsys, quotient_log, verification_runs, confluence_runs, inversion_cases
):
    checks = len(quotient_log)
    ok = checks > 0 and all(quotient_log)
    bad = quotient_log.count(False)
    _report(
        capsys, 7, "reachability quotient on every contraction", ok,
        f"{checks} contractions checked, {bad} failures",
    )


def test_08_exhaustive_agreement_on_small_nets(capsys):
    cases = []
    seed = 0
    while len(cases) < 500:
        seed += 1
        recipe = dict(
            substitution_steps=seed % 3,
            root_io_type="place" if seed % 2 else "transition",
        )
        net = generate_andor_net(
            GenerationRecipe(seed=seed, max_basic_net_nodes=4 + seed % 3, **recipe)
        ).net
        if len(net) > 10:
            net = generate_andor_net(
                GenerationRecipe(seed=seed, max_basic_net_nodes=4, **recipe)
            ).net
        if len(net) > 10:
            continue
        cases.append(net)
        variant = perturb(net, seed)
        if variant is not None and len(variant) <= 10:
            cases.append(variant)
    cases = cases[:500]

    start = time.perf_counter()
    disagreements = sum(1 for net in cases if oracle_andor(net) != is_andor(net))
    elapsed = time.perf_counter() - start
    members = sum(1 for net in cases if is_andor(net))
    _report(
        capsys, 8, "agreement with exhaustive contraction search",
        disagreements == 0,
        f"500 nets ({members} members), {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_09_large_net_reduction_speed(capsys):
    net = generate_andor_net(GenerationRecipe(seed=9, substitution_steps=700)).net
    size = len(net)
    start = time.perf_counter()
    result = reduce_net(net)
    elapsed = time.perf_counter() - start
    ok = size >= 2000 and len(result.net) == 1 and elapsed < 60.0
    _report(
        capsys, 9, "large net reduction speed", ok,
        f"{size} nodes to {len(result.net)} in {elapsed:.1f}s",
    )


def test_10_serialization_round_trip(capsys):
    issues = []
    nets = list(NETS.values())
    nets += [
        generate_andor_net(GenerationRecipe(seed=seed, substitution_steps=6)).net
        for seed in range(1, 101)
    ]
    for net in nets:
        text = serialize_net(net)
        if serialize_net(net) != text:
            issues.append("serialization not byte-stable")
            break
        parsed = parse_net(text)
        if parsed.net != net or parsed.net.name != net.name:
            issues.append(f"parse-serialize changed {net.name or 'a generated net'}")
            break
        if serialize_net(parsed.net) != text:
            issues.append("second serialization differs")
            break
        if not validate(parsed.net).ok:
            issues.append("round trip lost validity")
            break
    _report(
        capsys, 10, "serialization round trip", not issues,
        "; ".join(issues) or f"{len(nets)} nets round-tripped byte-identically",
    )
