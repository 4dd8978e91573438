"""End-to-end command line behaviour, driven in process through main()."""

from __future__ import annotations

import json

import pytest

from conftest import DATA_DIR
from wfnet import (
    Net,
    check_star_sound_bounded,
    check_substitution_sound_bounded,
    parse_forest,
    parse_net,
    reduce_net,
    serialize_net,
    summarize_star,
    validate,
)
from wfnet.cli import main

PAND = str(DATA_DIR / "pand.net")
TAND11 = str(DATA_DIR / "tand11.net")
POR11 = str(DATA_DIR / "por11.net")
TAND_WIDE = str(DATA_DIR / "tand_wide.net")
POR_WIDE = str(DATA_DIR / "por_wide.net")
NESTED = str(DATA_DIR / "nested.net")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def invalid_net(tmp_path):
    """A net that parses but fails validation: both interface sets are empty."""
    doc = {"places": ["p"], "transitions": [], "arcs": [], "inputs": [], "outputs": []}
    path = tmp_path / "invalid.net"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def undecodable(tmp_path):
    path = tmp_path / "latin.net"
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


class TestParsing:
    def test_no_arguments_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, )
        assert code == 1
        assert "usage:" in err
        assert out == ""

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "reduce", "--bogus", PAND)
        assert code == 1
        assert "usage:" in err

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert "usage: wfnet" in out

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "classify", "no_such_file.net")
        assert code == 1
        assert "cannot read" in err


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, err = run(capsys, "validate", PAND)
        assert code == 0
        assert f"{PAND}: valid workflow net (place interface)" in out

    def test_parse_error_goes_to_stderr(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("{nope", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "error" in err and "line 1" in err

    def test_invalid_net_reported_on_stdout(self, capsys, tmp_path):
        doc = {
            "places": ["p1", "p2"], "transitions": [], "arcs": [["p1", "p2"]],
            "inputs": ["p1"], "outputs": ["p2"],
        }
        path = tmp_path / "nonbipartite.net"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "place to place" in out or "nonbipartite" in out

    def test_worst_code_wins_across_files(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("{nope", encoding="utf-8")
        code, out, err = run(capsys, "validate", PAND, str(bad))
        assert code == 1
        assert f"{PAND}: valid workflow net" in out


class TestClassify:
    def test_reports_class_flags(self, capsys):
        code, out, err = run(capsys, "classify", PAND, TAND_WIDE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith(f"{PAND}: pAND")
        assert lines[1].startswith(f"{TAND_WIDE}: tAND")

    def test_output_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "classify", PAND, TAND11, POR11, NESTED)
        _, second, _ = run(capsys, "classify", PAND, TAND11, POR11, NESTED)
        assert first == second

    def test_bad_file_does_not_stop_the_others(self, capsys, invalid_net):
        code, out, err = run(capsys, "classify", PAND, invalid_net, POR_WIDE)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"{PAND}: pAND")
        assert lines[1].startswith(f"{POR_WIDE}: pOR")
        assert err.startswith(f"{invalid_net}: error: ")


class TestReduce:
    def test_reduces_to_stdout(self, capsys):
        code, out, err = run(capsys, "reduce", NESTED)
        assert code == 0
        net = parse_net(out).net
        assert len(net) == 1

    def test_output_and_tree_files(self, capsys, tmp_path):
        out_file = tmp_path / "reduced.net"
        tree = tmp_path / "tree.json"
        code, out, err = run(
            capsys, "reduce", PAND, "-o", str(out_file), "--tree", str(tree),
        )
        assert code == 0
        assert out == ""
        reduced = parse_net(out_file.read_text(encoding="utf-8")).net
        assert len(reduced) == 1
        forest = parse_forest(tree.read_text(encoding="utf-8"))
        assert sum(len(t.leaf_ids()) for t in forest) == 11

    def test_seed_changes_order_not_outcome(self, capsys):
        code, out, err = run(capsys, "reduce", NESTED, "--seed", "3")
        assert code == 0
        assert len(parse_net(out).net) == 1

    def test_normal_form_round_trips(self, capsys):
        code, out, err = run(capsys, "reduce", TAND_WIDE)
        assert code == 0
        assert len(parse_net(out).net) == 10


class TestValidatesOnce:
    """A command that reduces a net validates it once, on loading."""

    @pytest.mark.parametrize(
        "argv",
        [("reduce", NESTED), ("reduce", TAND_WIDE, "--seed", "2"), ("verify-andor", NESTED), ("verify-andor", TAND_WIDE)],
    )
    def test_one_validation_per_command(self, capsys, monkeypatch, argv):
        from wfnet import cli, nets

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return validate(*args, **kwargs)

        monkeypatch.setattr(cli, "validate", counted)
        monkeypatch.setattr(nets, "validate", counted)
        code, out, err = run(capsys, *argv)
        assert code in (0, 2)
        assert err == ""
        assert len(calls) == 1


class TestVerifyAndor:
    def test_yes(self, capsys):
        code, out, err = run(capsys, "verify-andor", NESTED)
        assert code == 0
        assert out == "AND-OR: yes\n"

    def test_no(self, capsys):
        code, out, err = run(capsys, "verify-andor", TAND_WIDE)
        assert code == 2
        assert out == "AND-OR: no\n"


class TestSoundness:
    def test_star_default(self, capsys):
        code, out, err = run(capsys, "soundness", PAND)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"{PAND}: sound up to k=3"
        assert len(lines) == 4
        assert lines[1].startswith(f"{PAND}:  sound k=1")

    def test_single_k_unsound_with_witness(self, capsys):
        code, out, err = run(capsys, "soundness", "--k", "1", POR_WIDE)
        assert code == 2
        assert "unsound k=1" in out
        assert "t3" in out and "stuck marking" in out

    def test_inconclusive_on_tiny_budget(self, capsys):
        code, out, err = run(capsys, "soundness", "--max-states", "2", PAND)
        assert code == 3
        assert "inconclusive at k=1 (bound max_states)" in out

    def test_k_zero_is_an_error(self, capsys):
        code, out, err = run(capsys, "soundness", "--k", "0", PAND)
        assert code == 1
        assert "at least 1" in err

    def test_substitution_variant(self, capsys):
        code, out, err = run(capsys, "soundness", "--sub", PAND)
        assert code == 0
        assert f"{PAND}: substitution sound k=3" in out

    def test_worst_code_wins(self, capsys):
        code, out, err = run(capsys, "soundness", "--k", "1", POR_WIDE, PAND)
        assert code == 2
        assert "unsound" in out and "sound k=1" in out

    def test_parse_failure_beats_unsound(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("[]", encoding="utf-8")
        code, out, err = run(capsys, "soundness", "--k", "1", POR_WIDE, str(bad))
        assert code == 1

    def test_error_lines_name_the_file_once(self, capsys, invalid_net):
        code, out, err = run(capsys, "soundness", "--k", "1", invalid_net)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert lines and all(line.startswith(f"{invalid_net}: error: ") for line in lines)
        assert not any(f"{invalid_net}: error: {invalid_net}:" in line for line in lines)

    def test_real_pool_matches_serial_on_a_bad_file(self, capsys, invalid_net):
        files = (PAND, invalid_net, POR11)
        serial = run(capsys, "soundness", *files)
        parallel = run(capsys, "soundness", "--jobs", "2", *files)
        assert serial[0] == 1
        assert parallel == serial

    def test_parallel_jobs_match_serial(self, capsys):
        serial_code, serial_out, _ = run(capsys, "soundness", PAND, POR11, TAND11)
        par_code, par_out, _ = run(
            capsys, "soundness", "--jobs", "2", PAND, POR11, TAND11,
        )
        assert par_code == serial_code == 0
        assert par_out == serial_out

    def test_jobs_asks_for_at_most_one_worker_per_file(self, capsys, monkeypatch):
        # The pool starts every worker it is asked for at once; an in-process
        # stand-in records the request without starting any.
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("wfnet.cli.ProcessPoolExecutor", InProcessPool)
        serial = run(capsys, "soundness", PAND, POR11)
        parallel = run(capsys, "soundness", "--jobs", "64", PAND, POR11)
        assert asked == [2]
        assert parallel == serial

    def test_compare_reduced_is_advisory(self, capsys):
        code, out, err = run(capsys, "soundness", "--compare-reduced", PAND)
        assert code == 0
        assert "experimental: reduced form (1 nodes) sound up to k=3" in out
        assert "experimental: verdicts agree" in out

    def test_compare_reduced_keeps_primary_exit_code(self, capsys):
        code, out, err = run(
            capsys, "soundness", "--k", "1", "--compare-reduced", POR_WIDE,
        )
        assert code == 2
        # Contraction of well-nested basic subnets preserves soundness, so
        # the advisory check lands on the same verdict here.
        assert "experimental: reduced form (7 nodes) unsound k=1" in out
        assert "experimental: verdicts agree" in out


class TestBadFiles:
    @pytest.mark.parametrize("argv", [("validate",), ("soundness", "--k", "1")])
    def test_undecodable_file_does_not_stop_the_others(self, capsys, undecodable, argv):
        code, out, err = run(capsys, *argv, undecodable, PAND)
        assert code == 1
        assert out.startswith(f"{PAND}: ")
        assert err.startswith(f"{undecodable}: error: cannot read: ")
        assert err.count(undecodable) == 1

    def test_undecodable_file_for_one_file_commands(self, capsys, undecodable):
        code, out, err = run(capsys, "reduce", undecodable)
        assert code == 1
        assert out == ""
        assert err.startswith(f"{undecodable}: error: cannot read: ")

    @pytest.mark.parametrize("argv", [
        ("reduce",), ("verify-andor",), ("dot",), ("complete", "--place"),
    ])
    def test_one_file_commands_prefix_the_path_once(self, capsys, invalid_net, argv):
        code, out, err = run(capsys, *argv, invalid_net)
        assert code == 1
        assert out == ""
        assert err.startswith(f"{invalid_net}: error: ")
        assert err.count(invalid_net) == 1

    def test_wrong_interface_kind_names_the_file(self, capsys):
        code, out, err = run(capsys, "complete", "--place", PAND)
        assert code == 1
        assert err.startswith(f"{PAND}: error: ")

    def test_nesting_too_deep_to_parse(self, capsys, tmp_path):
        path = tmp_path / "deep.net"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path), PAND)
        assert code == 1
        assert out.startswith(f"{PAND}: valid workflow net")
        assert err.startswith(f"{path}: error: nested too deeply")


class TestGenerate:
    def test_deterministic_bytes(self, capsys):
        code, first, _ = run(capsys, "generate", "--seed", "7")
        assert code == 0
        _, second, _ = run(capsys, "generate", "--seed", "7")
        assert first == second
        assert validate(parse_net(first).net).ok

    def test_seed_matters(self, capsys):
        _, a, _ = run(capsys, "generate", "--seed", "1")
        _, b, _ = run(capsys, "generate", "--seed", "2")
        assert a != b

    def test_options(self, capsys, tmp_path):
        out_file = tmp_path / "gen.net"
        code, out, err = run(
            capsys, "generate", "--seed", "5", "--steps", "3",
            "--io-type", "transition", "-o", str(out_file),
        )
        assert code == 0
        assert out == ""
        net = parse_net(out_file.read_text(encoding="utf-8")).net
        assert net.io_type == "transition"

    def test_seed_is_required(self, capsys):
        code, out, err = run(capsys, "generate")
        assert code == 1
        assert "--seed" in err

    def test_negative_steps_rejected(self, capsys):
        code, out, err = run(capsys, "generate", "--seed", "1", "--steps", "-2")
        assert code == 1
        assert "error" in err


class TestDot:
    def test_net_rendering(self, capsys):
        code, out, err = run(capsys, "dot", PAND)
        assert code == 0
        assert out.startswith("digraph wfnet")
        assert '"p1" -> "t1";' in out

    def test_tree_rendering(self, capsys, tmp_path):
        tree = tmp_path / "tree.json"
        run(capsys, "reduce", PAND, "--tree", str(tree), "-o", str(tmp_path / "r.net"))
        code, out, err = run(capsys, "dot", "--tree", str(tree))
        assert code == 0
        assert out.startswith("digraph refinement")
        assert "pAND" in out

    def test_invalid_net_rejected(self, capsys, tmp_path):
        doc = {
            "places": ["p1", "p2"], "transitions": [], "arcs": [["p1", "p2"]],
            "inputs": ["p1"], "outputs": ["p2"],
        }
        path = tmp_path / "bad.net"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "dot", str(path))
        assert code == 1


class TestComplete:
    def test_place_completion(self, capsys):
        code, out, err = run(capsys, "complete", "--place", TAND11)
        assert code == 0
        net = parse_net(out).net
        assert len(net.places) == 7 and len(net.transitions) == 4
        assert net.inputs == {"p_i"} and net.outputs == {"p_o"}

    def test_transition_completion(self, capsys):
        code, out, err = run(capsys, "complete", "--transition", PAND)
        assert code == 0
        net = parse_net(out).net
        assert net.io_type == "transition"
        assert "t_i" in net.transitions and "t_o" in net.transitions

    def test_wrong_interface_kind(self, capsys):
        code, out, err = run(capsys, "complete", "--place", PAND)
        assert code == 1
        assert "interface" in err

    def test_flags_are_exclusive(self, capsys):
        code, out, err = run(capsys, "complete", "--place", "--transition", PAND)
        assert code == 1
        assert "usage" in err

    def test_one_kind_is_required(self, capsys):
        code, out, err = run(capsys, "complete", PAND)
        assert code == 1


class TestPnmlInput:
    PNML = """<?xml version="1.0"?>
    <pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
      <net id="n1"><page id="pg">
        <place id="a"/><transition id="t"/><place id="b"/>
        <arc id="x1" source="a" target="t"/>
        <arc id="x2" source="t" target="b"/>
      </page></net>
    </pnml>
    """

    def test_format_is_sniffed(self, capsys, tmp_path):
        path = tmp_path / "net.pnml"
        path.write_text(self.PNML, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0
        assert "valid workflow net" in out

    def test_conversion_via_reduce(self, capsys, tmp_path):
        path = tmp_path / "net.pnml"
        path.write_text(self.PNML, encoding="utf-8")
        code, out, err = run(capsys, "reduce", str(path))
        assert code == 0
        assert len(parse_net(out).net) == 1

    def test_loader_warnings_go_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "net.pnml"
        path.write_text(self.PNML.replace('<place id="a"/>', '<place id="a"><name/></place>'), encoding="utf-8")
        code, out, err = run(capsys, "reduce", str(path))
        assert code == 0
        assert len(parse_net(out).net) == 1
        assert err == f"{path}: warning: ignored PNML element <name>\n"

    def test_pages_nest_to_any_depth(self, capsys, tmp_path):
        depth = 5000
        path = tmp_path / "deep.pnml"
        path.write_text(
            '<pnml><net id="n">' + "<page>" * depth + '<place id="p"/>' + "</page>" * depth + "</net></pnml>",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0, err
        assert "valid workflow net" in out


def nesting(levels: int) -> Net:
    """Choice and parallel blocks nested `levels` deep; the tree is `levels` + 2 deep."""
    ids = iter(range(3 * levels + 3))
    src, dst = f"p{next(ids)}", f"p{next(ids)}"
    places, transitions, arcs = [src, dst], [], []
    inputs, outputs = [src], [dst]
    for level in range(levels + 1):
        kind, pool = ("t", transitions) if level % 2 == 0 else ("p", places)
        plain = f"{kind}{next(ids)}"
        pool.append(plain)
        arcs += [(src, plain), (plain, dst)]
        if level < levels:
            enter, leave = f"{kind}{next(ids)}", f"{kind}{next(ids)}"
            pool += [enter, leave]
            arcs += [(src, enter), (leave, dst)]
            src, dst = enter, leave
    return Net.of(places=places, transitions=transitions, arcs=arcs, inputs=inputs, outputs=outputs)


class TestErrors:
    def test_600_level_tree_round_trips(self, capsys, tmp_path):
        # Tree files grow with the square of the depth: 600 levels is 16.8 MB.
        net = nesting(600)
        path = tmp_path / "deep.net"
        path.write_text(serialize_net(net), encoding="utf-8")
        tree = tmp_path / "tree.json"
        code, out, err = run(capsys, "reduce", str(path), "--tree", str(tree))
        assert (code, err) == (0, "")
        assert len(parse_net(out).net) == 1
        assert parse_forest(tree.read_text(encoding="utf-8")) == reduce_net(net).forest
        code, out, err = run(capsys, "dot", "--tree", str(tree))
        assert (code, err) == (0, "")
        assert out.startswith("digraph refinement {")

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.net"
        code, out, err = run(capsys, "reduce", PAND, "-o", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("wfnet: error: ") and str(target) in err

    @pytest.mark.parametrize("classes", [[1], [[1]]])
    def test_tree_classes_must_be_strings(self, capsys, tmp_path, classes):
        leaf = {"node": "b", "classes": [], "children": []}
        tree = tmp_path / "tree.json"
        tree.write_text(
            json.dumps([{"node": "a", "classes": classes, "children": [leaf]}]), encoding="utf-8"
        )
        code, out, err = run(capsys, "dot", "--tree", str(tree))
        assert code == 1
        assert out == ""
        assert err.startswith(f"{tree}: error: ")

    @pytest.mark.parametrize("node, classes", [
        ('a" ]; x [label="pwn', []),
        ("a", ['pAND"]; y [']),
    ])
    def test_hostile_tree_ids_and_classes(self, capsys, tmp_path, node, classes):
        leaf = {"node": "b", "classes": [], "children": []}
        tree = tmp_path / "tree.json"
        children = [leaf] if classes else []
        tree.write_text(
            json.dumps([{"node": node, "classes": classes, "children": children}]), encoding="utf-8"
        )
        code, out, err = run(capsys, "dot", "--tree", str(tree))
        assert code == 1
        assert out == ""
        assert err.startswith(f"{tree}: error: ")


    def test_tree_file_top_level_must_be_a_list(self, capsys, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text("{}", encoding="utf-8")
        code, out, err = run(capsys, "dot", "--tree", str(tree))
        assert (code, out) == (1, "")
        assert err == f"{tree}: error: top level must be a list of trees\n"


class TestRepeatedCalls:
    def test_options_do_not_leak_between_calls(self, capsys):
        net = parse_net((DATA_DIR / "por11.net").read_text(encoding="utf-8")).net
        sub = f"{POR11}: substitution {check_substitution_sound_bounded(net, 2).describe()}\n"
        verdicts = check_star_sound_bounded(net, 3)
        star = "".join(
            f"{POR11}: {line}\n" if not line.startswith(" ") else f"{POR11}:{line}\n"
            for line in [summarize_star(verdicts)] + [f"  {v.describe()}" for v in verdicts]
        )
        reduced = {
            seed: serialize_net(reduce_net(net, seed=seed).net) for seed in (None, 3)
        }
        calls = [
            (("soundness", "--sub", "--k", "2", POR11), sub),
            (("soundness", POR11), star),
            (("reduce", POR11, "--seed", "3"), reduced[3]),
            (("soundness", POR11), star),
            (("reduce", POR11), reduced[None]),
            (("soundness", "--sub", "--k", "2", POR11), sub),
        ]
        for argv, expected in calls:
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (0, expected, ""), argv
