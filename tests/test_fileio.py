"""Net documents, PNML import, DOT export, and tree files."""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import DATA_DIR, NETS
from wfnet import (
    Internal,
    Leaf,
    Net,
    NetParseError,
    export_dot,
    export_forest_dot,
    parse_forest,
    parse_net,
    reduce_net,
    serialize_forest,
    serialize_net,
    sniff_format,
    validate,
)

MINIMAL = Net.of(places=["p"], transitions=[], arcs=[], inputs=["p"], outputs=["p"])


class TestNativeFormat:
    def test_fixture_files_are_canonical(self):
        # The committed files must be byte-identical to a fresh serialization
        # of the inline definitions, names included.
        for stem, net in NETS.items():
            on_disk = (DATA_DIR / f"{stem}.net").read_text(encoding="utf-8")
            assert on_disk == serialize_net(net), stem

    def test_round_trip_identity(self, all_fixture_nets):
        for net in all_fixture_nets.values():
            parsed = parse_net(serialize_net(net))
            assert parsed.net == net
            assert parsed.net.name == net.name

    def test_serialization_is_idempotent(self, nested):
        text = serialize_net(nested)
        assert serialize_net(parse_net(text).net) == text

    def test_entry_order_does_not_matter(self, pand):
        doc = json.loads(serialize_net(pand))
        doc["places"] = list(reversed(doc["places"]))
        doc["arcs"] = list(reversed(doc["arcs"]))
        assert parse_net(json.dumps(doc)).net == pand

    def test_minimal_document(self):
        text = '{"places": ["p"], "transitions": [], "arcs": [], "inputs": ["p"], "outputs": ["p"]}'
        parsed = parse_net(text)
        assert parsed.net == MINIMAL
        assert validate(parsed.net).ok

    def test_one_node_serialization_has_five_fields(self):
        doc = json.loads(serialize_net(MINIMAL))
        assert set(doc) == {"places", "transitions", "arcs", "inputs", "outputs"}
        assert doc["places"] == ["p"] and doc["inputs"] == ["p"]

    def test_names_make_texts_differ(self, pand):
        assert serialize_net(pand) != serialize_net(pand.replace(name="copy"))

    def test_nonbipartite_parses_but_fails_validation(self):
        text = json.dumps({
            "places": ["p1", "p2"], "transitions": [], "arcs": [["p1", "p2"]],
            "inputs": ["p1"], "outputs": ["p2"],
        })
        parsed = parse_net(text)
        report = validate(parsed.net)
        assert not report.ok
        assert report.nonbipartite_arcs == (("p1", "p2"),)

    def test_duplicate_arcs_recorded(self):
        text = json.dumps({
            "places": ["p"], "transitions": ["t"],
            "arcs": [["p", "t"], ["p", "t"], ["t", "p"]],
            "inputs": ["p"], "outputs": ["p"],
        })
        parsed = parse_net(text)
        assert parsed.duplicate_arcs == (("p", "t"),)
        report = validate(parsed.net, parsed.duplicate_arcs)
        assert report.ok
        assert any("duplicate" in line for line in report.lines())


class TestNativeErrors:
    def test_syntax_error_with_position(self):
        with pytest.raises(NetParseError, match=r"line 1, column"):
            parse_net("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(NetParseError, match="object"):
            parse_net("[1, 2]")

    def test_missing_key(self):
        with pytest.raises(NetParseError, match="missing key 'outputs'"):
            parse_net('{"places": [], "transitions": [], "arcs": [], "inputs": []}')

    def test_unknown_key(self):
        text = json.dumps({
            "places": ["p"], "transitions": [], "arcs": [], "inputs": ["p"],
            "outputs": ["p"], "colour": "red",
        })
        with pytest.raises(NetParseError, match="unknown key 'colour'"):
            parse_net(text)

    def test_bad_id(self):
        text = json.dumps({
            "places": ["p 1"], "transitions": [], "arcs": [],
            "inputs": ["p 1"], "outputs": ["p 1"],
        })
        with pytest.raises(NetParseError, match="bad id"):
            parse_net(text)

    def test_duplicate_id_within_kind(self):
        text = json.dumps({
            "places": ["p", "p"], "transitions": [], "arcs": [],
            "inputs": ["p"], "outputs": ["p"],
        })
        with pytest.raises(NetParseError, match="duplicate id"):
            parse_net(text)

    def test_duplicate_id_across_kinds(self):
        text = json.dumps({
            "places": ["x"], "transitions": ["x"], "arcs": [],
            "inputs": ["x"], "outputs": ["x"],
        })
        with pytest.raises(NetParseError, match="duplicate id"):
            parse_net(text)

    def test_dangling_arc_reference(self):
        text = json.dumps({
            "places": ["p"], "transitions": ["t"], "arcs": [["p", "ghost"]],
            "inputs": ["p"], "outputs": ["p"],
        })
        with pytest.raises(NetParseError, match="undeclared id 'ghost'"):
            parse_net(text)

    def test_malformed_arc_entry(self):
        text = json.dumps({
            "places": ["p"], "transitions": [], "arcs": [["p"]],
            "inputs": ["p"], "outputs": ["p"],
        })
        with pytest.raises(NetParseError, match="source, target"):
            parse_net(text)

    def test_name_must_be_string(self):
        text = json.dumps({
            "places": ["p"], "transitions": [], "arcs": [],
            "inputs": ["p"], "outputs": ["p"], "name": 7,
        })
        with pytest.raises(NetParseError, match="name"):
            parse_net(text)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_net("{}", format="yaml")


PNML = """<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="demo" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="page0">
      <place id="p1"><name><text>start</text></name></place>
      <place id="p2"><graphics/></place>
      <transition id="t1"/>
      <arc id="a1" source="p1" target="t1"/>
      <arc id="a2" source="t1" target="p2"/>
    </page>
  </net>
</pnml>
"""


class TestPnml:
    def test_core_import(self):
        parsed = parse_net(PNML, format="pnml")
        assert parsed.net.places == {"p1", "p2"}
        assert parsed.net.transitions == {"t1"}
        assert parsed.net.arcs == {("p1", "t1"), ("t1", "p2")}
        assert parsed.net.name == "demo"
        assert validate(parsed.net).ok

    def test_interface_defaults_to_sources_and_sinks(self):
        parsed = parse_net(PNML, format="pnml")
        assert parsed.net.inputs == {"p1"}
        assert parsed.net.outputs == {"p2"}

    def test_ignored_elements_warn(self):
        parsed = parse_net(PNML, format="pnml")
        assert any("<name>" in w for w in parsed.warnings)
        assert any("<graphics>" in w for w in parsed.warnings)

    def test_toolspecific_interface_override(self):
        text = PNML.replace(
            "</page>",
            '<toolspecific tool="wfnet" version="1.0">'
            "<inputs>p1</inputs><outputs>p1 p2</outputs>"
            "</toolspecific></page>",
        )
        parsed = parse_net(text, format="pnml")
        assert parsed.net.inputs == {"p1"}
        assert parsed.net.outputs == {"p1", "p2"}

    def test_sniff(self):
        assert sniff_format(PNML) == "pnml"
        assert sniff_format('{"places": []}') == "native"

    def test_malformed_xml(self):
        with pytest.raises(NetParseError, match="line"):
            parse_net("<pnml><net></pnml>", format="pnml")

    def test_no_net_element(self):
        with pytest.raises(NetParseError, match="no net element"):
            parse_net("<pnml/>", format="pnml")

    def test_duplicate_id(self):
        text = PNML.replace('<transition id="t1"/>', '<transition id="p1"/>')
        with pytest.raises(NetParseError, match="duplicate id"):
            parse_net(text, format="pnml")

    def test_duplicate_id_across_nested_pages(self):
        # In document order the second `b` is the first duplicate; reading a
        # page's own nodes before its subpages would meet the second `a` first.
        text = (
            '<pnml><net id="n"><page id="outer"><page id="inner">'
            '<place id="a"/><place id="b"/></page></page>'
            '<place id="b"/><place id="a"/></net></pnml>'
        )
        with pytest.raises(NetParseError, match="duplicate id 'b'"):
            parse_net(text, format="pnml")

    def test_missing_id(self):
        text = PNML.replace('<transition id="t1"/>', "<transition/>")
        with pytest.raises(NetParseError, match="without id"):
            parse_net(text, format="pnml")

    def test_dangling_arc(self):
        text = PNML.replace('target="t1"', 'target="t9"')
        with pytest.raises(NetParseError, match="undeclared"):
            parse_net(text, format="pnml")

    def test_weighted_arc_rejected(self):
        text = PNML.replace(
            '<arc id="a1" source="p1" target="t1"/>',
            '<arc id="a1" source="p1" target="t1">'
            "<inscription><text>2</text></inscription></arc>",
        )
        with pytest.raises(NetParseError, match="weight 2"):
            parse_net(text, format="pnml")

    def test_unit_weight_accepted(self):
        text = PNML.replace(
            '<arc id="a1" source="p1" target="t1"/>',
            '<arc id="a1" source="p1" target="t1">'
            "<inscription><text>1</text></inscription></arc>",
        )
        parsed = parse_net(text, format="pnml")
        assert ("p1", "t1") in parsed.net.arcs

    def test_duplicate_arcs_deduplicated(self):
        text = PNML.replace(
            '<arc id="a2" source="t1" target="p2"/>',
            '<arc id="a2" source="t1" target="p2"/><arc id="a3" source="t1" target="p2"/>',
        )
        parsed = parse_net(text, format="pnml")
        assert parsed.duplicate_arcs == (("t1", "p2"),)


class TestDotExport:
    def test_pand_shape_counts(self, pand):
        dot = export_dot(pand)
        lines = dot.splitlines()
        assert sum("shape=circle" in line for line in lines) == 8
        assert sum("shape=box" in line for line in lines) == 3
        assert sum("->" in line for line in lines) == 16  # 10 arcs + 6 stubs

    def test_one_node_net(self):
        dot = export_dot(MINIMAL)
        lines = dot.splitlines()
        assert sum("shape=circle" in line for line in lines) == 1
        assert sum("->" in line for line in lines) == 2

    def test_deterministic(self, nested):
        assert export_dot(nested) == export_dot(nested)

    def test_stub_edges_touch_interface(self, pand):
        dot = export_dot(pand)
        assert '"__in__p1" -> "p1";' in dot
        assert '"p6" -> "__out__p6";' in dot


class TestForestFiles:
    def test_round_trip(self, nested):
        forest = reduce_net(nested).forest
        text = serialize_forest(forest)
        assert parse_forest(text) == tuple(forest)
        assert serialize_forest(parse_forest(text)) == text

    def test_reduce_tree_of_pand_has_eleven_leaves(self, pand):
        forest = reduce_net(pand).forest
        data = json.loads(serialize_forest(forest))
        assert len(data) == 1

        def count_leaves(entry):
            if not entry["children"]:
                return 1
            return sum(count_leaves(child) for child in entry["children"])

        assert count_leaves(data[0]) == 11

    def test_leaf_entries_have_no_classes(self, pand):
        data = json.loads(serialize_forest(reduce_net(pand).forest))

        def walk(entry):
            if entry["children"]:
                assert entry["classes"]
                for child in entry["children"]:
                    walk(child)
            else:
                assert entry["classes"] == []

        walk(data[0])

    def test_parse_rejects_classes_on_leaves(self):
        text = json.dumps([{"node": "p", "classes": ["pAND"], "children": []}])
        with pytest.raises(NetParseError):
            parse_forest(text)

    def test_parse_rejects_wrong_shape(self):
        with pytest.raises(NetParseError):
            parse_forest(json.dumps([{"node": "p"}]))
        with pytest.raises(NetParseError):
            parse_forest(json.dumps({"node": "p"}))

    def test_forest_dot_mentions_classes(self, nested):
        result = reduce_net(nested)
        dot = export_forest_dot(result.forest)
        assert "digraph refinement" in dot
        assert "pAND" in dot or "tOR" in dot or "11" in dot


class TestForestClassTypes:
    @pytest.mark.parametrize("classes", [[1], [[1]]])
    def test_non_string_classes_are_parse_errors(self, classes):
        leaf = {"node": "b", "classes": [], "children": []}
        text = json.dumps([{"node": "a", "classes": classes, "children": [leaf]}])
        with pytest.raises(NetParseError):
            parse_forest(text)


class TestForestIds:
    """Tree files are outside input: ids and classes must be ones a net can have."""

    @staticmethod
    def forest(node="a", classes=("pAND",), leaves=("b",)):
        children = [{"node": n, "classes": [], "children": []} for n in leaves]
        return json.dumps([{"node": node, "classes": list(classes), "children": children}])

    @pytest.mark.parametrize("node", ['a" ]; x [label="pwn', "", "a b", "a\n"])
    def test_bad_internal_id(self, node):
        with pytest.raises(NetParseError, match="bad id"):
            parse_forest(self.forest(node=node))

    def test_bad_leaf_id(self):
        with pytest.raises(NetParseError, match="bad id"):
            parse_forest(self.forest(leaves=("b", 'c"')))

    @pytest.mark.parametrize("cls", ['pAND"]; y [', 'pAND\\"]; y [', "AND", "pand"])
    def test_unknown_class(self, cls):
        with pytest.raises(NetParseError, match="unknown class"):
            parse_forest(self.forest(classes=("pAND", cls)))

    @pytest.mark.parametrize("text", [
        '[{"node": "a", "classes": ["pAND"], "children": ['
        '{"node": "b", "classes": [], "children": []}, {"node": "b", "classes": [], "children": []}]}]',
        '[{"node": "a", "classes": ["pAND"], "children": [{"node": "a", "classes": [], "children": []}]}]',
        '[{"node": "a", "classes": [], "children": []}, {"node": "a", "classes": [], "children": []}]',
    ])
    def test_repeated_id(self, text):
        with pytest.raises(NetParseError, match="duplicate id"):
            parse_forest(text)

    def test_every_basic_class_is_accepted(self):
        classes = ("pAND", "11tAND", "11pOR", "tOR")
        (tree,) = parse_forest(self.forest(classes=classes))
        assert tree.classes == frozenset(classes)

    def test_syntax_error_message_matches_net_files(self):
        with pytest.raises(NetParseError, match=r"^syntax error at line 1, column 2: "):
            parse_forest("[")
        with pytest.raises(NetParseError, match=r"^syntax error at line 1, column 2: "):
            parse_net("{")


class TestForestDot:
    # SHA-256 of export_forest_dot over reduce_net's forest of each fixture.
    FIXTURE_DIGESTS = {
        "nested": "e6c2aed8fd12cf75de950e892c58af57ae35302d1a99a49ab0e03a973ea0bc0a",
        "pand": "a741c4dfea5044a4b5e1cd14253706d138fc94b8c25cd12da48f461373ad910e",
        "por11": "b6afd594bd056ac3fed9e1ef9a3961868a00674ae709d106804a0e1e9bc03b2b",
        "por_wide": "033c854739d03ebaef281361d3fc08f3d8a9db734401b22459d669ebba4fa18d",
        "tand11": "3a5b1a472365341f822fb8c38c401e9f0382b59f2641e761a415b89271fe63ee",
        "tand_wide": "2ad2f61165964b6b63aa134530dac99173126d8d5399e8d6c6c5069149762d6d",
        "tor": "9db1d116e920f606f55fc5bd03ebc92f669f810555b564bd3a4154800c8c8692",
    }

    @pytest.mark.parametrize("stem", sorted(NETS))
    def test_fixture_bytes_are_pinned(self, stem, all_fixture_nets):
        dot = export_forest_dot(reduce_net(all_fixture_nets[stem]).forest)
        assert hashlib.sha256(dot.encode("utf-8")).hexdigest() == self.FIXTURE_DIGESTS[stem]

    def test_5000_levels(self):
        # Each level puts one leaf beside the tree below it.
        levels = 5000
        tree = Leaf("n0")
        for level in range(1, levels):
            tree = Internal(node=f"x{level}", classes=frozenset({"pAND"}),
                            children=(tree, Leaf(f"n{level}")))
        top = levels - 1
        nodes = [f'  "x{i}" [shape=ellipse, label="x{i}\\n{{pAND}}"];' for i in range(top, 0, -1)]
        nodes += [f'  "n{i}" [shape=none];' for i in range(levels)]
        edges = [f'  "x{i}" -> "x{i - 1}";' for i in range(top, 1, -1)]
        edges += ['  "x1" -> "n0";'] + [f'  "x{max(i, 1)}" -> "n{i}";' for i in range(1, levels)]
        expected = ["digraph refinement {", "  rankdir=TB;", *nodes, *edges, "}"]
        assert export_forest_dot((tree,)) == "\n".join(expected) + "\n"
