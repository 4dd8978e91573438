"""Reading and writing nets and refinement trees.

The native format is a flat JSON document with the five net components
(places, transitions, arcs, inputs, outputs) plus an optional name.
Serialization is canonical: UTF-8, sorted keys, sorted entries, two-space
indent, trailing newline.  Parsing accepts any entry order and reduces to
that canonical form on the next write.

PNML import covers the core structure only: place/transition/arc elements,
nested pages, and an optional tool-specific annotation naming the interface
sets.  Without the annotation, sourceless places become inputs and sinkless
places become outputs.  Everything else is skipped with a warning.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .classes import BASIC_CLASS_NAMES
from .nets import ID_PATTERN, Arc, Net, NodeId
from .reduction import RefinementTree, _walk, tree_from_preorder


class NetParseError(ValueError):
    """Raised when a net document cannot be understood."""


@dataclass(frozen=True)
class ParsedNet:
    """A parsed net plus anything worth telling the user about the source."""

    net: Net
    duplicate_arcs: tuple[Arc, ...] = ()
    warnings: tuple[str, ...] = ()


def serialize_net(net: Net) -> str:
    doc: dict[str, object] = {
        "arcs": [list(arc) for arc in sorted(net.arcs)],
        "inputs": sorted(net.inputs),
        "outputs": sorted(net.outputs),
        "places": sorted(net.places),
        "transitions": sorted(net.transitions),
    }
    if net.name is not None:
        doc["name"] = net.name
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def parse_net(text: str, format: str = "native") -> ParsedNet:
    if format == "native":
        return _parse_native(text)
    if format == "pnml":
        return _parse_pnml(text)
    raise ValueError(f"unknown format {format!r}")


def sniff_format(text: str) -> str:
    """Native documents start with a brace, PNML with an XML tag."""
    return "pnml" if text.lstrip()[:1] == "<" else "native"


_REQUIRED_KEYS = ("places", "transitions", "arcs", "inputs", "outputs")


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise NetParseError("nested too deeply to parse") from exc


def _parse_native(text: str) -> ParsedNet:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise NetParseError("top level must be an object")
    unknown = set(data) - set(_REQUIRED_KEYS) - {"name"}
    if unknown:
        raise NetParseError(f"unknown key {min(unknown)!r}")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise NetParseError(f"missing key {missing[0]!r}")

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise NetParseError("name must be a string")

    ids: dict[str, list[NodeId]] = {}
    for key in ("places", "transitions", "inputs", "outputs"):
        entries = data[key]
        if not isinstance(entries, list) or not all(isinstance(x, str) for x in entries):
            raise NetParseError(f"{key} must be a list of ids")
        for x in entries:
            if not ID_PATTERN.match(x):
                raise NetParseError(f"bad id {x!r} in {key}")
        ids[key] = entries
    for key in ("places", "transitions"):
        seen: set[NodeId] = set()
        for x in ids[key]:
            if x in seen:
                raise NetParseError(f"duplicate id {x!r} in {key}")
            seen.add(x)
    clashes = set(ids["places"]) & set(ids["transitions"])
    if clashes:
        raise NetParseError(f"duplicate id {min(clashes)!r} in places and transitions")

    declared = set(ids["places"]) | set(ids["transitions"])
    raw_arcs = data["arcs"]
    if not isinstance(raw_arcs, list):
        raise NetParseError("arcs must be a list of [source, target] pairs")
    # A generator, so shape and id errors still surface in entry order.
    arcs, duplicates = _collect_arcs((_native_arc(entry) for entry in raw_arcs), declared)

    net = Net.of(
        places=ids["places"],
        transitions=ids["transitions"],
        arcs=arcs,
        inputs=ids["inputs"],
        outputs=ids["outputs"],
        name=name,
    )
    return ParsedNet(net=net, duplicate_arcs=tuple(sorted(set(duplicates))))


def _native_arc(entry: object) -> Arc:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(x, str) for x in entry)
    ):
        raise NetParseError("arcs must be a list of [source, target] pairs")
    return (entry[0], entry[1])


def _collect_arcs(pairs: Iterable[Arc], declared: set[NodeId]) -> tuple[list[Arc], list[Arc]]:
    """Arcs in first-seen order and their repeats, refusing undeclared ends."""
    arcs: list[Arc] = []
    duplicates: list[Arc] = []
    seen: set[Arc] = set()
    for arc in pairs:
        for endpoint in arc:
            if endpoint not in declared:
                raise NetParseError(f"arc references undeclared id {endpoint!r}")
        if arc in seen:
            duplicates.append(arc)
            continue
        seen.add(arc)
        arcs.append(arc)
    return arcs, duplicates


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


_PNML_STRUCTURE = {"pnml", "net", "page", "place", "transition", "arc", "toolspecific"}


def _parse_pnml(text: str) -> ParsedNet:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise NetParseError(f"syntax error at line {line}, column {column}: malformed XML") from exc

    nets = [el for el in root.iter() if _local(el.tag) == "net"]
    if not nets:
        raise NetParseError("no net element found")
    warnings: list[str] = []
    if len(nets) > 1:
        warnings.append(f"ignored {len(nets) - 1} additional net element(s)")
    net_el = nets[0]

    places: list[NodeId] = []
    transitions: list[NodeId] = []
    declared: set[NodeId] = set()
    annotated_inputs: list[NodeId] | None = None
    annotated_outputs: list[NodeId] | None = None
    ignored: set[str] = set()

    def require_id(el: ET.Element) -> NodeId:
        node_id = el.get("id")
        if node_id is None:
            raise NetParseError(f"{_local(el.tag)} element without id")
        if not ID_PATTERN.match(node_id):
            raise NetParseError(f"bad id {node_id!r}")
        if node_id in declared:
            raise NetParseError(f"duplicate id {node_id!r}")
        declared.add(node_id)
        return node_id

    pending_arcs: list[tuple[NodeId, NodeId]] = []

    # Pages nest to any depth: walk them with a stack of child iterators,
    # in document order.
    stack = [iter(net_el)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        tag = _local(child.tag)
        if tag == "page":
            stack.append(iter(child))
        elif tag == "place":
            places.append(require_id(child))
            _scan_node_extras(child, ignored)
        elif tag == "transition":
            transitions.append(require_id(child))
            _scan_node_extras(child, ignored)
        elif tag == "arc":
            source = child.get("source")
            target = child.get("target")
            if source is None or target is None:
                raise NetParseError("arc element without source/target")
            _check_arc_inscription(child, ignored)
            pending_arcs.append((source, target))
        elif tag == "toolspecific" and child.get("tool") == "wfnet":
            for sub in child:
                sub_tag = _local(sub.tag)
                entries = (sub.text or "").split()
                if sub_tag == "inputs":
                    annotated_inputs = entries
                elif sub_tag == "outputs":
                    annotated_outputs = entries
                else:
                    ignored.add(sub_tag)
        else:
            ignored.add(tag)

    arcs, duplicates = _collect_arcs(pending_arcs, declared)

    if annotated_inputs is not None or annotated_outputs is not None:
        inputs = annotated_inputs or []
        outputs = annotated_outputs or []
    else:
        with_pre = {target for _, target in arcs}
        with_post = {source for source, _ in arcs}
        inputs = [p for p in places if p not in with_pre]
        outputs = [p for p in places if p not in with_post]

    for tag in sorted(ignored):
        warnings.append(f"ignored PNML element <{tag}>")

    net = Net.of(
        places=places,
        transitions=transitions,
        arcs=arcs,
        inputs=inputs,
        outputs=outputs,
        name=net_el.get("id"),
    )
    return ParsedNet(
        net=net,
        duplicate_arcs=tuple(sorted(set(duplicates))),
        warnings=tuple(warnings),
    )


def _scan_node_extras(el: ET.Element, ignored: set[str]) -> None:
    for child in el:
        tag = _local(child.tag)
        if tag == "toolspecific" and child.get("tool") == "wfnet":
            continue
        ignored.add(tag)


def _check_arc_inscription(el: ET.Element, ignored: set[str]) -> None:
    for child in el:
        tag = _local(child.tag)
        if tag != "inscription":
            ignored.add(tag)
            continue
        texts = [t for t in child.iter() if _local(t.tag) == "text"]
        weight = texts[0].text if texts and texts[0].text else None
        if weight is None:
            ignored.add(tag)
            continue
        try:
            value = int(weight.strip())
        except ValueError:
            ignored.add(tag)
            continue
        if value != 1:
            raise NetParseError(f"arc weight {value} is not supported")


def export_dot(net: Net) -> str:
    """Graphviz rendering: circles for places, boxes for transitions.

    Interface membership is drawn the way the diagrams do it: a dangling
    arrow into each input node and out of each output node, realized with
    invisible helper nodes.
    """
    lines = ["digraph wfnet {", "  rankdir=LR;"]
    for p in sorted(net.places):
        lines.append(f'  "{p}" [shape=circle];')
    for t in sorted(net.transitions):
        lines.append(f'  "{t}" [shape=box];')
    for n in sorted(net.inputs):
        lines.append(f'  "__in__{n}" [shape=none, label="", width=0, height=0];')
    for n in sorted(net.outputs):
        lines.append(f'  "__out__{n}" [shape=none, label="", width=0, height=0];')
    for source, target in sorted(net.arcs):
        lines.append(f'  "{source}" -> "{target}";')
    for n in sorted(net.inputs):
        lines.append(f'  "__in__{n}" -> "{n}";')
    for n in sorted(net.outputs):
        lines.append(f'  "{n}" -> "__out__{n}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_forest(forest: tuple[RefinementTree, ...]) -> str:
    """The forest as a JSON list of {node, classes, children} objects.

    The bytes are those of `json.dumps(..., indent=2, sort_keys=True)`,
    written from one stack of pending text and (tree, indent) pairs so that
    any depth is written; the size grows with the square of the depth.
    """
    chunks: list[str] = []
    todo: list[str | tuple[RefinementTree, str]] = ["\n"]
    _push_list(todo, sorted(forest, key=lambda t: t.first_leaf), "")
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            chunks.append(item)
            continue
        tree, pad = item
        inner = pad + "  "
        classes = f",\n{inner}  ".join(map(encode_basestring_ascii, sorted(tree.classes)))
        classes = f"[\n{inner}  {classes}\n{inner}]" if classes else "[]"
        node = encode_basestring_ascii(tree.node)
        todo.append(f',\n{inner}"classes": {classes},\n{inner}"node": {node}\n{pad}}}')
        _push_list(todo, tree.children, inner)
        todo.append(f'{{\n{inner}"children": ')
    return "".join(chunks)


def _push_list(todo: list, trees: Sequence[RefinementTree], pad: str) -> None:
    """Push `trees` as a JSON list closed at indent `pad`; what is pushed last is written first."""
    if not trees:
        todo.append("[]")
        return
    inner = pad + "  "
    todo.append(f"\n{pad}]")
    for k in range(len(trees) - 1, -1, -1):
        todo.append((trees[k], inner))
        todo.append(f",\n{inner}" if k else f"[\n{inner}")


# One JSON token after optional whitespace: a structural character or quote,
# or a run of anything else, which must be a whole scalar.
_JSON_TOKEN = re.compile(r'[ \t\n\r]*([][{}:,"]|[^][{}:," \t\n\r]+)')


def _decode_json(text: str) -> object:
    """What `json.loads(text)` returns, read without recursion.

    Raises ValueError wherever `json.loads` raises, though not with its
    message.  Open containers are kept on a list; strings are decoded by
    `json.decoder.scanstring` and bare scalars by `json.loads`, so only the
    nesting is read here.
    """
    stack: list[list | dict] = []
    keys: list[str] = []  # the key each open object is reading a value for
    pos = 0

    def token() -> str:
        nonlocal pos
        m = _JSON_TOKEN.match(text, pos)
        if m is None:
            raise ValueError("unexpected end of document")
        pos = m.end()
        return m.group(1)

    def key() -> None:
        nonlocal pos
        if token() != '"':
            raise ValueError("expected a key")
        name, pos = scanstring(text, pos)
        keys.append(name)
        if token() != ":":
            raise ValueError("expected ':'")

    while True:
        tok = token()
        if tok == "[" or tok == "{":
            close = _JSON_TOKEN.match(text, pos)
            if close is not None and close.group(1) == ("]" if tok == "[" else "}"):
                pos = close.end()
                value: object = [] if tok == "[" else {}
            else:
                stack.append([] if tok == "[" else {})
                if tok == "{":
                    key()
                continue
        elif tok == '"':
            value, pos = scanstring(text, pos)
        elif tok in "]}:,":
            raise ValueError(f"unexpected {tok!r}")
        else:
            value = json.loads(tok)
        # Store the value, and close every container that ends after it.
        while stack:
            top = stack[-1]
            if isinstance(top, list):
                top.append(value)
            else:
                top[keys.pop()] = value
            tok = token()
            if tok == ",":
                if isinstance(top, dict):
                    key()
                break
            if tok != ("]" if isinstance(top, list) else "}"):
                raise ValueError(f"unexpected {tok!r}")
            value = stack.pop()
        if not stack:
            if _JSON_TOKEN.match(text, pos) is not None:
                raise ValueError("extra data")
            return value


def _load_forest_json(text: str) -> object:
    """The decoded tree file, with the messages `_load_json` gives a net file.

    Only a file nested too deeply for `json.loads` goes on to `_decode_json`;
    what that refuses is reported as nested too deeply to parse.
    """
    try:
        return _load_json(text)
    except NetParseError as exc:
        if not isinstance(exc.__cause__, RecursionError):
            raise
        too_deep = exc
    try:
        return _decode_json(text)
    except ValueError:
        raise too_deep


def _tree_from_data(entries: list) -> tuple[RefinementTree, ...]:
    """The trees of a decoded forest, checked with a stack and built by
    `tree_from_preorder`.

    Each tree's entries are checked in preorder, a node before its
    children, so the first bad entry in document order is the one reported.
    """
    seen: set[NodeId] = set()
    trees: list[RefinementTree] = []
    for root in entries:
        preorder: list[tuple[NodeId, frozenset[str], int]] = []
        todo = [root]
        while todo:
            data = todo.pop()
            if not isinstance(data, dict) or set(data) != {"node", "classes", "children"}:
                raise NetParseError("tree entries must be {node, classes, children} objects")
            node = data["node"]
            classes = data["classes"]
            children = data["children"]
            if not isinstance(node, str) or not isinstance(classes, list) or not isinstance(children, list):
                raise NetParseError("malformed tree entry")
            if not ID_PATTERN.match(node):
                raise NetParseError(f"bad id {node!r} in tree")
            if node in seen:
                raise NetParseError(f"duplicate id {node!r} in tree")
            seen.add(node)
            if classes and not children:
                raise NetParseError("leaf entries cannot carry classes")
            if not all(isinstance(c, str) for c in classes):
                raise NetParseError("tree classes must be strings")
            unknown = sorted(set(classes) - set(BASIC_CLASS_NAMES))
            if unknown:
                raise NetParseError(f"unknown class {unknown[0]!r} in tree")
            preorder.append((node, frozenset(classes), len(children)))
            todo.extend(reversed(children))
        trees.append(tree_from_preorder(preorder))
    return tuple(trees)


def parse_forest(text: str) -> tuple[RefinementTree, ...]:
    """Read a refinement forest, refusing ids and classes a net cannot have.

    Node ids follow the net id syntax and occur once in the forest, and
    classes are basic class names, so nothing read here can break out of
    the quoting of `export_forest_dot`.  Any depth is read.
    """
    data = _load_forest_json(text)
    if not isinstance(data, list):
        raise NetParseError("top level must be a list of trees")
    return _tree_from_data(data)


def export_forest_dot(forest: tuple[RefinementTree, ...]) -> str:
    """The contraction history as a tree diagram, class sets on internal nodes.

    Nodes are listed in preorder, and the edge into a node when the node
    is visited.
    """
    lines = ["digraph refinement {", "  rankdir=TB;"]
    edges: list[str] = []
    for root in sorted(forest, key=lambda t: t.first_leaf):
        path: list[NodeId] = []  # the ids from the root down to the node's parent
        for tree, depth in _walk(root):
            del path[depth - 1:]
            if path:
                edges.append(f'  "{path[-1]}" -> "{tree.node}";')
            path.append(tree.node)
            if not tree.children:
                lines.append(f'  "{tree.node}" [shape=none];')
                continue
            label = f"{tree.node}\\n{{{', '.join(sorted(tree.classes))}}}"
            lines.append(f'  "{tree.node}" [shape=ellipse, label="{label}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
