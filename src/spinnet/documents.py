"""JSON documents for spin networks and holonomy assignments.

A network document is an object with three keys.  "segments" lists the
ambient segments as {id, source, target}; points are implied by segment
endpoints.  "edges" lists {id, word, source, target, twice_j}, where word
is a list of segment ids, a trailing "~" marking reversed traversal.
"intertwiners" maps each vertex to one of

    {"kind": "explicit", "components": ...}   nested lists, complex
                                              entries as [re, im] pairs
    {"kind": "basis", "index": k}             k-th orthonormal invariant
                                              basis element at that vertex
    {"kind": "epsilon"}                       canonical bivalent element:
                                              identity for an in/out pair,
                                              the signed pairing for a
                                              same-direction pair

An edge's twice_j is held to the ``Spin`` rule, at most
``rep_core.MAX_TWICE_J``, so a document with a larger one is refused at that
edge, before any vertex is parsed or built.

Vertex component axes follow the network slot order: scanning edges in
listed order, an edge contributes an "out" slot at its source, then an
"in" slot at its target.

A holonomy document is a flat object mapping segment ids to unit
quaternions [w, x, y, z]; entries are accepted when normalized to 1e-6
and renormalized exactly.

All parsing failures raise DocumentError carrying a location inside the
document and a reason.  Emission uses 17-significant-digit floats so that
documents round-trip bit-exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from itertools import chain

import numpy as np

from .rep_core import Spin, GroupElement, Intertwiner, epsilon, intertwiner_basis
from .network_model import (SegmentRegistry, Edge, SpinNetwork, InvalidNetworkError, _sort_key,
                            network, slot_order)
from .inner_product import HolonomyAssignment

__all__ = [
    "DocumentError",
    "read_document",
    "network_from_document",
    "network_to_document",
    "holonomies_from_document",
    "read_network",
    "read_holonomies",
    "dumps_document",
]


class DocumentError(ValueError):
    """A document failed to parse, with the offending location."""

    def __init__(self, location: str, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")


def read_document(path):
    """Load a JSON file, turning IO and syntax failures into DocumentError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(str(path), exc.strerror or str(exc)) from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder refuses nesting deeper than the recursion limit
        raise DocumentError(str(path), f"invalid JSON: {exc}") from exc


def _expect(doc, key, kind, loc):
    if not isinstance(doc, dict):
        raise DocumentError(loc, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise DocumentError(loc, f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise DocumentError(f"{loc}.{key}",
                            f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _is_real(v) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an int beyond
    the float range (the comparison is exact, so it cannot overflow)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _parse_word(refs, registry: SegmentRegistry, loc: str):
    if not isinstance(refs, list) or not refs:
        raise DocumentError(loc, "word must be a nonempty list of segment ids")
    steps = []
    for m, ref in enumerate(refs):
        if not isinstance(ref, str):
            raise DocumentError(f"{loc}[{m}]", f"segment ref must be a string, got {ref!r}")
        reverse = ref.endswith("~")
        sid = ref[:-1] if reverse else ref
        if sid not in registry:
            raise DocumentError(f"{loc}[{m}]", f"unknown segment {sid!r}")
        steps.append((sid, reverse))
    return tuple(steps)


def _parse_complex_array(node, dims, loc: str) -> np.ndarray:
    """Nested lists of [re, im] pairs as a complex array of shape ``dims``.

    A well-formed array is checked level by level and converted in one
    numpy call; anything else, a number that is not a finite float included,
    is walked pair by pair, which locates the first offending entry.
    """
    dims = tuple(dims)
    flat = [node]
    for d in dims + (2,):
        if set(map(type, flat)) != {list} or set(map(len, flat)) != {d}:
            break
        flat = list(chain.from_iterable(flat))
    else:
        # exact types: a float conversion would silently accept bool
        if {type(v) for v in flat} <= {int, float}:
            with contextlib.suppress(OverflowError):  # an int beyond the float range
                arr = np.array(flat, dtype=float)
                if np.isfinite(arr).all():
                    return arr.view(complex).reshape(dims)

    def rec(n, d, where):
        if not d:
            ok = isinstance(n, list) and len(n) == 2 and all(map(_is_real, n))
            if not ok:
                raise DocumentError(where, f"expected a [re, im] pair, got {n!r}")
            return complex(n[0], n[1])
        if not isinstance(n, list) or len(n) != d[0]:
            raise DocumentError(where, f"expected a list of length {d[0]}")
        return [rec(v, d[1:], f"{where}[{k}]") for k, v in enumerate(n)]
    return np.array(rec(node, dims, loc), dtype=complex).reshape(dims)


def _bivalent_element(legs, loc: str) -> np.ndarray:
    (s1, d1), (s2, d2) = legs
    if s1 != s2:
        raise DocumentError(loc, "an epsilon intertwiner needs equal spins on both legs")
    if d1 != d2:
        return np.eye(s1.dim, dtype=complex)
    return epsilon(s1)


def network_from_document(doc) -> SpinNetwork:
    """Build a validated SpinNetwork from a parsed network document."""
    seg_list = _expect(doc, "segments", list, "document")
    edge_list = _expect(doc, "edges", list, "document")
    iw_map = _expect(doc, "intertwiners", dict, "document")

    registry = SegmentRegistry()
    for k, seg in enumerate(seg_list):
        loc = f"segments[{k}]"
        sid = _expect(seg, "id", str, loc)
        src = _expect(seg, "source", str, loc)
        tgt = _expect(seg, "target", str, loc)
        try:
            registry.add_segment(sid, src, tgt)
        except InvalidNetworkError as exc:
            raise DocumentError(loc, str(exc)) from exc

    edges = []
    for k, ed in enumerate(edge_list):
        loc = f"edges[{k}]"
        eid = _expect(ed, "id", str, loc)
        src = _expect(ed, "source", str, loc)
        tgt = _expect(ed, "target", str, loc)
        tj = _expect(ed, "twice_j", int, loc)
        if isinstance(tj, bool) or tj < 1:
            raise DocumentError(f"{loc}.twice_j",
                                f"edge {eid!r} needs a positive integer twice_j, got {tj!r}")
        word = _parse_word(_expect(ed, "word", list, loc), registry, f"{loc}.word")
        try:
            edges.append(Edge(eid, word, src, tgt, Spin(tj)))
        except (ValueError, InvalidNetworkError) as exc:
            raise DocumentError(loc, str(exc)) from exc

    vertices = {}
    for v, spec in iw_map.items():
        loc = f"intertwiners[{v!r}]"
        legs = tuple((e.spin, d) for e, d in slot_order(edges, v))
        if not legs:
            raise DocumentError(loc, "vertex is not an endpoint of any edge")
        kind = _expect(spec, "kind", str, loc)
        if kind == "explicit":
            dims = [s.dim for s, _ in legs]
            comps = _parse_complex_array(spec.get("components"), dims, f"{loc}.components")
        elif kind == "basis":
            index = _expect(spec, "index", int, loc)
            basis = intertwiner_basis(legs)
            if isinstance(index, bool) or not 0 <= index < len(basis):
                raise DocumentError(f"{loc}.index",
                                    f"vertex has {len(basis)} basis elements, got index {index!r}")
            comps = basis[index].components
        elif kind == "epsilon":
            if len(legs) != 2:
                raise DocumentError(loc, "epsilon kind requires a bivalent vertex")
            comps = _bivalent_element(legs, loc)
        else:
            raise DocumentError(f"{loc}.kind", f"unknown intertwiner kind {kind!r}")
        try:
            vertices[v] = Intertwiner(legs, comps)
        except ValueError as exc:
            raise DocumentError(loc, str(exc)) from exc

    try:
        return network(registry, edges, vertices)
    except InvalidNetworkError as exc:
        raise DocumentError("document", str(exc)) from exc


def _complex_nested(arr: np.ndarray):
    """Nested lists of [re, im] pairs, the document form of a complex array."""
    return np.stack([arr.real, arr.imag], -1).tolist()


def network_to_document(n: SpinNetwork) -> dict:
    """Emit a network document (all intertwiners in explicit form)."""
    registry = n.graph.registry
    for sid in registry.segment_ids:
        if not isinstance(sid, str):
            raise ValueError(f"segment id {sid!r} is not a string; cannot serialize")
    segments = []
    for sid in sorted(registry.segment_ids, key=_sort_key):
        src, tgt = registry.endpoints(sid)
        segments.append({"id": sid, "source": str(src), "target": str(tgt)})
    edges = []
    for e in n.edges:
        if not isinstance(e.id, str):
            raise ValueError(f"edge id {e.id!r} is not a string; cannot serialize")
        word = [sid + "~" if rev else sid for sid, rev in e.word]
        edges.append({"id": e.id, "word": word, "source": str(e.source),
                      "target": str(e.target), "twice_j": e.spin.twice_j})
    intertwiners = {
        str(v): {"kind": "explicit", "components": _complex_nested(iv.components)}
        for v, iv in sorted(n.vertices.items(), key=lambda kv: _sort_key(kv[0]))
    }
    return {"segments": segments, "edges": edges, "intertwiners": intertwiners}


def holonomies_from_document(doc) -> HolonomyAssignment:
    """Parse a flat {segment: [w, x, y, z]} holonomy document."""
    if not isinstance(doc, dict):
        raise DocumentError("document", "holonomy document must be an object")
    out = {}
    for sid, quat in doc.items():
        loc = f"[{sid!r}]"
        ok = isinstance(quat, list) and len(quat) == 4 and all(map(_is_real, quat))
        if not ok:
            raise DocumentError(loc, f"expected [w, x, y, z], got {quat!r}")
        norm = float(np.linalg.norm(quat))
        if abs(norm - 1.0) > 1e-6:
            raise DocumentError(loc, f"quaternion norm {norm!r} is not 1 within 1e-6")
        out[sid] = GroupElement.from_array(quat, normalize=True)
    return HolonomyAssignment(out)


# ---------------------------------------------------------------------------
# serialization with pinned float precision

# "%.17g" round-trips, so it prints a value without a "." or an "e" exactly
# when the value is integral and below 1e17; those get ".0" appended so that
# they read back as floats.
_SPECS = ("%.17g", "%.17g.0")


def format_number(x) -> str:
    """17-significant-digit decimal form, always reading back as a float."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r} in document")
    return _SPECS[x.is_integer() and abs(x) < 1e17] % x


def _render_block(obj, indent: int, level: int):
    """Text of a rectangular nested list of finite floats, else None.

    None covers an empty or ragged level, a leaf that is not exactly a float
    (int, bool, float subclass, container) and a non-finite value; the
    element-by-element walk renders those, with its errors.  The shape is
    found and the leaves flattened by C-level walks.  Each outermost row is
    one % over a template that interleaves shared spec strings with the text
    between leaves, so no string is made per value, and the rows are joined
    once.
    """
    shape, leaves = [], [obj]
    while set(map(type, leaves)) == {list}:
        lens = set(map(len, leaves))
        if len(lens) != 1 or 0 in lens:
            return None
        shape.append(lens.pop())
        leaves = list(chain.from_iterable(leaves))
    if set(map(type, leaves)) != {float}:
        return None
    values = np.array(leaves)
    if not np.isfinite(values).all():
        return None
    integral = (values == np.floor(values)) & (np.abs(values) < 1e17)
    # reopen[j] goes between two leaves where the lists at depth j and deeper
    # (the block itself is depth 0) all close: it closes them, then opens
    # their successors
    k = len(shape) - 1
    pads = [" " * (indent * (level + j)) for j in range(k + 1)]
    opens = ["[\n" + pads[j + 1] for j in range(k)] + ["["]
    closes = ["\n" + pads[j] + "]" for j in range(k)] + ["]"]
    reopen = {j: "".join(closes[:j - 1:-1]) + ",\n" + pads[j] + "".join(opens[j:])
              for j in range(1, k + 1)}
    # one template per outermost row (the whole block when it is flat):
    # what precedes the row, then leaves and separators alternating, then
    # what follows it
    size = len(leaves) // shape[0] if k else len(leaves)
    frame = [", "] * (2 * size + 1)
    frame[0], frame[-1] = "".join(opens), ""
    for j in range(k, 1, -1):
        stride = math.prod(shape[j:])
        frame[2 * stride:-1:2 * stride] = [reopen[j]] * ((size - 1) // stride)
    rows = []
    for i in range(0, len(leaves), size):
        if i:
            frame[0] = reopen[1]
        if i + size == len(leaves):
            frame[-1] = "".join(reversed(closes))
        frame[1::2] = map(_SPECS.__getitem__, integral[i:i + size].tolist())
        rows.append("".join(frame) % tuple(leaves[i:i + size]))
    del leaves, values, frame  # not held while the rows are joined
    return "".join(rows)


def _render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        text = _render_block(obj, indent, level)
        if text is not None:
            return text
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_render(v, indent, 0) for v in obj) + "]"
        body = ",\n".join(inner + _render(v, indent, level + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError(f"document keys must be strings, got {k!r}")
            items.append(inner + json.dumps(k) + ": " + _render(v, indent, level + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__} in a document")


def dumps_document(obj, indent: int = 2) -> str:
    """Render a document as JSON text, scalar lists inline.

    A rectangular nested list of floats (intertwiner components, a projector,
    a Gram matrix) is rendered in one pass; the text is the same as the
    element-by-element walk's.
    """
    return _render(obj, indent, 0) + "\n"


def read_network(path) -> SpinNetwork:
    return network_from_document(read_document(path))


def read_holonomies(path) -> HolonomyAssignment:
    return holonomies_from_document(read_document(path))
