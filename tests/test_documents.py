"""JSON wire format: parsing with located errors, emission, round-trips."""

import json
import math
import re
import sys

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import (
    Spin,
    GroupElement,
    epsilon,
    evaluate,
    exact_inner_product,
    canonicalize,
    DocumentError,
    network_from_document,
    network_to_document,
    holonomies_from_document,
    read_network,
    read_holonomies,
    dumps_document,
    build_tassel,
)
from spinnet.documents import _complex_nested, read_document, format_number
from helpers import (MOTIF_NAMES, theta_network, naive_evaluate, random_holonomies, random_network,
                     walk_complex_nested, walk_dumps_document, walk_format_number)


def loop_doc(twice_j=1, kind=None):
    return {
        "segments": [{"id": "s1", "source": "P", "target": "P"}],
        "edges": [
            {"id": "loop", "word": ["s1"], "source": "P", "target": "P", "twice_j": twice_j}
        ],
        "intertwiners": {"P": kind or {"kind": "epsilon"}},
    }


def theta_doc():
    return {
        "segments": [
            {"id": "u1", "source": "X", "target": "Y"},
            {"id": "u2", "source": "X", "target": "Y"},
            {"id": "u3", "source": "X", "target": "Y"},
        ],
        "edges": [
            {"id": "e0", "word": ["u1"], "source": "X", "target": "Y", "twice_j": 1},
            {"id": "e1", "word": ["u2~"], "source": "Y", "target": "X", "twice_j": 1},
            {"id": "e2", "word": ["u3"], "source": "X", "target": "Y", "twice_j": 2},
        ],
        "intertwiners": {
            "X": {"kind": "basis", "index": 0},
            "Y": {"kind": "basis", "index": 0},
        },
    }


# ---------------------------------------------------------------------------
# parsing

def test_parse_loop_document():
    n = network_from_document(loop_doc(2))
    assert len(n.edges) == 1
    e = n.edges[0]
    assert e.word == (("s1", False),)
    assert e.spin == Spin(2)
    npt.assert_allclose(n.vertices["P"].components, np.eye(3), atol=1e-12)


def test_parse_word_reversal_marker():
    n = network_from_document(theta_doc())
    assert n.edges[1].word == (("u2", True),)
    assert (n.edges[1].source, n.edges[1].target) == ("Y", "X")


def test_epsilon_kind_identity_for_mixed_directions():
    """A loop edge gives the vertex one out and one in slot; the canonical
    bivalent element there is the identity matrix, so the state is the
    plain character (value 2j+1 at the identity)."""
    n = network_from_document(loop_doc(1))
    h = {"s1": GroupElement.identity()}
    npt.assert_allclose(evaluate(n, h), 2.0, atol=1e-12)


def test_epsilon_kind_pairing_for_same_direction():
    """Two edges leaving the same vertex give two out slots; the canonical
    element is then the signed pairing, not the identity."""
    doc = {
        "segments": [
            {"id": "g1", "source": "A", "target": "B"},
            {"id": "g2", "source": "A", "target": "B"},
        ],
        "edges": [
            {"id": "p", "word": ["g1"], "source": "A", "target": "B", "twice_j": 1},
            {"id": "q", "word": ["g2"], "source": "A", "target": "B", "twice_j": 1},
        ],
        "intertwiners": {"A": {"kind": "epsilon"}, "B": {"kind": "epsilon"}},
    }
    n = network_from_document(doc)
    npt.assert_allclose(n.vertices["A"].components, epsilon(Spin(1)), atol=1e-12)
    rng = np.random.default_rng(17)
    for _ in range(3):
        h = random_holonomies(rng, n)
        npt.assert_allclose(evaluate(n, h), naive_evaluate(n, h), atol=1e-12)
    # the two-gon with pairings at both ends carries unit norm like a loop
    npt.assert_allclose(exact_inner_product(n, n), 1.0 + 0j, atol=1e-12)
    c = canonicalize(n)
    assert len(c.edges) == 1


def test_basis_kind_matches_library_basis():
    n = network_from_document(theta_doc())
    th = theta_network((1, 1, 2))
    # same graph content; compare norms computed independently
    npt.assert_allclose(
        exact_inner_product(n, n), exact_inner_product(th, th), atol=1e-12
    )


def test_explicit_kind_complex_components():
    doc = loop_doc(1, kind={
        "kind": "explicit",
        "components": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]],
    })
    n = network_from_document(doc)
    npt.assert_allclose(
        n.vertices["P"].components, np.array([[1.0, 0.0], [0.0, 2.0j]]), atol=1e-12
    )


def _pairwise_walk(node):
    """The explicit components built one complex(re, im) at a time."""
    if isinstance(node[0], list):
        return [_pairwise_walk(v) for v in node]
    return complex(node[0], node[1])


def test_explicit_components_bit_identical_to_pairwise_walk():
    """Ints, signed zeros, extremes and a spin-5 vertex parse to the same
    bits as building each entry with complex(re, im)."""
    rng = np.random.default_rng(17)
    specials = [0, 3, -7, 0.0, -0.0, 1e308, -1e308, 5e-324, -2.5]
    comps = [[[specials[(r + c) % len(specials)], specials[(r * c) % len(specials)]]
              if (r + c) % 3 else [float(rng.standard_normal()), -0.0]
              for c in range(11)] for r in range(11)]
    n = network_from_document(loop_doc(10, kind={"kind": "explicit", "components": comps}))
    want = np.array(_pairwise_walk(comps), dtype=complex)
    got = n.vertices["P"].components
    assert got.shape == (11, 11)
    assert got.tobytes() == want.tobytes()
    assert math.copysign(1.0, got[0, 0].imag) == -1.0  # the -0.0 survives


# ---------------------------------------------------------------------------
# located parse errors

def err(doc):
    with pytest.raises(DocumentError) as info:
        network_from_document(doc)
    return info.value


def test_error_not_an_object():
    e = err([1, 2, 3])
    assert "document" in str(e)


def test_error_missing_key():
    e = err({"segments": []})
    assert "edges" in str(e)


def test_error_duplicate_segment():
    doc = loop_doc()
    doc["segments"].append({"id": "s1", "source": "P", "target": "P"})
    e = err(doc)
    assert "s1" in str(e)


def test_error_unknown_segment_in_word():
    doc = loop_doc()
    doc["edges"][0]["word"] = ["ghost"]
    e = err(doc)
    assert "ghost" in str(e) and "word" in e.location


def test_error_empty_word():
    doc = loop_doc()
    doc["edges"][0]["word"] = []
    e = err(doc)
    assert "word" in str(e)


def test_error_bad_twice_j():
    for bad in (0, -1, "two", 1.5, True):
        doc = loop_doc()
        doc["edges"][0]["twice_j"] = bad
        e = err(doc)
        assert "twice_j" in str(e), bad


def test_error_unknown_intertwiner_kind():
    doc = loop_doc(kind={"kind": "mystery"})
    e = err(doc)
    assert "mystery" in str(e) and "kind" in e.location


def test_error_basis_index_out_of_range():
    doc = theta_doc()
    doc["intertwiners"]["X"] = {"kind": "basis", "index": 5}
    e = err(doc)
    assert "index" in e.location


def test_error_explicit_wrong_shape():
    doc = loop_doc(kind={"kind": "explicit", "components": [[1.0, 0.0]]})
    e = err(doc)
    assert "components" in e.location


def test_error_explicit_bad_leaf():
    doc = loop_doc(kind={
        "kind": "explicit",
        "components": [[[1.0, 0.0], [0.0, "x"]], [[0.0, 0.0], [0.0, 0.0]]],
    })
    e = err(doc)
    assert "components" in e.location


ZERO_PAIR = [0.0, 0.0]

EXPLICIT_ERRORS = [
    ([[1.0, 0.0]], "intertwiners['P'].components: expected a list of length 2"),
    ([[[1.0, 0.0], [0.0, "x"]], [ZERO_PAIR, ZERO_PAIR]],
     "intertwiners['P'].components[0][1]: expected a [re, im] pair, got [0.0, 'x']"),
    ([[[1.0, 0.0], [0.0, True]], [ZERO_PAIR, ZERO_PAIR]],
     "intertwiners['P'].components[0][1]: expected a [re, im] pair, got [0.0, True]"),
    ([[ZERO_PAIR, ZERO_PAIR], [ZERO_PAIR, [False, 0.0]]],
     "intertwiners['P'].components[1][1]: expected a [re, im] pair, got [False, 0.0]"),
    ([[[1.0, 0.0], ZERO_PAIR], [ZERO_PAIR]],
     "intertwiners['P'].components[1]: expected a list of length 2"),
    ([[[1.0, 0.0, 0.0], ZERO_PAIR], [ZERO_PAIR, ZERO_PAIR]],
     "intertwiners['P'].components[0][0]: expected a [re, im] pair, got [1.0, 0.0, 0.0]"),
    ([[ZERO_PAIR, ZERO_PAIR], [ZERO_PAIR, [1.0]]],
     "intertwiners['P'].components[1][1]: expected a [re, im] pair, got [1.0]"),
    ([[ZERO_PAIR, ZERO_PAIR], [ZERO_PAIR, 1.0]],
     "intertwiners['P'].components[1][1]: expected a [re, im] pair, got 1.0"),
    ([[ZERO_PAIR, ZERO_PAIR], [ZERO_PAIR, None]],
     "intertwiners['P'].components[1][1]: expected a [re, im] pair, got None"),
    ([[ZERO_PAIR, ZERO_PAIR], (ZERO_PAIR, ZERO_PAIR)],
     "intertwiners['P'].components[1]: expected a list of length 2"),
    ([[ZERO_PAIR, ZERO_PAIR]] * 3, "intertwiners['P'].components: expected a list of length 2"),
    ("abc", "intertwiners['P'].components: expected a list of length 2"),
    (None, "intertwiners['P'].components: expected a list of length 2"),
    ([[ZERO_PAIR, ZERO_PAIR], [ZERO_PAIR, [float("nan"), 0.0]]],
     "intertwiners['P'].components[1][1]: expected a [re, im] pair, got [nan, 0.0]"),
    ([[[1.0, float("-inf")], ZERO_PAIR], [ZERO_PAIR, ZERO_PAIR]],
     "intertwiners['P'].components[0][0]: expected a [re, im] pair, got [1.0, -inf]"),
    pytest.param(
        [[ZERO_PAIR, [0.0, 10**400]], [ZERO_PAIR, ZERO_PAIR]],
        f"intertwiners['P'].components[0][1]: expected a [re, im] pair, got [0.0, {10**400}]",
        id="int-beyond-float"),
]


@pytest.mark.parametrize("components, message", EXPLICIT_ERRORS)
def test_explicit_component_errors_are_located(components, message):
    """Malformed components (a bool or str leaf, a ragged list, a pair of
    length 3, a tuple, a non-finite number) are refused with the first
    offending location."""
    e = err(loop_doc(1, kind={"kind": "explicit", "components": components}))
    assert str(e) == message


def test_error_epsilon_on_trivalent_vertex():
    doc = theta_doc()
    doc["intertwiners"]["X"] = {"kind": "epsilon"}
    e = err(doc)
    assert "bivalent" in str(e)


def test_built_vertex_over_the_spin_cap_is_refused(tmp_path):
    """An edge's twice_j is held to MAX_TWICE_J by ``Spin``, so a "basis" or
    "epsilon" vertex over the cap is never built: the refusal names the
    first edge, before any vertex is read.  That includes an epsilon between
    an "out" and an "in" slot (a loop's marker), an identity matrix of the
    spin's dimension."""
    same_direction = {
        "segments": [{"id": "g1", "source": "A", "target": "B"},
                     {"id": "g2", "source": "A", "target": "B"}],
        "edges": [{"id": e, "word": [g], "source": "A", "target": "B", "twice_j": 13}
                  for e, g in (("p", "g1"), ("q", "g2"))],
        "intertwiners": {"A": {"kind": "epsilon"}, "B": {"kind": "epsilon"}},
    }
    for doc in (loop_doc(13), loop_doc(13, {"kind": "basis", "index": 0}), same_direction):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DocumentError) as info:
            read_network(path)
        assert str(info.value) == ("edges[0]: twice_j=13 exceeds the "
                                   "configured cap MAX_TWICE_J=12")
    npt.assert_array_equal(network_from_document(loop_doc(12)).vertices["P"].components,
                           np.eye(13))


def test_error_invalid_network_is_wrapped():
    doc = loop_doc()
    doc["intertwiners"] = {}  # vertex P has no label
    with pytest.raises(DocumentError):
        network_from_document(doc)


def test_error_missing_file(tmp_path):
    with pytest.raises(DocumentError) as info:
        read_document(tmp_path / "absent.json")
    assert "absent.json" in str(info.value)


def test_error_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(DocumentError) as info:
        read_document(p)
    assert "broken.json" in str(info.value)


# ---------------------------------------------------------------------------
# holonomies

def test_holonomies_round_trip(tmp_path):
    """A literal document of exactly unit quaternions reads back as those
    components, from an object and from a file."""
    doc = {"s1": [1.0, 0.0, 0.0, 0.0], "s2": [0.5, 0.5, 0.5, 0.5]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    for h in (holonomies_from_document(doc), read_holonomies(path)):
        assert h["s1"].w == 1.0
        for sid, quat in doc.items():
            npt.assert_allclose(h[sid].as_array(), quat, atol=0.0)


def test_holonomies_tolerant_renormalization():
    """Eight-digit hand-rounded quaternions are accepted and renormalized."""
    h = holonomies_from_document({"s": [0.70710678, 0.70710678, 0.0, 0.0]})
    npt.assert_allclose(np.dot(h["s"].as_array(), h["s"].as_array()), 1.0, atol=1e-15)


def test_holonomies_reject_far_from_unit():
    with pytest.raises(DocumentError):
        holonomies_from_document({"s": [1.0, 1.0, 0.0, 0.0]})
    with pytest.raises(DocumentError):
        holonomies_from_document({"s": [2.0, 0.0, 0.0, 0.0]})
    with pytest.raises(DocumentError):
        holonomies_from_document({"s": [1.0, 0.0, 0.0]})
    for big in (float("nan"), float("inf"), 10**400):  # no norm comparison refuses a NaN
        with pytest.raises(DocumentError, match=r"expected \[w, x, y, z\]"):
            holonomies_from_document({"s": [big, 0.0, 0.0, 0.0]})


# ---------------------------------------------------------------------------
# emission and round-trips

def test_network_round_trip_loop_and_theta():
    for doc in (loop_doc(2), theta_doc()):
        n = network_from_document(doc)
        emitted = network_to_document(n)
        again = network_from_document(emitted)
        assert again == n
        # and the text form parses as plain JSON to the same document
        assert json.loads(dumps_document(emitted)) == emitted


def test_network_round_trip_web_state():
    n = build_tassel(2).network
    emitted = network_to_document(n)
    again = network_from_document(emitted)
    assert again == n
    npt.assert_allclose(
        exact_inner_product(again, n), exact_inner_product(n, n), atol=1e-12
    )


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(23)
    comps = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    doc = loop_doc(1, kind={"kind": "explicit", "components": [
        [[comps[0, 0].real, comps[0, 0].imag], [comps[0, 1].real, comps[0, 1].imag]],
        [[comps[1, 0].real, comps[1, 0].imag], [comps[1, 1].real, comps[1, 1].imag]],
    ]})
    n = network_from_document(doc)
    text = dumps_document(network_to_document(n))
    again = network_from_document(json.loads(text))
    assert np.array_equal(again.vertices["P"].components, n.vertices["P"].components)


def test_format_number():
    assert format_number(1.0) == "1.0"
    assert format_number(-3.0) == "-3.0"
    assert format_number(0.5) == "0.5"
    for x in (0.1, 1.0 / 3.0, 1e-17, 123456.789, -2.5e300):
        assert float(format_number(x)) == x
    with pytest.raises(ValueError):
        format_number(float("nan"))
    with pytest.raises(ValueError):
        format_number(float("inf"))


def test_dumps_document_layout():
    text = dumps_document({"b": [1, 2, 3], "a": {"nested": [1.5]}})
    assert json.loads(text) == {"b": [1, 2, 3], "a": {"nested": [1.5]}}
    # scalar lists are inlined on one line
    assert "[1, 2, 3]" in text


EDGE_FLOATS = [0.0, -0.0, 1e16, 1e17 - 16, 1e17, -1e17, 2.0**53 + 2, 5e-324,
               sys.float_info.max, -sys.float_info.max, 0.1, -2.5, 1e-5, 123456.789]


def test_format_number_matches_the_element_walk():
    rng = np.random.default_rng(41)
    draws = rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000)
    for x in EDGE_FLOATS + draws.tolist() + np.round(draws[:200]).tolist():
        assert format_number(x) == walk_format_number(x)


def _edge_documents(rng):
    blocks = [rng.standard_normal(shape).tolist()
              for shape in ((5,), (1,), (3, 2), (1, 1), (2, 3, 4), (2, 1, 3, 2))]
    blocks += [(rng.integers(-3, 3, shape) * 1.0).tolist() for shape in ((4,), (2, 2, 2))]
    return blocks + [
        EDGE_FLOATS, [EDGE_FLOATS, EDGE_FLOATS[::-1]], [[[-0.0, 0.0]], [[1e17, 5e-324]]],
        [], [[]], [[], []], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0]],
        [1, 2.0], [[1.0, 2.0], [3.0, 4]], [True, 1.0], [[False], [0.5]],
        [np.float64(1.5), 2.0], [[np.float64(0.25)], [0.5]], (1.0, 2.0), [(1.0, 2.0), (3.0, 4.0)],
        [[1.0, 2.0], "x"], ['say "hi"', "caf\u00e9 \u2192 \u03c8", ""], [None, True, 3],
        {"empty": {}, "nested": [{"m": [[0.5, -0.0], [2.0, 1e-300]]}, [1.5]]},
    ]


def test_dumps_document_matches_the_element_walk():
    rng = np.random.default_rng(43)
    docs = _edge_documents(rng)
    for motif in MOTIF_NAMES:
        docs.append(network_to_document(random_network(rng, motif, max_twice_j=3)))
    gram = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    docs.append({"size": 3, "matrix": _complex_nested(gram), "min_eigenvalue": -1e-17})
    for doc in docs:
        for wrapped in (doc, {"k": [doc, {"z": doc}]}):
            for indent in (0, 2, 4):
                assert dumps_document(wrapped, indent) == walk_dumps_document(wrapped, indent)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape,where", [((4,), (3,)), ((3, 2), (0, 1)), ((2, 3, 2), (1, 2, 0))])
def test_non_finite_in_a_block_raises_the_walk_error(bad, shape, where):
    arr = np.arange(float(np.prod(shape))).reshape(shape)
    arr[where] = bad
    doc = {"block": arr.tolist()}
    with pytest.raises(ValueError) as walk:
        walk_dumps_document(doc)
    with pytest.raises(ValueError, match=re.escape(str(walk.value))):
        dumps_document(doc)


def test_complex_nested_matches_the_element_walk():
    rng = np.random.default_rng(47)
    signed = np.array([[0.0 + 0.0j, complex(-0.0, -0.0)], [complex(0.0, -0.0), 1e17 - 0.5j]])
    for arr in (np.array(1 - 2j), np.array(complex(-0.0, 0.0)), signed,
                rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4)),
                rng.standard_normal((3, 3))):
        nested = _complex_nested(arr)
        assert dumps_document(nested) == walk_dumps_document(walk_complex_nested(arr))


def test_read_files(tmp_path):
    npath = tmp_path / "net.json"
    hpath = tmp_path / "h.json"
    npath.write_text(dumps_document(loop_doc(1)))
    hpath.write_text(dumps_document({"s1": [1.0, 0.0, 0.0, 0.0]}))
    n = read_network(npath)
    h = read_holonomies(hpath)
    npt.assert_allclose(evaluate(n, h), 2.0, atol=1e-12)
