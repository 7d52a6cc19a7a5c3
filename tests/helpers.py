"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's own contraction paths:
evaluation by explicit index sums, Monte Carlo by direct quaternion
sampling, correspondence lists by filtering the full assignment
product space, and exact inner products over the common refinement,
with dense Haar projectors, rather than each state's own edges.  The
public ``FactorNetwork`` route into the engine is the reference for the
operands and plan keys the inner products build directly, and the greedy
planner's one-full-regrouping-per-step form the reference for its
incremental one.  Document text
has the element-by-element renderer, and the Wigner build, the Haar
sampler, the word holonomy, the intertwiner basis and the web transfer
their earlier straightforward forms, as references for bit-identical or
nearly identical output, the four reference curves their one-curve-at-a-time
construction, and the curve CSV its ``csv.writer`` form.
Clebsch-Gordan tables have their exact rational form, one coefficient at
a time in ``fractions.Fraction``.  Group elements multiply by the
quaternion product, and invariance is checked by the group action at two
fixed elements.
"""

import contextlib
import csv
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from spinnet import (
    Spin,
    GroupElement,
    Intertwiner,
    SegmentRegistry,
    Edge,
    network,
    decompose,
    intertwiner_basis,
    invariant_vectors,
    wigner_entries,
    epsilon,
    common_refinement,
)
import spinnet.tensor_engine as te
from spinnet.rep_core import _MAX_ELEMENTS, _invariant_basis, _sort_key, _wigner_terms
from spinnet.blipweb import (
    BumpCurve, _boundary_weights, _column_basis, blip_amplitude, build_tassel, bump, junction,
)
from spinnet.tensor_engine import (
    FactorNetwork, GroupFactor, LabeledTensor, Leg, _Plan, _Step, contract, haar_project,
)


# ---------------------------------------------------------------------------
# motif networks

def loop_network(twice_j=1, segment="s1", point="P", registry=None):
    reg = registry if registry is not None else SegmentRegistry()
    if segment not in reg:
        reg.add_segment(segment, point, point)
    spin = Spin(twice_j)
    marker = Intertwiner(((spin, "out"), (spin, "in")), np.eye(spin.dim))
    return network(reg, [Edge("loop", ((segment, False),), point, point, spin)],
                   {point: marker})


def theta_registry():
    reg = SegmentRegistry()
    for sid in ("u1", "u2", "u3"):
        reg.add_segment(sid, "X", "Y")
    return reg


def theta_network(twice_js=(1, 1, 2), coeffs=None, registry=None):
    """Two trivalent vertices joined by three parallel edges."""
    reg = registry if registry is not None else theta_registry()
    spins = [Spin(tj) for tj in twice_js]
    edges = [Edge(f"e{k}", ((f"u{k + 1}", False),), "X", "Y", s)
             for k, s in enumerate(spins)]
    verts = {}
    for v, direction in (("X", "out"), ("Y", "in")):
        legs = tuple((s, direction) for s in spins)
        basis = intertwiner_basis(legs)
        if not basis:
            raise ValueError(f"no invariants for {twice_js}")
        if coeffs is None:
            verts[v] = basis[0]
        else:
            comps = sum(c * b.components for c, b in zip(coeffs[v], basis))
            verts[v] = Intertwiner(legs, comps)
    return network(reg, edges, verts)


def figure8_network(tja=1, tjb=1, coeff=None, registry=None):
    reg = registry if registry is not None else SegmentRegistry()
    for sid in ("f1", "f2"):
        if sid not in reg:
            reg.add_segment(sid, "O", "O")
    sa, sb = Spin(tja), Spin(tjb)
    edges = [Edge("a", (("f1", False),), "O", "O", sa),
             Edge("b", (("f2", False),), "O", "O", sb)]
    legs = ((sa, "out"), (sa, "in"), (sb, "out"), (sb, "in"))
    basis = intertwiner_basis(legs)
    if coeff is None:
        iv = basis[0]
    else:
        comps = sum(c * b.components for c, b in zip(coeff, basis))
        iv = Intertwiner(legs, comps)
    return network(reg, edges, {"O": iv})


def dumbbell_registry():
    reg = SegmentRegistry()
    reg.add_segment("dl", "P", "P")
    reg.add_segment("dm", "P", "Q")
    reg.add_segment("dr", "Q", "Q")
    return reg


# ---------------------------------------------------------------------------
# random generators

MOTIF_NAMES = ("theta", "figure8", "twogon", "dumbbell", "bouquet3")


def _motif_skeleton(name, reg):
    """Register segments and return (edges-without-intertwiners, vertex ids).

    Spins are sampled by the caller; edge tuples here are
    (id, word, source, target).
    """
    if name == "theta":
        for sid in ("u1", "u2", "u3"):
            reg.add_segment(sid, "X", "Y")
        return [("e0", (("u1", False),), "X", "Y"),
                ("e1", (("u2", False),), "X", "Y"),
                ("e2", (("u3", False),), "X", "Y")]
    if name == "figure8":
        reg.add_segment("f1", "O", "O")
        reg.add_segment("f2", "O", "O")
        return [("a", (("f1", False),), "O", "O"),
                ("b", (("f2", False),), "O", "O")]
    if name == "twogon":
        reg.add_segment("g1", "A", "B")
        reg.add_segment("g2", "A", "B")
        return [("p", (("g1", False),), "A", "B"),
                ("q", (("g2", False),), "A", "B")]
    if name == "dumbbell":
        reg.add_segment("dl", "P", "P")
        reg.add_segment("dm", "P", "Q")
        reg.add_segment("dr", "Q", "Q")
        return [("l", (("dl", False),), "P", "P"),
                ("m", (("dm", False),), "P", "Q"),
                ("r", (("dr", False),), "Q", "Q")]
    if name == "bouquet3":
        for sid in ("w1", "w2", "w3"):
            reg.add_segment(sid, "O", "O")
        return [("a", (("w1", False),), "O", "O"),
                ("b", (("w2", False),), "O", "O"),
                ("c", (("w3", False),), "O", "O")]
    raise ValueError(name)


def _slot_legs(edges):
    slots = {}
    for e in edges:
        slots.setdefault(e.source, []).append((e.spin, "out"))
        slots.setdefault(e.target, []).append((e.spin, "in"))
    return slots


def random_intertwiner(rng, legs):
    basis = intertwiner_basis(legs)
    if not basis:
        return None
    w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    comps = sum(c * b.components for c, b in zip(w, basis))
    return Intertwiner(legs, comps)


def random_network(rng, motif=None, max_twice_j=2, registry=None):
    """A random invariant-vertex network on one of the motif graphs.

    Spins are resampled until every vertex admits an invariant; fixed
    seeds make the draws reproducible.
    """
    name = motif if motif is not None else MOTIF_NAMES[rng.integers(len(MOTIF_NAMES))]
    reg = registry if registry is not None else SegmentRegistry()
    return _spin_matched(rng, reg, _motif_skeleton(name, reg), max_twice_j, name)


def respun_network(rng, net, max_twice_j=2):
    """A random invariant-vertex network on the same edges as ``net``, with
    freshly drawn spins."""
    skeleton = [(e.id, e.word, e.source, e.target) for e in net.edges]
    return _spin_matched(rng, net.graph.registry, skeleton, max_twice_j, "respin")


def _spin_matched(rng, reg, skeleton, max_twice_j, name):
    for _ in range(200):
        edges = [Edge(eid, word, src, tgt, Spin(int(rng.integers(1, max_twice_j + 1))))
                 for eid, word, src, tgt in skeleton]
        verts = {}
        for v, legs in _slot_legs(edges).items():
            iv = random_intertwiner(rng, tuple(legs))
            if iv is None:
                break
            verts[v] = iv
        else:
            return network(reg, edges, verts)
    raise RuntimeError(f"could not spin-match motif {name}")


def piece_network(rng, graph, max_twice_j=2):
    """A random invariant-vertex network with one edge along each interval
    and circle of ``graph``, oriented as ``decompose`` lists it."""
    dec = decompose(graph)
    skeleton = [(f"i{k}", iv.steps, iv.start, iv.end) for k, iv in enumerate(dec.intervals)]
    skeleton += [(f"o{k}", c.steps, c.basepoint, c.basepoint) for k, c in enumerate(dec.circles)]
    return _spin_matched(rng, graph.registry, skeleton, max_twice_j, "pieces")


def cycle_network(rng, k, loop_twice_js=None):
    """A k-cycle of spin-1/2 edges with a loop at every point (2k intervals,
    k points), random invariant intertwiners, loop spins as given (default
    all 1/2)."""
    reg = SegmentRegistry()
    edges = []
    for i, tj in enumerate(loop_twice_js or (1,) * k):
        reg.add_segment(f"c{i}", f"X{i}", f"X{(i + 1) % k}")
        reg.add_segment(f"l{i}", f"X{i}", f"X{i}")
        edges.append(Edge(f"c{i}", ((f"c{i}", False),), f"X{i}", f"X{(i + 1) % k}", Spin(1)))
        edges.append(Edge(f"l{i}", ((f"l{i}", False),), f"X{i}", f"X{i}", Spin(tj)))
    verts = {v: random_intertwiner(rng, tuple(legs)) for v, legs in _slot_legs(edges).items()}
    return network(reg, edges, verts)


def wordy_network(rng, twice_js=(1, 3, 2), circle_twice_j=3, registry=None):
    """A theta whose edges are 2-, 3- and 1-segment words (some segments
    traversed backwards) beside a 3-segment circle cut into two edges that
    leave one point in the same direction, with random invariant
    intertwiners.  Its canonical form has multi-segment edges and a circle
    marker that is a random, not unit, multiple of the identity."""
    reg = registry if registry is not None else SegmentRegistry()
    if "t1a" not in reg:
        for sid, src, tgt in (("t1a", "X", "M1"), ("t1b", "M1", "Y"), ("t2a", "Y", "M2"),
                              ("t2b", "M3", "M2"), ("t2c", "M3", "X"), ("t3", "Y", "X"),
                              ("k1", "C0", "C1"), ("k2", "C1", "C2"), ("k3", "C2", "C0")):
            reg.add_segment(sid, src, tgt)
    t1, t2, t3 = (Spin(tj) for tj in twice_js)
    kj = Spin(circle_twice_j)
    edges = [Edge("e1", (("t1a", False), ("t1b", False)), "X", "Y", t1),
             Edge("e2", (("t2c", True), ("t2b", False), ("t2a", True)), "X", "Y", t2),
             Edge("e3", (("t3", True),), "X", "Y", t3),
             Edge("kb", (("k1", False),), "C0", "C1", kj),
             Edge("ka", (("k3", True), ("k2", True)), "C0", "C1", kj)]
    verts = {v: random_intertwiner(rng, tuple(legs)) for v, legs in _slot_legs(edges).items()}
    return network(reg, edges, verts)


def reintertwine(rng, net):
    """Same graph and spins, fresh random invariant intertwiners."""
    verts = {v: random_intertwiner(rng, iv.leg_spins)
             for v, iv in net.vertices.items()}
    return network(net.graph.registry, list(net.edges), verts)


def random_holonomies(rng, net):
    return {sid: haar_element(rng) for sid in sorted(net.graph.segments, key=str)}


def haar_element(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return GroupElement(*q)


def identity_holonomies(net):
    return {sid: GroupElement.identity() for sid in net.graph.segments}


# ---------------------------------------------------------------------------
# evaluation oracle: explicit index sums, no tensor engine

def naive_evaluate(net, holonomies):
    """Sum over all edge matrix indices of products of Wigner entries and
    intertwiner components; exponential cost, tiny networks only."""
    mats = {}
    for e in net.edges:
        quats = {s: holonomies[s].as_array()[None] for s, _ in e.word}
        mats[e.id] = wigner_entries(e.spin.twice_j, quaternion_word_holonomy(quats, e.word))[0]
    slot_index = {}
    for e in net.edges:
        slot_index.setdefault(e.source, []).append((e.id, "out"))
        slot_index.setdefault(e.target, []).append((e.id, "in"))
    ranges = [range(e.spin.dim) for e in net.edges for _ in "rc"]
    total = 0.0 + 0.0j
    for assignment in itertools.product(*ranges):
        rows = {}
        cols = {}
        for k, e in enumerate(net.edges):
            rows[e.id] = assignment[2 * k]
            cols[e.id] = assignment[2 * k + 1]
        term = 1.0 + 0.0j
        for e in net.edges:
            term *= mats[e.id][rows[e.id], cols[e.id]]
        for v, iv in net.vertices.items():
            idx = tuple(cols[eid] if d == "out" else rows[eid]
                        for eid, d in slot_index[v])
            term *= iv.components[idx]
        total += term
    return total


def refinement_inner_product(bra, ket):
    """Exact <bra, ket> over the common refinement of the two networks:
    every edge one segment with identity bivalents at interior points, one
    group factor per refined edge (bra conjugated), one dense Haar
    projector per segment (``haar_project``, the zero tensor when the
    segment's factors admit no invariant), then one ``contract``."""
    factors, tensors, pairings = [], [], []
    for net, side, conj in zip(common_refinement(bra, ket), "AB", (True, False)):
        for e in net.edges:
            (segment, rev), = e.word
            row, col = (side, e.id, "r"), (side, e.id, "c")
            factors.append(GroupFactor(segment, e.spin, conj, rev, row, col))
            pairings += [(row, (side, e.target, e.id, "in")), (col, (side, e.source, e.id, "out"))]
        for v, iv in net.vertices.items():
            legs = tuple(Leg((side, v, eid, d), spin, "ket" if (d == "out") != conj else "bra")
                         for eid, d, spin in net.vertex_slots(v))
            tensors.append(LabeledTensor(legs, iv.components.conj() if conj else iv.components))
    by_segment = {}
    for f in factors:
        by_segment.setdefault(f.variable, []).append(f)
    projectors = [haar_project(fs) for fs in by_segment.values()]
    return complex(contract(projectors + tensors, pairings).data)


# ---------------------------------------------------------------------------
# the public factor-network route into the engine

def state_factor_network(n, side, conjugate, steps):
    """One state as a public ``FactorNetwork``, with validated legs: the
    reference for ``inner_product._state_operands``.  Edge e carries one
    factor per (variable, inverted) entry of ``steps[e.id]``, chained from
    the "in" slot at its target to the "out" slot at its source; on the bra
    side (``conjugate``) factors and data are conjugated and the vertex legs'
    variances flip.  An edge missing from ``steps`` has no factor and no
    pairing, so its two vertex slots stay open."""
    factors, pairings = [], []
    for e in (e for e in n.edges if e.id in steps):
        legs = [((side, "E", e.id, k, "r"), (side, "E", e.id, k, "c"))
                for k in range(len(steps[e.id]))]
        factors += [GroupFactor(variable, e.spin, conjugate, inverted, row, col)
                    for (variable, inverted), (row, col) in zip(steps[e.id], legs)]
        chain = ([(side, "V", e.target, e.id, "in")] + [l for rc in reversed(legs) for l in rc]
                 + [(side, "V", e.source, e.id, "out")])
        pairings += zip(chain[0::2], chain[1::2])
    tensors = []
    for v, iv in n.vertices.items():
        legs = tuple(Leg((side, "V", v, eid, d), spin,
                         "ket" if (d == "out") != conjugate else "bra")
                     for eid, d, spin in n.vertex_slots(v))
        tensors.append(LabeledTensor(legs, iv.components.conj() if conjugate else iv.components))
    return FactorNetwork(factors, tensors, pairings)


def paired_factor_network(bra, ket, tree=frozenset(), chord=None):
    """conj(state_bra) * state_ket as one ``FactorNetwork``, each state on
    its own edges with one factor per step of its words outside ``tree``.
    With ``chord``, Schur orthogonality stands in for that segment's
    factors: the edge of each state whose one step outside ``tree`` is along
    ``chord`` has no factor, the two states' in slots of those edges are
    paired, and their out slots, and a leg-less tensor 1/d joins."""
    nets, opened = [], []
    for n, side in ((bra, "A"), (ket, "B")):
        steps = {e.id: tuple(t for t in e.word if t[0] not in tree) for e in n.edges}
        edge, = [e for e in n.edges if [s for s, _ in steps[e.id]] == [chord]] or [None]
        if edge is not None:
            del steps[edge.id]
            opened.append(edge)
        nets.append(state_factor_network(n, side, side == "A", steps))
    a, b = nets
    tensors, pairings = a.tensors + b.tensors, a.pairings + b.pairings
    if opened:
        ea, eb = opened
        assert all(f.variable != chord for f in a.factors + b.factors)
        pairings += (((("A", "V", ea.target, ea.id, "in"), ("B", "V", eb.target, eb.id, "in")),
                      (("A", "V", ea.source, ea.id, "out"), ("B", "V", eb.source, eb.id, "out"))))
        tensors += (LabeledTensor((), np.array(1 / ea.spin.dim, complex)),)
    return FactorNetwork(a.factors + b.factors, tensors, pairings)


def factored_projector(factors, key):
    """One variable's Haar projector as (B, conj(B), pairing) of validated
    tensors: B on the row-side legs, conj(B) on the column-side legs, and
    their multiplicity legs ``(key, "ket")`` and ``(key, "bra")`` paired.
    An inverted factor's named legs swap sides."""
    row_legs, col_legs = [], []
    for f in factors:
        rv, cv = f.leg_variances()
        row, col = Leg(f.row_leg, f.spin, rv), Leg(f.col_leg, f.spin, cv)
        row_legs.append(col if f.inverted else row)
        col_legs.append(row if f.inverted else col)
    basis = _invariant_basis(tuple((f.spin.twice_j, f.conjugated != f.inverted) for f in factors))
    mult = Spin(basis.shape[0] - 1)
    ket, bra = Leg((key, "ket"), mult, "ket"), Leg((key, "bra"), mult, "bra")
    return (LabeledTensor((ket, *row_legs), basis), LabeledTensor((bra, *col_legs), basis.conj()),
            (ket.id, bra.id))


def factor_network_plan(net, exact=False):
    """The ``tensor_engine._plan`` arguments and constant arrays of ``net``
    on the factor-network route: factors first, then tensors, with leg ids,
    dims from the legs' spins, batched flags and pairings.  With ``exact``,
    those of the constant network that replaces each variable's factors, in
    ``_sort_key`` order, by its ``factored_projector`` keyed ``("H",
    variable)``."""
    if exact:
        by_variable = {}
        for f in net.factors:
            by_variable.setdefault(f.variable, []).append(f)
        tensors, pairings = list(net.tensors), list(net.pairings)
        for variable in sorted(by_variable, key=_sort_key):
            basis, dual, pairing = factored_projector(by_variable[variable], ("H", variable))
            tensors += [basis, dual]
            pairings.append(pairing)
        net = FactorNetwork((), tensors, pairings)
    args = (tuple((f.row_leg, f.col_leg) for f in net.factors)
            + tuple(tuple(l.id for l in t.legs) for t in net.tensors),
            tuple((f.spin.dim,) * 2 for f in net.factors)
            + tuple(tuple(l.spin.dim for l in t.legs) for t in net.tensors),
            (True,) * len(net.factors) + (False,) * len(net.tensors),
            net.pairings)
    return args, [np.asarray(t.data, complex) for t in net.tensors]


def reference_plan(legs, dims, batched, pairs, batch=1):
    """``tensor_engine._plan`` as one full regrouping per step, uncached:
    each round groups every remaining pairing by the slots that own its
    legs and scores every group from its slots' legs, the reference for
    the engine's incremental planner, plan for plan and refusal for
    refusal."""
    live = {i: (list(l), list(d), bool(b)) for i, (l, d, b) in enumerate(zip(legs, dims, batched))}
    pairs = [tuple(p) for p in pairs]
    steps = []

    def add_step(ia, ib, plist):
        la, da, ba = live.pop(ia)
        if ia == ib:
            lb, db, bb = [], [], False
            con_a = [la.index(x) for x, _ in plist] + [la.index(y) for _, y in plist]
            con_b = []
        else:
            lb, db, bb = live.pop(ib)
            in_a = set(la)
            con_a = [la.index(x if x in in_a else y) for x, y in plist]
            con_b = [lb.index(y if x in in_a else x) for x, y in plist]
        free_a = [k for k in range(len(la)) if k not in con_a]
        free_b = [k for k in range(len(lb)) if k not in con_b]
        out_dims = [da[k] for k in free_a] + [db[k] for k in free_b]
        rows = math.prod(da[k] for k in free_a)
        inner = math.prod(da[k] for k in con_a[: len(plist)])
        cols = math.prod(db[k] for k in free_b)
        size = rows * cols * (batch if ba or bb else 1)
        if size > _MAX_ELEMENTS:
            raise ValueError(
                f"contraction needs an intermediate of {size} elements, over the "
                f"limit of {_MAX_ELEMENTS} ({_MAX_ELEMENTS * 16 >> 20} MiB)"
            )
        kernel = "trace" if ia == ib else "madd" if ba and bb else "matmul"
        steps.append(_Step(
            ia, None if ia == ib else ib, ba, bb,
            tuple(free_a + con_a + [len(la)] * ba), tuple(con_b + free_b + [len(lb)] * bb),
            rows, inner, cols, tuple(out_dims), kernel,
        ))
        out_legs = [la[k] for k in free_a] + [lb[k] for k in free_b]
        live[len(legs) + len(steps) - 1] = (out_legs, out_dims, ba or bb)

    while pairs:
        owner = {leg: i for i, (ls, _, _) in live.items() for leg in ls}
        groups = {}
        for la, lb in pairs:
            ia, ib = owner[la], owner[lb]
            groups.setdefault((min(ia, ib), max(ia, ib)), []).append((la, lb))
        best = None
        for (ia, ib), plist in sorted(groups.items()):
            paired = {l for p in plist for l in p}
            size = batch if live[ia][2] or live[ib][2] else 1
            for i in {ia, ib}:
                for leg, d in zip(live[i][0], live[i][1]):
                    if leg not in paired:
                        size *= d
            if best is None or size < best[0]:
                best = (size, ia, ib, plist)
        _, ia, ib, plist = best
        add_step(ia, ib, plist)
        done = set(plist)
        pairs = [p for p in pairs if p not in done]
    acc, *rest = sorted(live)
    for ib in rest:
        add_step(acc, ib, [])
        acc = len(legs) + len(steps) - 1
    (out_legs, _, _), = live.values()
    return _Plan(tuple(steps), tuple(out_legs))


@contextlib.contextmanager
def recorded_plan_calls():
    """The (args, kwargs) of every ``tensor_engine._plan`` call made in the
    block, in order, whether the engine's cache answers it or not."""
    calls = []
    real = te._plan

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    te._plan = recording
    try:
        yield calls
    finally:
        te._plan = real


def plan_or_refusal(planner, args, kwargs):
    """``planner(*args, **kwargs)``, or the message of its ValueError."""
    try:
        return planner(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def brute_mc_inner_product(bra, ket, n_samples, seed, use_naive=False):
    """Monte Carlo over raw quaternion draws, one sample at a time batched
    by segment; independent of the engine's stream and chunking."""
    from spinnet.inner_product import evaluate

    rng = np.random.default_rng(seed)
    segs = sorted(set(bra.graph.segments) | set(ket.graph.segments), key=str)
    value = naive_evaluate if use_naive else evaluate
    total = 0.0 + 0.0j
    sq = 0.0
    for _ in range(n_samples):
        h = {sid: haar_element(rng) for sid in segs}
        term = np.conj(value(bra, h)) * value(ket, h)
        total += term
        sq += abs(term) ** 2
    mean = total / n_samples
    var = max(sq / n_samples - abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / n_samples)


def mc_character_product(twice_js, n_samples, seed):
    """Monte Carlo estimate of the Haar integral of a product of characters
    (the invariant-subspace dimension), with its standard error."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n_samples, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    prod = np.ones(n_samples)
    counts = {tj: tuple(twice_js).count(tj) for tj in set(twice_js)}
    for tj, k in counts.items():
        chi = np.trace(wigner_entries(tj, q), axis1=-2, axis2=-1).real
        prod = prod * chi ** k
    mean = prod.mean()
    stderr = prod.std(ddof=1) / np.sqrt(n_samples)
    return mean, stderr


# ---------------------------------------------------------------------------
# correspondence oracle: filter the full assignment product space

def brute_correspondences(d1, d2, orientation_preserving_only=False):
    """Every (point_map, interval_map, circle_map) from d1 onto d2.

    Intervals: each bijection of intervals with each orientation pattern is
    kept when the endpoints it forces give a bijection of the points;
    circles: every bijection and orientation pattern.  Listed in product
    order: interval permutations lexicographically, then orientation
    patterns, then likewise for circles.  Point maps are sorted by
    ``str`` of the source point.
    """
    if len(d1.intervals) != len(d2.intervals) or len(d1.circles) != len(d2.circles):
        return []
    flips = (False,) if orientation_preserving_only else (False, True)
    n_int, n_circ = len(d1.intervals), len(d2.circles)
    found = []
    for perm in itertools.permutations(range(n_int)):
        for orient in itertools.product(flips, repeat=n_int):
            pmap = {}
            ok = True
            for src, tgt_idx, flip in zip(d1.intervals, perm, orient):
                tgt = d2.intervals[tgt_idx]
                pairs = ((src.start, tgt.end), (src.end, tgt.start)) if flip \
                    else ((src.start, tgt.start), (src.end, tgt.end))
                for p, q in pairs:
                    if pmap.setdefault(p, q) != q:
                        ok = False
            if not ok:
                continue
            if set(pmap) != set(d1.points):
                continue
            values = list(pmap.values())
            if len(set(values)) != len(values) or set(values) != set(d2.points):
                continue
            point_map = tuple(sorted(pmap.items(), key=lambda kv: str(kv[0])))
            for cperm in itertools.permutations(range(n_circ)):
                for corient in itertools.product(flips, repeat=n_circ):
                    found.append((point_map, tuple(zip(perm, orient)),
                                  tuple(zip(cperm, corient))))
    return found


def brute_correspondence_count(d1, d2, orientation_preserving_only=False):
    return len(brute_correspondences(d1, d2, orientation_preserving_only))


# ---------------------------------------------------------------------------
# misc

def character(twice_j, g):
    """Closed form for the SU(2) character, from the rotation angle."""
    w = np.clip(g.w, -1.0, 1.0)
    half = np.arccos(w)
    if abs(np.sin(half)) < 1e-8:
        sign = 1.0 if w > 0 else (-1.0) ** twice_j
        return sign * (twice_j + 1)
    return np.sin((twice_j + 1) * half) / np.sin(half)


# ---------------------------------------------------------------------------
# reference forms of rewritten kernels

def reference_wigner_entries(twice_j, quats):
    """The monomial loop with full power tables: every factor and coefficient
    multiplied in, unit ones included."""
    quats = np.asarray(quats, dtype=float)
    w, x, y, z = (quats[..., k] for k in range(4))
    n = twice_j
    pows = []
    for base in (w + 1j * z, y + 1j * x, -y + 1j * x, w - 1j * z):
        p = [np.ones_like(base)]
        for _ in range(n):
            p.append(p[-1] * base)
        pows.append(p)
    pa, pb, pc, pd = pows
    out = np.zeros((n + 1, n + 1) + quats.shape[:-1], dtype=complex)
    for kp, k, tl in _wigner_terms(n):
        acc = 0.0
        for coeff, ea, eb, ec, ed in tl:
            acc = acc + coeff * (pa[ea] * pb[eb] * pc[ec] * pd[ed])
        out[kp, k] = acc
    return out.transpose(*range(2, out.ndim), 0, 1)


def transform_intertwiner(iv, g):
    """Group action on an intertwiner's components.

    Out-legs are contracted with D(g) on the right of the axis, in-legs
    with D(g)^{-1} on the left, which is conj(D(g)) on the right; an
    intertwiner is a fixed point of this action for every g.
    """
    comp = iv.components
    for axis, (s, d) in enumerate(iv.leg_spins):
        dmat = wigner_entries(s.twice_j, g.as_array())
        moved = np.moveaxis(comp, axis, -1)
        comp = np.moveaxis(moved @ (dmat.conj() if d == "in" else dmat), -1, axis)
    return comp


# Two fixed elements generating a dense subgroup of SU(2): a tensor fixed by
# both is fixed by the whole group.  The reference for the generator test.
GUARD_ELEMENTS = (
    GroupElement.from_array((0.6, 0.3, -0.5, 0.55), normalize=True),
    GroupElement.from_array((-0.2, 0.7, 0.4, -0.55), normalize=True),
)


def fixed_by_guard_elements(iv):
    """Whether ``transform_intertwiner`` at both guard elements moves the
    components by at most 1e-12 * max(1, |components|)."""
    tol = 1e-12 * max(1.0, float(np.linalg.norm(iv.components)))
    return all(np.linalg.norm(transform_intertwiner(iv, g) - iv.components) <= tol
               for g in GUARD_ELEMENTS)


@functools.lru_cache(maxsize=None)
def _ket_invariants(twice_js):
    vecs = invariant_vectors(twice_js)
    for v in vecs:
        v.setflags(write=False)
    return tuple(vecs)


def reference_intertwiner_basis(legs):
    """The intertwiner basis built one all-ket invariant at a time, with a
    complex ``epsilon`` matrix contracted onto each "in" axis by
    ``tensordot``.  The all-ket invariants are kept per spin tuple, so every
    direction pattern of one tuple starts from the same vectors."""
    out = []
    for v in _ket_invariants(tuple(s.twice_j for s, _ in legs)):
        for axis, (s, d) in enumerate(legs):
            if d == "in":
                moved = np.tensordot(epsilon(s), np.moveaxis(v, axis, 0), axes=(1, 0))
                v = np.moveaxis(moved, 0, axis)
        out.append(v)
    return out


def _reference_cg_coefficient(tj1, tm1, tj2, tm2, tJ, tM):
    """<j1 m1; j2 m2 | J M>, doubled arguments, by Racah's formula summed in
    ``fractions.Fraction``s, with one square root of ``float(pre * S^2)`` at
    the end."""
    f = math.factorial

    def g(t):
        return f(t // 2)

    pre = Fraction(
        (tJ + 1) * g(tj1 + tj2 - tJ) * g(tj1 - tj2 + tJ) * g(-tj1 + tj2 + tJ),
        g(tj1 + tj2 + tJ + 2),
    ) * Fraction(
        g(tJ + tM) * g(tJ - tM) * g(tj1 - tm1) * g(tj1 + tm1) * g(tj2 - tm2) * g(tj2 + tm2)
    )
    kmin = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            f(k)
            * g(tj1 + tj2 - tJ - 2 * k)
            * g(tj1 - tm1 - 2 * k)
            * g(tj2 + tm2 - 2 * k)
            * g(tJ - tj2 + tm1 + 2 * k)
            * g(tJ - tj1 - tm2 + 2 * k)
        )
        total += Fraction((-1) ** k, den)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(pre * total * total))


def reference_cg_tensor(tj1, tj2, tJ):
    """The Clebsch-Gordan table, shape (tj1 + 1, tj2 + 1, tJ + 1), one
    exact rational coefficient per entry: the reference for the library's
    integer form, bit for bit."""
    out = np.zeros((tj1 + 1, tj2 + 1, tJ + 1))
    for k1, k2 in itertools.product(range(tj1 + 1), range(tj2 + 1)):
        tm1, tm2 = tj1 - 2 * k1, tj2 - 2 * k2
        K = (tJ - tm1 - tm2) // 2
        if 0 <= K <= tJ and (tJ - tm1 - tm2) % 2 == 0:
            out[k1, k2, K] = _reference_cg_coefficient(tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
    return out


def reference_haar_quaternions(rng, shape):
    q = rng.standard_normal(tuple(shape) + (4,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q


def quat_product(a, b):
    """Components (w, x, y, z) of the group product a*b, with the convention
    matrix(a*b) = matrix(a) @ matrix(b), in quaternion arithmetic.  ``a`` and
    ``b`` are component sequences of floats, or of equally shaped arrays."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    # The sign of the cross term is fixed by requiring that the 2x2 matrix
    # map is a homomorphism, not by quaternion tradition.
    return (
        aw * bw - (ax * bx + ay * by + az * bz),
        aw * bx + bw * ax - (ay * bz - az * by),
        aw * by + bw * ay - (az * bx - ax * bz),
        aw * bz + bw * az - (ax * by - ay * bx),
    )


def multiply(a, b):
    """Group product of two elements by ``quat_product``, renormalized."""
    return GroupElement.from_array(quat_product(a.as_array(), b.as_array()), normalize=True)


def inverse(a):
    return GroupElement(a.w, -a.x, -a.y, -a.z)


def quaternion_word_holonomy(quats, word):
    """The (m, 4) quaternions of a word's holonomy from (m, 4) quaternions
    per segment: the steps multiplied rightmost first by ``quat_product``, a
    reversed step conjugated."""
    total = None
    for segment, rev in word:
        w, x, y, z = quats[segment].T
        g = (w, -x, -y, -z) if rev else (w, x, y, z)
        total = g if total is None else quat_product(g, total)
    return np.stack(total, axis=-1)


def reference_transfer_value(alphabet, bra_curves, ket_curves, stabilized):
    """The web transfer as one forward sweep over every column from the
    left boundary, closed against the boundary weights on the right."""
    boundary = _boundary_weights(stabilized)
    v = boundary
    for i in alphabet.indices:
        q = _column_basis(tuple(w.sign(i) for w in bra_curves),
                          tuple(w.sign(i) for w in ket_curves))
        v = q.T @ (q.conj() @ v)
    return complex(np.dot(boundary, v))


# ---------------------------------------------------------------------------
# element-by-element document text

def walk_format_number(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"non-finite number {x!r} in document")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def walk_render(obj, indent, level):
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return walk_format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(walk_render(v, indent, 0) for v in obj) + "]"
        body = ",\n".join(inner + walk_render(v, indent, level + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError(f"document keys must be strings, got {k!r}")
            items.append(inner + json.dumps(k) + ": " + walk_render(v, indent, level + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__} in a document")


def walk_dumps_document(obj, indent=2):
    return walk_render(obj, indent, 0) + "\n"


def walk_complex_nested(arr):
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [walk_complex_nested(sub) for sub in arr]


def csv_writer_curves(path, curves):
    """``blipweb.write_curves_csv`` as one ``csv.writer`` row per point, the
    byte-for-byte reference for its row-template writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "x", "y"])
        for curve in curves:
            for x, y in zip(curve.xs, curve.ys):
                writer.writerow([curve.curve_id, format(x, ".17g"), format(y, ".17g")])


def per_curve_geometry(truncation, resolution):
    """``blipweb.emit_geometry`` built one curve at a time, each on its own
    x grid and arc heights, the byte-for-byte reference for its shared arc
    grid."""
    t = np.arange(resolution) / resolution
    heights = bump(t)
    curves = []
    for k, w in enumerate(build_tassel(truncation).curves):
        xs = [np.array([0.0])]
        ys = [np.array([0.0])]
        for i in range(-truncation, truncation):
            a, b = junction(i), junction(i + 1)
            y = blip_amplitude(i) * heights
            if w.sign(i) == "-":
                y = -y
            xs.append(a + (b - a) * t)
            ys.append(y)
        xs.append(np.array([junction(truncation), 1.0]))
        ys.append(np.array([0.0, 0.0]))
        curves.append(BumpCurve(f"c{k + 1}", np.concatenate(xs), np.concatenate(ys)))
    return curves
