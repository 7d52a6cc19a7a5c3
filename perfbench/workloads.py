"""Inputs, operation lists and reference values for the workloads.

``write_inputs`` runs in a set-up process: it builds the workload's networks
with the public library API, writes them as network documents, and writes a
manifest (``ops.json``) listing each operation's CLI argv and the reference
its report must meet.  References never come from the code being measured:
they are closed forms from the paper, or sums over the documents' own
components computed here with numpy.

``load_ops`` turns a manifest back into operations; the measuring process
sees only the documents and argv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# "exact" runs every deterministic path (exact ip, the averaged pairing and
# the web observables); "mc" runs the sampling path alone.
WORKLOADS = ("exact", "mc")

# Theta spin triples for the exact workload: admissible, growing up to the
# (10,10,10) network whose 11^6-element intermediates dominate the pass
# without being most of it.
EXACT_THETAS = ((1, 1, 2), (2, 2, 2), (4, 4, 4), (6, 6, 6), (6, 6, 12),
                (8, 8, 8), (8, 8, 10), (9, 9, 8), (9, 9, 10), (10, 10, 10))
MOTIFS = ("theta", "figure8", "twogon", "dumbbell", "bouquet3")
# Monte Carlo operations: (theta spins or "web", samples).  100000 and 20000
# are not multiples of the 16384-sample chunk, so a partial chunk runs.
MC_CASES = (((1, 1, 2), 100_000), ((6, 6, 12), 6_000), ("web", 20_000))
WEB_TRUNCATIONS = (2, 3, 4, 5, 6, 8)
MC_SIGMAS = 4.0


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: Callable[[dict], str | None]


# ---------------------------------------------------------------------------
# network builders (public API only)

def _spinnet():
    import spinnet
    return spinnet


def _random_intertwiner(rng, legs):
    """Unit-norm random element of the intertwiner space, or None if empty."""
    sn = _spinnet()
    basis = sn.intertwiner_basis(legs)
    if not basis:
        return None
    w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    w /= np.linalg.norm(w)
    comps = sum(c * b.components for c, b in zip(w, basis))
    return sn.Intertwiner(legs, comps)


def _slot_legs(edges):
    slots: dict = {}
    for e in edges:
        slots.setdefault(e.source, []).append((e.spin, "out"))
        slots.setdefault(e.target, []).append((e.spin, "in"))
    return {v: tuple(legs) for v, legs in slots.items()}


def _build(skeleton, twice_js, rng):
    """Network on a skeleton of (edge id, segment, source, target) with the
    given spins and random intertwiners; None when a vertex has no invariant."""
    sn = _spinnet()
    reg = sn.SegmentRegistry()
    edges = []
    for (eid, seg, src, tgt), tj in zip(skeleton, twice_js):
        reg.add_segment(seg, src, tgt)
        edges.append(sn.Edge(eid, ((seg, False),), src, tgt, sn.Spin(int(tj))))
    verts = {}
    for v, legs in _slot_legs(edges).items():
        iv = _random_intertwiner(rng, legs)
        if iv is None:
            return None
        verts[v] = iv
    return sn.network(reg, edges, verts)


def _motif_skeleton(name):
    if name == "theta":
        return [(f"e{k}", f"u{k + 1}", "X", "Y") for k in range(3)]
    if name == "figure8":
        return [("a", "f1", "O", "O"), ("b", "f2", "O", "O")]
    if name == "twogon":
        return [("p", "g1", "A", "B"), ("q", "g2", "A", "B")]
    if name == "dumbbell":
        return [("l", "dl", "P", "P"), ("m", "dm", "P", "Q"), ("r", "dr", "Q", "Q")]
    if name == "bouquet3":
        return [(e, f"w{k + 1}", "O", "O") for k, e in enumerate("abc")]
    raise ValueError(name)


def _cycle_skeleton(k):
    """A k-cycle with a loop at every point: 2k intervals, k points."""
    sk = []
    for i in range(k):
        sk.append((f"c{i}", f"c{i}", f"X{i}", f"X{(i + 1) % k}"))
        sk.append((f"l{i}", f"l{i}", f"X{i}", f"X{i}"))
    return sk


def _theta(twice_js):
    """Theta network with the first orthonormal basis intertwiner at both ends."""
    sn = _spinnet()
    reg = sn.SegmentRegistry()
    spins = [sn.Spin(tj) for tj in twice_js]
    edges = []
    for k, s in enumerate(spins):
        reg.add_segment(f"u{k + 1}", "X", "Y")
        edges.append(sn.Edge(f"e{k}", ((f"u{k + 1}", False),), "X", "Y", s))
    verts = {v: sn.intertwiner_basis(tuple((s, d) for s in spins))[0]
             for v, d in (("X", "out"), ("Y", "in"))}
    return sn.network(reg, edges, verts)


def _random_motif(rng, name, avoid=None):
    """Seeded network on a motif with spins 1/2 or 1; with ``avoid``, spins
    differ from it."""
    sk = _motif_skeleton(name)
    for _ in range(500):
        tjs = tuple(int(t) for t in rng.integers(1, 3, size=len(sk)))
        if avoid is not None and tjs == avoid:
            continue
        n = _build(sk, tjs, rng)
        if n is not None:
            return n, tjs
    raise RuntimeError(f"no admissible spins for motif {name}")


# ---------------------------------------------------------------------------
# references computed from documents

def _components(node) -> np.ndarray:
    arr = np.asarray(node, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def single_segment_ip(doc_a: dict, doc_b: dict) -> complex:
    """<a, b> for two documents on one skeleton whose edges are single,
    distinct segments.

    Each segment's Haar integral of conj(D^ja) D^jb is delta(ja, jb)/d times
    the identification of both index pairs (Schur orthogonality), so every
    vertex slot of ``a`` is paired with the same slot of ``b``:
    <a, b> = prod_e 1/d_e * prod_v <iota^a_v, iota^b_v>, zero if any spin differs.
    """
    spins_a = {e["id"]: e["twice_j"] for e in doc_a["edges"]}
    spins_b = {e["id"]: e["twice_j"] for e in doc_b["edges"]}
    if spins_a != spins_b:
        return 0j
    value = complex(1.0 / math.prod(tj + 1 for tj in spins_a.values()))
    for v, spec in doc_a["intertwiners"].items():
        value *= np.vdot(_components(spec["components"]),
                         _components(doc_b["intertwiners"][v]["components"]))
    return value


def rotation_averaged_cycle(doc: dict, k: int) -> complex:
    """Orientation-preserving averaged <a, a> on a k-cycle with loops.

    The orientation-preserving correspondences are the k rotations; a
    rotation carries vertex X_i with its slots (by role: outgoing cycle
    edge, incoming cycle edge, loop out, loop in) to X_{i+r}.  With uniform
    spins each term is a ``single_segment_ip`` of role-aligned tensors.
    """
    spins = {e["id"]: e["twice_j"] for e in doc["edges"]}
    slots: dict = {}
    for e in doc["edges"]:
        slots.setdefault(e["source"], []).append((e["id"], "out"))
        slots.setdefault(e["target"], []).append((e["id"], "in"))
    aligned = []
    for i in range(k):
        order = [(f"c{i}", "out"), (f"c{(i - 1) % k}", "in"), (f"l{i}", "out"), (f"l{i}", "in")]
        comps = _components(doc["intertwiners"][f"X{i}"]["components"])
        aligned.append(np.transpose(comps, [slots[f"X{i}"].index(s) for s in order]))
    scale = 1.0 / math.prod(tj + 1 for tj in spins.values())
    return complex(sum(scale * math.prod(np.vdot(aligned[i], aligned[(i + r) % k])
                                         for i in range(k))
                       for r in range(k)))


# ---------------------------------------------------------------------------
# set-up: documents and manifest

class _Writer:
    def __init__(self, directory: Path):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops: list[dict] = []
        self.docs: dict[str, dict] = {}

    def doc(self, name: str, net) -> str:
        sn = _spinnet()
        text = sn.dumps_document(sn.network_to_document(net))
        self.docs[name] = json.loads(text)
        (self.dir / name).write_text(text)
        return name

    def op(self, label: str, argv: list, check: dict) -> None:
        self.ops.append({"label": label, "argv": argv, "check": check})

    def finish(self) -> None:
        (self.dir / "ops.json").write_text(json.dumps(self.ops, indent=1) + "\n")


def _web_docs(w: _Writer):
    from spinnet.blipweb import build_phi, build_tassel
    psi = w.doc("web_psi.json", build_tassel(2).network)
    phi = w.doc("web_phi.json", build_phi(2, -1).network)
    return psi, phi


def _ip_inputs(w: _Writer, rng) -> None:
    for tjs in EXACT_THETAS:
        name = w.doc("theta_" + "_".join(map(str, tjs)) + ".json", _theta(tjs))
        ref = 1.0 / math.prod(tj + 1 for tj in tjs)
        w.op(f"ip theta{tjs}", ["ip", name, name],
             {"kind": "scalar", "re": ref, "im": 0.0, "structural_zero": False})
    psi, phi = _web_docs(w)
    # Paper values: the generic web overlap and the web norm at N=2.
    w.op("ip web psi.phi", ["ip", psi, phi],
         {"kind": "scalar", "re": 1 / 48, "im": 0.0, "structural_zero": False})
    w.op("ip web psi.psi", ["ip", psi, psi],
         {"kind": "scalar", "re": 7 / 108, "im": 0.0, "structural_zero": False})
    for motif in MOTIFS:
        a, tjs = _random_motif(rng, motif)
        same = _build(_motif_skeleton(motif), tjs, rng)
        other, _ = _random_motif(rng, motif, avoid=tjs)
        na = w.doc(f"{motif}_a.json", a)
        for tag, net, zero in (("same", same, False), ("zero", other, True)):
            nb = w.doc(f"{motif}_{tag}.json", net)
            ref = single_segment_ip(w.docs[na], w.docs[nb])
            w.op(f"ip {motif} {tag}", ["ip", na, nb],
                 {"kind": "scalar", "re": ref.real, "im": ref.imag, "structural_zero": zero})


def _mc_inputs(w: _Writer, rng) -> None:
    psi, phi = _web_docs(w)
    for case, samples in MC_CASES:
        seed = int(rng.integers(0, 2**31))
        if case == "web":
            a, b, ref, label = psi, phi, 1 / 48, "web psi.phi"
        else:
            a = b = w.doc("theta_" + "_".join(map(str, case)) + ".json", _theta(case))
            ref, label = 1.0 / math.prod(tj + 1 for tj in case), f"theta{case}"
        w.op(f"ip --mc {samples} {label}", ["ip", a, b, "--mc", str(samples), "--seed", str(seed)],
             {"kind": "mc", "re": ref, "im": 0.0, "samples": samples, "seed": seed})


def _averaged_inputs(w: _Writer, rng) -> None:
    theta = w.doc("theta_1_1_2.json", _theta((1, 1, 2)))
    w.op("dip theta(1,1,2)", ["dip", theta, theta], {"kind": "dip", "re": 1 / 3, "count": 12})
    # Spins stay fixed so the seed changes only intertwiner coefficients,
    # not the amount of work.
    motif_spins = {"theta": (1, 1, 2), "figure8": (1, 2), "twogon": (2, 2),
                   "dumbbell": (1, 2, 1), "bouquet3": (1, 1, 2)}
    names = [w.doc(f"gram_{m}.json", _build(_motif_skeleton(m), motif_spins[m], rng))
             for m in MOTIFS]
    w.op("gram five motifs", ["gram", *names], {"kind": "gram", "size": len(names)})
    # 3-cycle: dihedral group (6) times loop flips (2^3) = 48 classes.
    c3 = w.doc("cycle3.json", _build(_cycle_skeleton(3), (1,) * 6, rng))
    w.op("dip 3-cycle", ["dip", c3, c3], {"kind": "dip_self", "count": 48})
    # 4-cycle, orientation preserving: the 4 rotations.  The full 4-cycle
    # (128 classes from 8! * 2^8 candidates) takes tens of seconds.
    c4 = w.doc("cycle4.json", _build(_cycle_skeleton(4), (1, 2) * 4, rng))
    ref = rotation_averaged_cycle(w.docs[c4], 4)
    w.op("dip 4-cycle orientation-preserving",
         ["dip", c4, c4, "--orientation-preserving-only"],
         {"kind": "dip", "re": ref.real, "im": ref.imag, "count": 4})


def _web_inputs(w: _Writer, rng) -> None:
    for n in WEB_TRUNCATIONS:
        i0 = int(rng.choice(np.arange(-n + (n % 2 == 0), n, 2)))
        w.op(f"section4 obs1 N={n} i0={i0}",
             ["section4", "--which", "obs1", "--truncation", str(n), "--i0", str(i0)],
             {"kind": "obs1", "re": 1 / 64, "truncation": n, "i0": i0})
        w.op(f"section4 obs2 N={n}", ["section4", "--which", "obs2", "--truncation", str(n)],
             {"kind": "obs2", "re": 1 / 128, "truncation": n})


def write_inputs(workload: str, seed: int, directory) -> None:
    """Write the workload's documents and manifest; same seed, same bytes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(directory)
    writers = {"exact": (_ip_inputs, _averaged_inputs, _web_inputs), "mc": (_mc_inputs,)}
    for writer in writers[workload]:
        writer(w, rng)
    w.finish()


# ---------------------------------------------------------------------------
# checks

def _close(got: float, want: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


def _check_scalar(spec, r):
    if not (_close(r["re"], spec["re"]) and _close(r["im"], spec["im"])):
        return f"value {r['re']}{r['im']:+}i, want {spec['re']}{spec['im']:+}i"
    if r["structural_zero"] != spec["structural_zero"]:
        return f"structural_zero {r['structural_zero']}, want {spec['structural_zero']}"
    return None


def _check_mc(spec, r):
    if r["samples"] != spec["samples"] or r["seed"] != spec["seed"]:
        return f"report echoes samples={r['samples']} seed={r['seed']}"
    tol = MC_SIGMAS * r["stderr"]
    if not (r["stderr"] > 0 and abs(r["re"] - spec["re"]) <= tol
            and abs(r["im"] - spec["im"]) <= tol):
        return f"mean {r['re']}{r['im']:+}i not within {MC_SIGMAS} stderr ({r['stderr']}) of {spec['re']}"
    return None


def _check_dip(spec, r):
    if r["correspondence_count"] != spec["count"]:
        return f"correspondence_count {r['correspondence_count']}, want {spec['count']}"
    if spec["kind"] == "dip_self":
        # <a, a> of a positive semidefinite Hermitian pairing
        if r["re"] < -1e-12 or abs(r["im"]) > 1e-12 * max(1.0, abs(r["re"])):
            return f"self pairing {r['re']}{r['im']:+}i is not real and non-negative"
        return None
    if not (_close(r["re"], spec["re"]) and _close(r["im"], spec.get("im", 0.0))):
        return f"value {r['re']}{r['im']:+}i, want {spec['re']}"
    return None


def _check_gram(spec, r):
    g = _components(r["matrix"])
    if r["size"] != spec["size"] or g.shape != (spec["size"],) * 2:
        return f"size {r['size']} / shape {g.shape}, want {spec['size']}"
    if np.max(np.abs(g - g.conj().T)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        return "matrix is not Hermitian"
    if r["min_eigenvalue"] < -1e-12:
        return f"min_eigenvalue {r['min_eigenvalue']} < -1e-12"
    return None


def _check_obs1(spec, r):
    if (r["truncation"], r["i0"], r["stable"]) != (spec["truncation"], spec["i0"], True):
        return f"report echoes truncation={r['truncation']} i0={r['i0']} stable={r['stable']}"
    if not (_close(r["re"], spec["re"]) and _close(r["im"], 0.0)):
        return f"obs1 {r['re']}{r['im']:+}i, want {spec['re']}"
    return None


def _check_obs2(spec, r):
    n = spec["truncation"]
    cols = [v["i"] for v in r["values"]]
    if cols != list(range(-n, n)):
        return f"obs2 columns {cols}, want {-n}..{n - 1}"
    for v in r["values"]:
        if not (_close(v["re"], spec["re"]) and _close(v["im"], 0.0)):
            return f"obs2 column {v['i']}: {v['re']}{v['im']:+}i, want {spec['re']}"
    return None


_CHECKS = {"scalar": _check_scalar, "mc": _check_mc, "dip": _check_dip,
           "dip_self": _check_dip, "gram": _check_gram, "obs1": _check_obs1,
           "obs2": _check_obs2}


def make_check(spec: dict) -> Callable[[dict], str | None]:
    fn = _CHECKS[spec["kind"]]

    def check(report: dict) -> str | None:
        try:
            return fn(spec, report)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed report: {exc!r}"
    return check


def load_ops(directory) -> list[Op]:
    """Operations of a written workload, with document paths made absolute."""
    directory = Path(directory)
    ops = []
    for entry in json.loads((directory / "ops.json").read_text()):
        argv = tuple(str(directory / a) if a.endswith(".json") else a for a in entry["argv"])
        ops.append(Op(entry["label"], argv, make_check(entry["check"])))
    return ops
