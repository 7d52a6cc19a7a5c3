"""Command-line interface.

Subcommands wrap the library: ``eval`` (evaluate a network document at a
holonomy document), ``ip`` (exact or Monte Carlo inner product), ``dip``
(group-averaged inner product), ``gram`` (averaged Gram matrix of a file
list), ``section4`` (the four-curve web observables and their sampled
geometry), and ``haar-projector`` (the invariant projector for a spin
list).  Reports are JSON on stdout with floats at 17 significant digits.

Exit codes: 0 on success, 2 for validation failures (malformed documents,
bad arguments, impossible networks, inputs over a size budget, a result
that is not finite) and for an output file that cannot be written, 3 when a
computation fails one of its advertised numerical guarantees.

The environment variable SPINNET_SEED supplies the default Monte Carlo
seed; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .rep_core import Spin
from .tensor_engine import GroupFactor, haar_project
from .network_model import InvalidNetworkError
from .inner_product import exact_inner_product, mc_inner_product, structural_zero, evaluate
from .diffeo_average import _averaged_pairing, averaged_gram
from .blipweb import (ToleranceError, observation_one, observation_two,
                      emit_geometry, write_curves_csv, _check_truncation,
                      _MAX_TRUNCATION)
from .documents import (DocumentError, read_network, read_holonomies,
                        dumps_document, _complex_nested)

__all__ = ["main"]

# haar-projector prints every entry of its projector, and gram every entry of
# its matrix, so each refuses, from its arguments alone, a report beyond this
# many entries (about 140 MB of text for ten spin-1/2 legs, or 1025
# documents), well inside the library's budget for the projector itself.
_MAX_REPORT_ENTRIES = 2**20


def _resolve_seed(explicit):
    if explicit is not None:
        return explicit
    env = os.environ.get("SPINNET_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SPINNET_SEED must be an integer, got {env!r}") from None


def _scalar(value: complex) -> dict:
    return {"re": float(np.real(value)), "im": float(np.imag(value))}


def _cmd_eval(args) -> dict:
    n = read_network(args.network)
    h = read_holonomies(args.holonomies)
    return _scalar(evaluate(n, h))


def _read_pair(args):
    a = read_network(args.network_a)
    return a, a if args.network_b == args.network_a else read_network(args.network_b)


def _cmd_ip(args) -> dict:
    a, b = _read_pair(args)
    if args.mc is not None:
        seed = _resolve_seed(args.seed)
        value, stderr = mc_inner_product(a, b, args.mc, seed=seed)
        report = _scalar(value)
        report.update({"stderr": float(stderr), "samples": args.mc, "seed": seed})
        return report
    report = _scalar(exact_inner_product(a, b))
    report["structural_zero"] = structural_zero(a, b)
    return report


def _cmd_dip(args) -> dict:
    a, b = _read_pair(args)
    value, count = _averaged_pairing(a, b, args.orientation_preserving_only)
    report = _scalar(value)
    report["correspondence_count"] = count
    return report


def _cmd_gram(args) -> dict:
    size = len(args.networks)
    if size * size > _MAX_REPORT_ENTRIES:
        raise ValueError(
            f"a Gram matrix of {size} documents has {size * size} entries, over the limit "
            f"of {_MAX_REPORT_ENTRIES} (2^20) that gram prints")
    read = {p: read_network(p) for p in dict.fromkeys(args.networks)}
    nets = [read[p] for p in args.networks]
    families = [[(1.0, n)] for n in nets]
    g = averaged_gram(families, orientation_preserving_only=args.orientation_preserving_only)
    eigs = np.linalg.eigvalsh(g)
    return {
        "size": len(nets),
        "matrix": _complex_nested(np.asarray(g, dtype=complex)),
        "min_eigenvalue": float(eigs.min()),
    }


def _cmd_section4(args) -> dict:
    n = args.truncation
    _check_truncation(n)
    if args.which == "obs1" and (args.i0 is None or args.i0 % 2 == 0 or not -n <= args.i0 < n):
        raise ValueError(
            f"obs1 needs --i0, an odd column index from {-n} to {n - 1}, got {args.i0}")
    # the geometry checks its own limits before it samples, so an oversized
    # request fails before the observables are computed
    curves = None
    if args.emit_curves is not None:
        curves = emit_geometry(n, args.resolution)
    report = {"which": args.which, "truncation": n}
    if args.which == "obs1":
        value = observation_one(n, args.i0)
        report["i0"] = args.i0
        report.update(_scalar(value))
        report["stable"] = True
    else:
        values = []
        for i in range(-n, n):
            entry = {"i": i}
            entry.update(_scalar(observation_two(n, i)))
            values.append(entry)
        report["values"] = values
    if curves is not None:
        write_curves_csv(args.emit_curves, curves)
        report["curves_csv"] = str(args.emit_curves)
        report["curve_ids"] = [c.curve_id for c in curves]
    return report


def _cmd_haar_projector(args) -> dict:
    spins = [Spin(tj) for tj in args.spins]
    dim = math.prod(s.dim for s in spins)
    if dim * dim > _MAX_REPORT_ENTRIES:
        raise ValueError(
            f"a projector on dimension {dim} has {dim * dim} entries, over the limit "
            f"of {_MAX_REPORT_ENTRIES} (2^20) that haar-projector prints")
    factors = [GroupFactor("g", s, conjugated=False, inverted=False,
                           row_leg=f"r{k}", col_leg=f"c{k}")
               for k, s in enumerate(spins)]
    proj = haar_project(factors).data
    rank = int(round(float(np.trace(proj.reshape(dim, dim)).real)))
    return {
        "twice_j": list(args.spins),
        "dimension": dim,
        "rank": rank,
        "projector": _complex_nested(proj),
    }


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnet",
        description="Spin-network states on SU(2): evaluation, Haar-measure "
                    "inner products, group averaging, and the four-curve web "
                    "observables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a network at a holonomy assignment")
    p.add_argument("network", help="network document (JSON)")
    p.add_argument("holonomies", help="holonomy document (JSON)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ip", help="inner product of two networks over one registry")
    p.add_argument("network_a")
    p.add_argument("network_b")
    p.add_argument("--mc", type=int, default=None, metavar="N",
                   help="estimate by Monte Carlo with N samples instead of exactly")
    p.add_argument("--seed", type=int, default=None,
                   help="Monte Carlo seed (default: SPINNET_SEED or 0)")
    p.set_defaults(func=_cmd_ip)

    p = sub.add_parser("dip", help="diffeomorphism-averaged inner product")
    p.add_argument("network_a")
    p.add_argument("network_b")
    p.add_argument("--orientation-preserving-only", action="store_true",
                   help="restrict correspondences to orientation-preserving ones")
    p.set_defaults(func=_cmd_dip)

    p = sub.add_parser("gram", help="averaged Gram matrix of a list of networks")
    p.add_argument("networks", nargs="+", help="network documents (JSON)")
    p.add_argument("--orientation-preserving-only", action="store_true")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("section4", help="four-curve web observables")
    p.add_argument("--truncation", type=int, required=True, metavar="N",
                   help="number of columns on each side of the center "
                        f"(1 to {_MAX_TRUNCATION})")
    p.add_argument("--which", choices=("obs1", "obs2"), required=True,
                   help="obs1: overlap with the rerouted state; "
                        "obs2: overlaps with all single-column sign swaps")
    p.add_argument("--i0", type=int, default=None,
                   help="odd reroute column for obs1")
    p.add_argument("--emit-curves", metavar="PATH", default=None,
                   help="also write sampled curve polylines as CSV")
    p.add_argument("--resolution", type=int, default=64,
                   help="samples per arc for --emit-curves (default 64; "
                        "at most 2^20 points over the four curves)")
    p.set_defaults(func=_cmd_section4)

    p = sub.add_parser("haar-projector",
                       help="projector onto the invariant subspace of a spin list")
    p.add_argument("--spins", type=int, nargs="+", required=True, metavar="TWICE_J",
                   help="spins as doubled integers, e.g. --spins 1 1 2")
    p.set_defaults(func=_cmd_haar_projector)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # rendered here, so a non-finite result is refused like any other
        text = dumps_document(args.func(args))
    except (DocumentError, InvalidNetworkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
