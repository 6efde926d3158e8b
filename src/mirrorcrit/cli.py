"""Command-line interface.

    mirrorcrit analyze PATH [--format text|structured]
    mirrorcrit oracle PATH [--max-enum N]
    mirrorcrit random [--seed N] [size options]
    mirrorcrit version

`analyze` runs the full factorization pipeline and exits 0 when every
applicable verdict passes, 2 when any fails and 1 on input errors.  A
command-line usage error also exits 1.  `oracle` cross-checks the algebra
against exhaustive enumeration; on a plain graph file, or one whose symmetry
data `parse` rejects, it runs the plain-graph checks only.  `random` prints
a seeded random symmetric graph in the text format.  Every command exits 3
on an internal error (an exception that is not about bad input, reported as
`internal error: ...` with the traceback on stderr).  `main(argv)` may be
called repeatedly in one process; it builds its parser once.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import sys
import traceback
from pathlib import Path

from . import __version__
from .critical import (
    DEFAULT_ORACLE_LIMIT,
    AdjointPair,
    OracleLimitError,
    bicycle_masks_bruteforce,
    count_maximal_forests_bruteforce,
    subspace_masks,
)
from .factorization import SymmetryMaps, build_maps, main_theorem_verdict
from .graphfile import ParseError, parse, parse_plain, serialize
from .graphs import InvalidSymmetricGraph
from .randgraph import random_symmetric_graph

SCHEMA_VERSION = 1


def _group_doc(group):
    return {
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
        "description": group.describe(),
    }


def report_document(maps: SymmetryMaps, path: str, raw: bytes) -> dict:
    """Stable-keyed document with every report field.

    Deterministic for a fixed input file except for `generated_at`,
    which consumers should ignore when comparing documents.
    """
    g = maps.graph
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_name": "mirrorcrit",
        "tool_version": __version__,
        "input_path": path,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "graph": {
            "vertices": g.graph.n_vertices,
            "edges": g.graph.n_edges,
            "left_vertices": len(g.left_vertices),
            "fixed_vertices": len(g.fixed_vertices),
            "right_vertices": len(g.right_vertices),
            "left_edges": len(g.left_edges),
            "fixed_edges": len(g.fixed_edges),
            "right_edges": len(g.right_edges),
            "plus_vertices": maps.dec.plus.n_vertices,
            "plus_edges": maps.dec.plus.n_edges,
            "minus_vertices": maps.dec.minus.n_vertices,
            "minus_edges": maps.dec.minus.n_edges,
        },
        "groups": {
            "K_G": _group_doc(maps.pair_g.critical_group),
            "K_plus": _group_doc(maps.pair_plus.critical_group),
            "K_minus": _group_doc(maps.pair_minus.critical_group),
            "K_plus_minus": _group_doc(maps.pair_union.critical_group),
            "ker_f_star": _group_doc(maps.ker_f),
            "coker_f_star": _group_doc(maps.coker_f),
            "ker_ft_star": _group_doc(maps.ker_ft),
            "coker_ft_star": _group_doc(maps.coker_ft),
        },
        "kappa": {
            "G": maps.kappa_g,
            "G_plus": maps.kappa_plus,
            "G_minus": maps.kappa_minus,
        },
        "exponent": maps.exponent,
        "axis_components": maps.axis_components[0],
        "applicability": {
            "plus_connected": maps.plus_connected,
            "axis_nonempty": maps.axis_nonempty,
            "axis_forest": maps.axis_forest,
            "theorem_applicable": maps.theorem_applicable,
        },
        "bicycles": {
            "dim_phi_fixed": maps.phi_bicycles.dim,
            "dim_psi_fixed": maps.psi_bicycles.dim,
        },
        "snake_dimensions": {
            "dim_Z_psi": maps.z_psi.dim,
            "dim_B_psi": maps.b_psi.dim,
            "dim_Z_phi": maps.z_phi.dim,
            "dim_B_phi": maps.b_phi.dim,
            "dim_cap_psi": maps.psi_bicycles.dim,
            "dim_cap_phi": maps.phi_bicycles.dim,
            "dim_sum_psi": maps.sum_psi.dim,
            "dim_sum_phi": maps.sum_phi.dim,
        },
        "verdicts": dict(maps.verdicts),
        "overall_pass": maps.overall_pass,
    }
    return doc


def render_text(doc: dict) -> str:
    g = doc["graph"]
    lines = [
        f"mirrorcrit {doc['tool_version']} analysis (schema {doc['schema_version']})",
        f"input: {doc['input_path']}",
        f"sha256: {doc['input_sha256']}",
        (
            f"graph: {g['vertices']} vertices "
            f"({g['left_vertices']} L / {g['fixed_vertices']} F / {g['right_vertices']} R), "
            f"{g['edges']} edges "
            f"({g['left_edges']} L / {g['fixed_edges']} F / {g['right_edges']} R)"
        ),
        (
            f"derived: G+ has {g['plus_vertices']} vertices / {g['plus_edges']} edges, "
            f"G- has {g['minus_vertices']} vertices / {g['minus_edges']} edges"
        ),
        "groups:",
    ]
    names = {
        "K_G": "K(G)",
        "K_plus": "K(G+)",
        "K_minus": "K(G-)",
        "K_plus_minus": "K(G+) + K(G-)",
        "ker_f_star": "ker f*",
        "coker_f_star": "coker f*",
        "ker_ft_star": "ker (f^t)*",
        "coker_ft_star": "coker (f^t)*",
    }
    for key, label in names.items():
        lines.append(f"  {label:<16} {doc['groups'][key]['description']}")
    k = doc["kappa"]
    lines.append(
        f"spanning forests: kappa(G) = {k['G']}, kappa(G+) = {k['G_plus']}, "
        f"kappa(G-) = {k['G_minus']}"
    )
    lines.append(
        f"exponent |V^phi| - |E^phi| - 1 = {doc['exponent']}"
        f"  (axis components: {doc['axis_components']})"
    )
    app = doc["applicability"]
    lines.append(
        "hypotheses: plus graph connected: {plus_connected}; axis nonempty: "
        "{axis_nonempty}; axis forest: {axis_forest}; theorem applicable: "
        "{theorem_applicable}".format(**app)
    )
    b = doc["bicycles"]
    lines.append(
        f"bicycles: dim phi-fixed = {b['dim_phi_fixed']}, "
        f"dim psi-fixed = {b['dim_psi_fixed']}"
    )
    s = doc["snake_dimensions"]
    lines.append(
        "fixed-space dims: Z^psi={dim_Z_psi} B^psi={dim_B_psi} Z^phi={dim_Z_phi} "
        "B^phi={dim_B_phi} sums {dim_sum_psi}/{dim_sum_phi} "
        "intersections {dim_cap_psi}/{dim_cap_phi}".format(**s)
    )
    lines.append("verdicts:")
    for key, value in doc["verdicts"].items():
        status = "n/a " if value is None else ("PASS" if value else "FAIL")
        lines.append(f"  {status}  {key}")
    lines.append(f"overall: {'PASS' if doc['overall_pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    try:
        raw = Path(args.path).read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = main_theorem_verdict(parse(raw.decode("utf-8")))
    except (ParseError, InvalidSymmetricGraph, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = report_document(report, args.path, raw)
    if args.format == "structured":
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(doc), end="")
    return 0 if report.overall_pass else 2


def cmd_oracle(args) -> int:
    try:
        raw = Path(args.path).read_bytes()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    symmetric = None
    try:
        symmetric = parse(text)
        plain = symmetric.graph
    except (ParseError, InvalidSymmetricGraph):
        try:
            plain = parse_plain(text)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("note: no valid symmetry data; running plain-graph checks only")

    limit = args.max_enum
    agreements = []

    def check(line, agree):
        agreements.append(agree)
        print(f"{line}  {'ok' if agree else 'MISMATCH'}")

    try:
        # a symmetric input is checked against the analysis' own maps
        maps = None if symmetric is None else build_maps(symmetric.decompose())
        pair = AdjointPair(plain) if maps is None else maps.pair_g
        order = pair.critical_group.order()
        forests = count_maximal_forests_bruteforce(plain, limit)
        check(f"forest count: enumeration {forests} vs |K| {order}", order == forests)
        algebra = sorted(subspace_masks(pair.bicycle_space, limit))
        brute = bicycle_masks_bruteforce(plain, limit)
        check(
            f"bicycles: enumeration found {len(brute)}, algebra {len(algebra)}",
            algebra == brute,
        )
        if maps is not None:
            coker, fixed = maps.coker_f.order(), len(_fixed_masks(brute, maps.phi))
            check(
                f"coker f*: order {coker} vs {fixed} phi-fixed enumerated bicycles",
                coker == fixed,
            )
            brute_pm = bicycle_masks_bruteforce(maps.pair_union.graph, limit)
            ker, fixed = maps.ker_f.order(), len(_fixed_masks(brute_pm, maps.psi))
            check(f"ker f*: order {ker} vs {fixed} psi-fixed enumerated bicycles", ker == fixed)
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = all(agreements)
    print(f"oracle: {'all checks agree' if ok else 'DISAGREEMENT FOUND'}")
    return 0 if ok else 2


def _fixed_masks(masks, perm):
    """The edge-subset bitmasks that the index permutation perm maps to
    themselves (bit j goes to bit perm[j])."""
    return [m for m in masks if m == sum(((m >> j) & 1) << i for j, i in enumerate(perm))]


def cmd_random(args) -> int:
    try:
        g = random_symmetric_graph(
            seed=args.seed,
            n_left=args.left_vertices,
            n_fixed=args.fixed_vertices,
            n_left_edges=args.left_edges,
            n_fixed_edges=args.fixed_edges,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(f"# mirrorcrit random graph (seed {args.seed})\n")
    sys.stdout.write(serialize(g))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code of a failed verdict;
    a usage error is bad input, so it exits 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mirrorcrit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the factorization analysis on a graph file")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="cross-check against exhaustive enumeration")
    p.add_argument("path")
    p.add_argument(
        "--max-enum",
        type=int,
        default=DEFAULT_ORACLE_LIMIT,
        help="largest subset enumeration allowed (default 2^20)",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("random", help="print a seeded random symmetric graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--left-vertices", type=int, default=3)
    p.add_argument("--fixed-vertices", type=int, default=2)
    p.add_argument("--left-edges", type=int, default=5)
    p.add_argument("--fixed-edges", type=int, default=1)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("version", help="print the tool version")
    p.set_defaults(func=lambda args: (print(f"mirrorcrit {__version__}"), 0)[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # the commands handle bad input themselves; anything else is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
