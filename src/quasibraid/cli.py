"""Command-line interface.

Subcommands: ``analyze`` (branch locus and rotation), ``braid`` (word along a
loop, or a quasipositive factorization from a lollipop spec), ``bplus``
(sample the crossing-locus graph over a rectangle), ``realize`` (curve and
loop for a factorization), and ``verify`` (refinement-invariance and
exponent-sum checks, exit 0/1).  ``--validate FILE`` is a standalone mode
that round-trips any machine JSON this tool emits and reports whether it
matches its schema.

Exit codes: 0 success, 1 verify-check failure, 2 input error, 3 numerical
failure.  Errors are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .branch import branch_data_from_json, branch_data_to_json, prepare
from .crossing_graph import (
    graph_from_json,
    graph_to_json,
    sample_crossing_graph,
)
from .errors import InputError, NumericalFailure
from .monodromy import (
    LollipopSpec,
    braid_along,
    enclosed_count,
    lollipop_loop,
    qp_factorization,
)
from .paths import bounding_box, loop_from_json, loop_to_json
from .poly import (
    BivariatePolynomial,
    bivariate_from_json,
    bivariate_to_json,
    parse_bivariate_text,
)
from .realization import realize
from .render import render_plane_svg
from .words import (
    closure_components,
    expand_factorization,
    exponent_sum,
    foata_form,
    free_reduce,
    qpf_from_json,
    qpf_to_json,
    word_from_json,
    word_to_json,
    word_to_text,
)

__all__ = ["main", "build_parser"]

DEFAULT_PERTURB_BUDGET = 1e-2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasibraid",
        description="Braid words, quasipositive factorizations, and crossing "
        "graphs of algebraic functions.",
    )
    parser.add_argument(
        "--theta",
        type=float,
        default=None,
        help="override the w-rotation angle instead of selecting one",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--validate",
        metavar="FILE",
        default=None,
        help="validate a machine JSON file emitted by this tool and exit",
    )
    sub = parser.add_subparsers(dest="command")

    analyze = sub.add_parser(
        "analyze", help="branch locus, genericity, rotation"
    )
    analyze.add_argument("--poly", required=True, help="polynomial file or expression")
    analyze.add_argument(
        "--budget",
        type=float,
        default=None,
        help="perturbation budget for making the branch locus generic",
    )
    analyze.add_argument("--json", dest="json_out", default=None, metavar="OUT")

    braid = sub.add_parser("braid", help="braid word along a loop")
    braid.add_argument("--poly", required=True)
    braid.add_argument("--loop", default=None, help="loop JSON file")
    braid.add_argument(
        "--qp",
        action="store_true",
        help="read a quasipositive factorization off a lollipop loop",
    )
    braid.add_argument(
        "--targets", default=None, help="comma-separated branch point indices"
    )
    braid.add_argument("--basepoint", default=None, help="re,im")
    braid.add_argument("--radius", type=float, default=None)
    braid.add_argument("--json", dest="json_out", default=None, metavar="OUT")

    bplus = sub.add_parser("bplus", help="sample the crossing-locus graph")
    bplus.add_argument("--poly", required=True)
    bplus.add_argument("--region", required=True, help="x0,y0,x1,y1")
    bplus.add_argument("--res", required=True, type=int)
    bplus.add_argument("--svg", default=None, metavar="OUT")

    rz = sub.add_parser("realize", help="curve and loop for a factorization")
    rz.add_argument("--qpf", required=True, help="factorization JSON file")
    rz.add_argument("--svg", default=None, metavar="OUT")
    rz.add_argument("--json", dest="json_out", default=None, metavar="OUT")

    verify = sub.add_parser(
        "verify", help="refinement-invariance and exponent-sum checks"
    )
    verify.add_argument("--poly", required=True)
    verify.add_argument("--loop", required=True)
    return parser


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_poly(value: str) -> BivariatePolynomial:
    if os.path.isfile(value):
        return bivariate_from_json(_load_json_file(value))
    return parse_bivariate_text(value)


def _emit(payload: dict, out: str | None) -> None:
    if out is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _write_text(text: str, out: str) -> None:
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6f} {sign} {abs(z.imag):.6f}i"


def _cmd_analyze(args: argparse.Namespace) -> int:
    budget = DEFAULT_PERTURB_BUDGET if args.budget is None else args.budget
    f, data = prepare(_load_poly(args.poly), args.theta, budget)
    print(f"w-degree: {f.w_degree}")
    print(f"branch points ({len(data.points)}):")
    for point in data.points:
        print(f"  z = {_fmt_complex(point.z)}  (multiplicity {point.multiplicity})")
    print(f"generic: {'yes' if data.generic else 'no'}")
    print(f"theta: {data.rotation_theta:.6f}")
    if data.perturbation is None:
        print("perturbation: none")
    else:
        print(f"perturbation: {_fmt_complex(data.perturbation)}")
    _emit(branch_data_to_json(data), args.json_out)
    return 0


def _parse_lollipop(args: argparse.Namespace) -> LollipopSpec:
    missing = [
        name
        for name, value in (
            ("--targets", args.targets),
            ("--basepoint", args.basepoint),
            ("--radius", args.radius),
        )
        if value is None
    ]
    if missing:
        raise InputError(f"--qp needs {', '.join(missing)}")
    try:
        targets = tuple(int(part) for part in args.targets.split(","))
        re_s, im_s = args.basepoint.split(",")
        basepoint = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise InputError(f"malformed lollipop arguments: {exc}") from exc
    return LollipopSpec(
        basepoint=basepoint, targets=targets, circle_radius=args.radius
    )


def _cmd_braid(args: argparse.Namespace) -> int:
    if args.qp and args.loop is not None:
        raise InputError("--qp builds its own lollipop loop; drop --loop")
    if not args.qp and args.loop is None:
        raise InputError("braid needs --loop, or --qp with a lollipop spec")
    f, data = prepare(_load_poly(args.poly), args.theta)
    if args.qp:
        spec = _parse_lollipop(args)
        qpf = qp_factorization(f, data, spec)
        word = expand_factorization(qpf)
        print(f"factors ({len(qpf.bands)}):")
        for band in qpf.bands:
            conj = word_to_text(
                type(word)(qpf.strands, band.conjugator)
            ) or "(empty)"
            print(f"  conjugator {conj}  generator s{band.index}")
        print(f"word: {word_to_text(word) or '(empty)'}")
        _emit(qpf_to_json(qpf), args.json_out)
        return 0
    loop = loop_from_json(_load_json_file(args.loop))
    word = braid_along(f, data, loop)
    reduced = free_reduce(word)
    print(f"strands: {word.strands}")
    print(f"word: {word_to_text(word) or '(empty)'}")
    print(f"reduced: {word_to_text(reduced) or '(empty)'}")
    print(f"exponent sum: {exponent_sum(word)}")
    print(f"closure components: {closure_components(word)}")
    _emit(word_to_json(word), args.json_out)
    return 0


def _cmd_bplus(args: argparse.Namespace) -> int:
    f, data = prepare(_load_poly(args.poly), args.theta)
    try:
        region = tuple(float(part) for part in args.region.split(","))
    except ValueError as exc:
        raise InputError(f"malformed region: {exc}") from exc
    if len(region) != 4:
        raise InputError("region must be x0,y0,x1,y1")
    graph = sample_crossing_graph(f, data, region, args.res)
    labels = sorted({e.label for e in graph.edges})
    print(f"strands: {graph.strands}")
    print(f"edges: {len(graph.edges)} (labels {labels})")
    print(f"flagged cells: {len(graph.flagged)}")
    if args.svg:
        _write_text(render_plane_svg(graph, None, data), args.svg)
        print(f"svg: {args.svg}")
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    qpf = qpf_from_json(_load_json_file(args.qpf))
    f, loop, verification = realize(qpf)
    print(f"strands: {qpf.strands}")
    print(f"w-degree: {f.w_degree}")
    print(f"verification: {word_to_text(verification) or '(empty)'}")
    print(f"reduced: {word_to_text(free_reduce(verification)) or '(empty)'}")
    _emit(
        {
            "polynomial": bivariate_to_json(f),
            "loop": loop_to_json(loop),
            "verification": word_to_json(verification),
        },
        args.json_out,
    )
    if args.svg:
        _, data = prepare(f, args.theta)
        box = bounding_box(
            tuple(data.values()) + tuple(loop.primitives)
        )
        pad = 0.35 * max(box[2] - box[0], box[3] - box[1], 1.0)
        region = (box[0] - pad, box[1] - pad, box[2] + pad, box[3] + pad)
        graph = sample_crossing_graph(f, data, region, 96)
        _write_text(render_plane_svg(graph, loop, data), args.svg)
        print(f"svg: {args.svg}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    f, data = prepare(_load_poly(args.poly), args.theta)
    loop = loop_from_json(_load_json_file(args.loop))
    coarse = braid_along(f, data, loop)
    fine = braid_along(f, data, loop, step_cap_fraction=1.0 / 512.0)
    same = foata_form(coarse) == foata_form(fine)
    print(
        "refinement invariance: "
        + ("PASS" if same else
           f"FAIL ({word_to_text(coarse)} vs {word_to_text(fine)})")
    )
    e = exponent_sum(coarse)
    enclosed = enclosed_count(loop, data)
    count_ok = e == enclosed
    print(
        "exponent sum: "
        + ("PASS" if count_ok else "FAIL")
        + f" (word {e}, enclosed {enclosed})"
    )
    return 0 if same and count_ok else 1


_SCHEMAS = (
    ("polynomial", lambda p: {"n", "coeffs_w_desc"} <= set(p), bivariate_from_json, bivariate_to_json),
    ("branch data", lambda p: {"points", "generic"} <= set(p), branch_data_from_json, branch_data_to_json),
    ("loop", lambda p: {"segments", "closed"} <= set(p), loop_from_json, loop_to_json),
    ("factorization", lambda p: {"n", "factors"} <= set(p), qpf_from_json, qpf_to_json),
    ("braid word", lambda p: {"n", "letters"} <= set(p), word_from_json, word_to_json),
    ("crossing graph", lambda p: {"strands", "edges", "region"} <= set(p), graph_from_json, graph_to_json),
)


def _validate_payload(payload: dict) -> str:
    """Round-trip one payload through its schema; returns the kind name."""
    if not isinstance(payload, dict):
        raise InputError("JSON does not match any known schema")
    if {"polynomial", "loop", "verification"} <= set(payload):
        _validate_payload(payload["polynomial"])
        _validate_payload(payload["loop"])
        _validate_payload(payload["verification"])
        return "realization bundle"
    for kind, detect, load, dump in _SCHEMAS:
        if not detect(payload):
            continue
        rebuilt = dump(load(payload))
        before = json.dumps(payload, sort_keys=True)
        after = json.dumps(rebuilt, sort_keys=True)
        if before != after:
            raise InputError(
                f"{kind} JSON does not round-trip through its schema"
            )
        return kind
    raise InputError("JSON does not match any known schema")


def _cmd_validate(path: str) -> int:
    payload = _load_json_file(path)
    kind = _validate_payload(payload)
    print(f"valid {kind} JSON")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.validate is not None:
            if args.command is not None:
                raise InputError(
                    "--validate is a standalone mode; do not combine it with "
                    "a subcommand"
                )
            return _cmd_validate(args.validate)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 2
        handler = {
            "analyze": _cmd_analyze,
            "braid": _cmd_braid,
            "bplus": _cmd_bplus,
            "realize": _cmd_realize,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except InputError as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        report = {"error": "numerical", "message": str(exc), "diagnostics": exc.diagnostics}
        print(json.dumps(_jsonable(report)), file=sys.stderr)
        return 3


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


if __name__ == "__main__":
    sys.exit(main())
