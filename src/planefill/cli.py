"""Command-line front end: classify single matrices, write atlases of
equivalence classes, and run the verification suites.

All reports are UTF-8 JSON with fixed orderings, so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import affine as aff
from . import fillcurve as fc
from . import verify
from .gf import field_for_order

SUITES = ("plane-filling", "theorem-2.4", "theorem-4", "affine-6", "sziklai", "collinear")


def _parse_matrix(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"matrix entries must be integers: {exc}")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _emit(payload, out_path):
    text = json.dumps(payload) if not isinstance(payload, str) else payload
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_classify(args) -> int:
    spec = field_for_order(args.q)
    vals = args.matrix
    if args.affine:
        if len(vals) != 6:
            raise SystemExit2("--affine expects 6 comma-separated entries")
        m = aff.Matrix23.from_ints(spec, vals)
        if m.is_zero():
            raise SystemExit2("the zero matrix defines no curve")
        report = verify.affine_report(m)
    else:
        if len(vals) != 9:
            raise SystemExit2("expected 9 comma-separated entries")
        a = fc.Matrix3.from_ints(spec, vals)
        report = verify.decomposition_report(a)
    _emit(report.to_json(), args.out)
    return 0 if report.match else 1


def _projective_atlas(spec) -> list[dict]:
    entries = []
    for rep in fc.equivalence_representatives(spec):
        report = verify.decomposition_report(rep.matrix)
        canonical_equation = fc.build_FA(rep.matrix).to_list()
        entries.append(
            {
                "q": spec.q,
                "representative": rep.matrix.to_ints(),
                "case": rep.tag,
                "charpoly": report.charpoly,
                "minpoly": report.minpoly,
                "canonical_equation": canonical_equation,
                "components": {
                    "lines": report.observed["lines"],
                    "residual_degree": report.observed["residual_degree"],
                    "residual_kind": report.predicted["residual_kind"],
                },
                "orbit_size": rep.orbit_size,
                "match": report.match,
            }
        )
    return entries


def _affine_atlas(spec) -> list[dict]:
    q = spec.q
    populations: dict[str, int] = {}
    representatives: dict[str, aff.Matrix23] = {}
    for n in range(1, q**6):
        m = verify._matrix_at(aff.Matrix23, 6, spec, n)
        tag = aff.affine_tag(m)
        populations[tag] = populations.get(tag, 0) + 1
        representatives.setdefault(tag, m)
    order = (
        aff.AFFINE_FILLING, aff.AFFINE_I1, aff.AFFINE_I2, aff.AFFINE_I3,
        aff.AFFINE_II1, aff.AFFINE_II2, aff.AFFINE_II3,
        aff.AFFINE_III1, aff.AFFINE_III3,
    )
    entries = []
    for tag in order:
        if tag not in populations:
            continue
        m = representatives[tag]
        report = verify.affine_report(m)
        label = aff.classify_affine(m)
        entries.append(
            {
                "q": q,
                "label": tag,
                "representative": m.to_ints(),
                "canonical": label.canonical.to_ints(),
                "components": {
                    "lines": report.predicted["lines"],
                    "residual_degree": report.predicted["residual_degree"],
                    "residual_kind": report.predicted["residual_kind"],
                },
                "population": populations[tag],
                "match": report.match,
            }
        )
    return entries


def cmd_atlas(args) -> int:
    spec = field_for_order(args.q)
    if args.q > 9:
        raise SystemExit2("atlas enumeration is budgeted for q <= 9")
    entries = (
        _projective_atlas(spec) if args.family == "projective" else _affine_atlas(spec)
    )
    lines = "\n".join(json.dumps(e) for e in entries)
    _emit(lines, args.out)
    return 0 if all(e["match"] for e in entries) else 1


def cmd_verify(args) -> int:
    summary = verify.run_suite(args.suite, args.q, jobs=args.jobs, samples=args.samples)
    payload = {"suite": args.suite, "q": args.q, **_jsonable(summary)}
    _emit(payload, args.out)
    return 0 if summary["pass"] else 1


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class SystemExit2(Exception):
    """Usage errors that should exit with status 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planefill",
        description="plane-filling curves over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one matrix and audit its curve")
    p_classify.add_argument("--q", type=int, required=True)
    p_classify.add_argument("--matrix", type=_parse_matrix, required=True)
    p_classify.add_argument("--affine", action="store_true", help="treat the matrix as 2x3")
    p_classify.add_argument("--out", default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_atlas = sub.add_parser("atlas", help="one JSON line per equivalence class")
    p_atlas.add_argument("--q", type=int, required=True)
    p_atlas.add_argument("--family", choices=("projective", "affine"), required=True)
    p_atlas.add_argument("--out", default=None)
    p_atlas.set_defaults(func=cmd_atlas)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--q", type=int, required=True)
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--jobs", type=_positive_int, default=1)
    p_verify.add_argument("--samples", type=_positive_int, default=200)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flush here so a closed pipe is reported inside this block
        sys.stdout.flush()
        return code
    except (SystemExit2, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull so
        # the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
