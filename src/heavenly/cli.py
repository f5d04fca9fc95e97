"""Command-line interface: classify, identify, symmetry, lax-check, lambda,
reduce, legendre, singular, linearisable, basis-info.

Reports are stable-ordered and byte-identical across runs at the same seed
and flags; `--json` switches to machine-readable output and `--timing`
appends wall-clock timing (off by default to keep reports reproducible).
Exit codes: 0 success, 2 rejected input, 3 inconclusive sampling.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

from . import catalog
from .errors import (
    DegenerateChart,
    HeavenlyError,
    NoSamplePoint,
    NotInEF,
    NotInSpan,
    NotPurelyQuadratic,
    ParseError,
    UnsupportedDimension,
    ZeroPullback,
    ZeroReduction,
)
from .forms import b_omega_lambda
from .grassmann import (
    MAEquation,
    equation_from_json,
    equation_to_json,
    minor_basis,
    partial_legendre,
    singular_locus_quadratic,
    meets_all_sublagrangians,
)
from .integrability import (
    ReductionSample,
    classify_quartic_pair,
    ef_coordinates,
    identify_equation,
    integrable_4d,
    linearisable_3d,
    travelling_wave_reduce,
)
from .laxpair import catalog_pair, verify_lax
from .liesp import symmetry_algebra
from .parse import parse_equation, parse_lax_field

DEFAULT_SEED = 8128
DEFAULT_LAX_TRIALS = 20

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_INCONCLUSIVE = 3


class CommandError(Exception):
    def __init__(self, message: str, code: int = EXIT_REJECTED):
        super().__init__(message)
        self.code = code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _csv(text: str, kind, message: str) -> List:
    """Comma-separated values of one type; a bad entry is a CommandError."""
    try:
        return [kind(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise CommandError(message) from None


def resolve_equation(args, default_n=4) -> MAEquation:
    chosen = [x for x in (args.expr, args.builtin, args.file) if x]
    if len(chosen) != 1:
        raise CommandError("provide exactly one of --expr, --builtin, --file")
    n = getattr(args, "n", None)
    if args.expr:
        return parse_equation(args.expr, default_n if n is None else n)
    if args.builtin:
        try:
            eq = catalog.builtin_equation(args.builtin)
        except KeyError as err:
            raise CommandError(str(err)) from None
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                eq = equation_from_json(handle.read())
        except (OSError, ValueError, ZeroDivisionError, TypeError) as err:
            raise CommandError(f"cannot load equation: {err}") from None
        except KeyError as err:
            raise CommandError(f"cannot load equation: missing {err}") from None
    if n is not None and n != eq.n:
        raise CommandError(f"--n {n} disagrees with the loaded equation, which has n = {eq.n}")
    return eq


def render(report: Dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2)
    lines: List[str] = []

    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{pad}{key}:")
            for item in value:
                emit("-", item, indent + 1)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: [{', '.join(str(v) for v in value)}]")
        else:
            lines.append(f"{pad}{key}: {value}")

    for k, v in report.items():
        emit(k, v)
    return "\n".join(lines)


def cmd_basis_info(args) -> Dict:
    basis = minor_basis(args.n)
    return {
        "command": "basis-info",
        "n": args.n,
        "total-dimension": basis.dimension,
        "per-degree-dims": list(basis.per_degree_dims),
        "basis": [str(p) for p in basis.basis_polys],
    }


def cmd_identify(args) -> Dict:
    eq = resolve_equation(args)
    if eq.n != 4:
        raise CommandError("identify works on 4-dimensional equations")
    name, fp = identify_equation(eq, seed=args.seed)
    return {
        "command": "identify",
        "equation": str(eq.poly),
        "name": name if name else "unknown",
        "fingerprint": fp.as_dict(),
        "seed": args.seed,
    }


def cmd_classify(args) -> Dict:
    eq = resolve_equation(args)
    if eq.n == 3:
        out = {"command": "classify", "n": 3, "equation": str(eq.poly),
               "linearisable": linearisable_3d(eq, seed=args.seed).value, "seed": args.seed}
    elif eq.n == 4:
        out = _classify_4d(eq, args.seed)
    else:
        raise CommandError("classify works on dimensions 3 and 4")
    if args.save_eq is not None:
        try:
            with open(args.save_eq, "w", encoding="utf-8") as handle:
                handle.write(equation_to_json(eq))
        except OSError as err:
            raise CommandError(f"cannot write equation: {err}") from None
        out["saved-to"] = args.save_eq
    return out


def _classify_4d(eq: MAEquation, seed: int) -> Dict:
    name, fp = identify_equation(eq, seed=seed)
    out = {
        "command": "classify",
        "n": 4,
        "equation": str(eq.poly),
        "name": name if name else "unknown",
        "fingerprint": fp.as_dict(),
        "integrability": integrable_4d(eq, seed=seed).as_dict(),
        "seed": seed,
    }
    try:
        pair = ef_coordinates(eq)
    except NotInEF:
        out["quartic-pair"] = "not applicable (needs the doubly tangent chart)"
    else:
        result = classify_quartic_pair(pair)
        entry = {
            "p": str(pair.p),
            "q": str(pair.q),
            "case": result.case if result.case else "unrecognized",
            "case-name": result.name,
        }
        if result.j_invariants is not None:
            entry["j-invariants"] = [str(j) if j is not None else "n/a"
                                     for j in result.j_invariants]
        if result.singular_dim is not None:
            entry["singular-dim"] = result.singular_dim
        out["quartic-pair"] = entry
        fingerprint_name = name if name else "unknown"
        route_agrees = (result.name == fingerprint_name) or (
            result.case in (4, 7, 10) and name is None)
        out["routes-agree"] = bool(route_agrees)
    return out


def cmd_symmetry(args) -> Dict:
    eq = resolve_equation(args, default_n=4)
    return {"command": "symmetry", "equation": str(eq.poly), **symmetry_algebra(eq).describe()}


def cmd_lambda(args) -> Dict:
    eq = resolve_equation(args)
    if eq.n != 4:
        raise CommandError("the lambda invariant needs n = 4")
    lambda_zero, matrix = b_omega_lambda(eq)
    return {
        "command": "lambda",
        "equation": str(eq.poly),
        "lambda-zero": lambda_zero,
        "pairing-matrix": [[str(x) for x in row] for row in matrix],
    }


def cmd_lax_check(args) -> Dict:
    if args.builtin_pair:
        given = [f"--{dest}" for dest in ("expr", "builtin", "file", "n", "x1", "x2")
                 if getattr(args, dest) is not None]
        if given:
            raise CommandError(f"--builtin-pair fixes the equation and both fields; "
                               f"it takes no {', '.join(given)}")
        try:
            x1, x2, default_mode = catalog_pair(args.builtin_pair)
        except KeyError as err:
            raise CommandError(err.args[0]) from None
        eq = catalog.builtin_equation(args.builtin_pair)
    else:
        if not (args.x1 and args.x2):
            raise CommandError("provide --builtin-pair or both --x1 and --x2")
        eq = resolve_equation(args)
        x1 = parse_lax_field(args.x1, eq.n)
        x2 = parse_lax_field(args.x2, eq.n)
        default_mode = "strict"
    mode = args.mode or default_mode
    result = verify_lax(x1, x2, eq, mode, trials=args.trials, seed=args.seed)
    return {
        "command": "lax-check",
        "equation": str(eq.poly),
        "x1": str(x1),
        "x2": str(x2),
        "result": result.as_dict(),
        "seed": args.seed,
    }


def cmd_reduce(args) -> Dict:
    eq = resolve_equation(args)
    if eq.n != 4:
        raise CommandError("reduction starts from n = 4")
    k = _csv(args.k or "0,0,0", Fraction, "--k needs three comma-separated rationals")
    if len(k) != 3:
        raise CommandError("--k needs three comma-separated rationals")
    q_entries = _csv(args.q, Fraction, "--q entries must be rationals") if args.q else []
    if q_entries and len(q_entries) != 10:
        raise CommandError("--q needs ten upper-triangle entries")
    upper = iter(q_entries or [Fraction(0)] * 10)
    q = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            q[i][j] = q[j][i] = next(upper)
    sample = ReductionSample.from_values(k, q)
    reduced = travelling_wave_reduce(eq, sample)
    status = linearisable_3d(reduced, seed=args.seed)
    return {
        "command": "reduce",
        "equation": str(eq.poly),
        "k": [str(x) for x in k],
        "reduced": str(reduced.poly),
        "linearisable": status.value,
        "seed": args.seed,
    }


def cmd_legendre(args) -> Dict:
    eq = resolve_equation(args, default_n=4)
    flip = _csv(args.flip, int, "--flip needs comma-separated indices") if args.flip else []
    if any(i < 1 or i > eq.n for i in flip):
        raise CommandError(f"--flip indices must lie in 1..{eq.n}")
    if len(set(flip)) != len(flip):
        raise CommandError("--flip indices must be distinct")
    moved = partial_legendre(eq, flip)
    return {
        "command": "legendre",
        "equation": str(eq.poly),
        "flip": flip,
        "result": str(moved.poly),
    }


def cmd_singular(args) -> Dict:
    eq = resolve_equation(args, default_n=4)
    dim, kernel = singular_locus_quadratic(eq)
    out = {
        "command": "singular",
        "equation": str(eq.poly),
        "dimension": dim,
        "kernel": [[[str(x) for x in row] for row in mat] for mat in kernel],
    }
    if eq.n == 4:
        out["meets-all-sublagrangians"] = meets_all_sublagrangians(eq, kernel)
    return out


def cmd_linearisable(args) -> Dict:
    eq = resolve_equation(args, default_n=3)
    if eq.n != 3:
        raise CommandError("the linearisability test is for n = 3")
    status = linearisable_3d(eq, seed=args.seed)
    return {
        "command": "linearisable",
        "equation": str(eq.poly),
        "linearisable": status.value,
        "seed": args.seed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavenly",
        description="Exact classification toolkit for symplectic Monge-Ampere equations")
    subs = parser.add_subparsers(dest="command", required=True)
    source = [("--expr", {"help": "equation in the expression grammar"}),
              ("--builtin", {"help": "named builtin equation"}),
              ("--file", {"help": "path to a serialized equation"}),
              ("--n", {"type": int, "default": None, "help": "dimension for --expr input"})]
    seed = [("--seed", {"type": int, "default": DEFAULT_SEED})]
    commands = [  # each command gets only the options it reads, then --json and --timing
        ("basis-info", cmd_basis_info, "minor-span dimensions and basis",
         [("--n", {"type": int, "required": True})]),
        ("classify", cmd_classify, "full pipeline: fingerprint, integrability, quartic pair",
         source + seed + [("--save-eq", {"help": "write the equation to this path"})]),
        ("identify", cmd_identify, "name the equation by its fingerprint", source + seed),
        ("symmetry", cmd_symmetry, "stabilizer subalgebra report", source),
        ("lambda", cmd_lambda, "vanishing of the pairing invariant", source),
        ("lax-check", cmd_lax_check, "verify a Lax pair on the variety", source + seed + [
            ("--trials", {"type": _positive_int, "default": DEFAULT_LAX_TRIALS}),
            ("--builtin-pair", {"help": "catalogued pair name"}),
            ("--x1", {"help": "first field expression"}),
            ("--x2", {"help": "second field expression"}),
            ("--mode", {"choices": ["strict", "mod-span"]})]),
        ("reduce", cmd_reduce, "travelling-wave reduction to n = 3", source + seed + [
            ("--k", {"help": "three comma-separated direction constants"}),
            ("--q", {"help": "ten comma-separated quadratic-shift entries"})]),
        ("legendre", cmd_legendre, "partial Legendre chart change",
         source + [("--flip", {"help": "comma-separated index pairs to flip"})]),
        ("singular", cmd_singular, "singular locus of a quadratic equation", source),
        ("linearisable", cmd_linearisable, "3D linearisability test", source + seed),
    ]
    for name, handler, text, options in commands:
        sub = subs.add_parser(name, help=text)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        sub.add_argument("--json", action="store_true", dest="as_json")
        sub.add_argument("--timing", action="store_true")
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report = args.handler(args)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (ParseError, NotInSpan, NotPurelyQuadratic, UnsupportedDimension,
            NotInEF, ZeroReduction, ZeroPullback, DegenerateChart) as err:
        print(f"rejected: {err}", file=sys.stderr)
        return EXIT_REJECTED
    except NoSamplePoint as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except HeavenlyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REJECTED
    if args.timing:
        report["elapsed-seconds"] = round(time.monotonic() - started, 3)
    print(render(report, args.as_json))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
