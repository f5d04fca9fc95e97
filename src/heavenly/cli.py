"""Command-line interface: classify, identify, symmetry, lax-check, lambda,
reduce, legendre, singular, linearisable, basis-info.

Reports are stable-ordered and byte-identical across runs at the same seed
and flags; `--json` switches to machine-readable output and `--timing`
appends wall-clock timing (off by default to keep reports reproducible).
A failure prints its `HeavenlyError`'s label on stderr and exits with its
code: 2 for `rejected` input and other errors, 3 when `inconclusive`.

Only the parser is built at import: each command imports the pipeline
modules it runs when it runs, so `--help` or `basis-info` never loads the
stabilizer, λ, integrability or Lax code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from . import MAX_DIM, MIN_DIM
from .errors import HeavenlyError, NotInEF

if TYPE_CHECKING:
    from .grassmann import MAEquation

DEFAULT_SEED = 8128
DEFAULT_LAX_TRIALS = 20
ANY_DIM = tuple(range(MIN_DIM, MAX_DIM + 1))


class CommandError(HeavenlyError):
    """A command-line request the toolkit cannot carry out."""


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


def _load_equation(args) -> MAEquation:
    if args.builtin:
        from . import catalog

        try:
            return catalog.builtin_equation(args.builtin)
        except KeyError as err:
            raise CommandError(err.args[0]) from None
    from .grassmann import equation_from_json

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            return equation_from_json(handle.read())
    except (OSError, ValueError, ZeroDivisionError, TypeError) as err:
        raise CommandError(f"cannot load equation: {err}") from None
    except KeyError as err:
        raise CommandError(f"cannot load equation: missing {err}") from None


def resolve_equation(args) -> MAEquation:
    """The one equation of --expr, --builtin or --file, in a dimension the
    command accepts; --expr is read in --n, else in the largest of those."""
    chosen = [x for x in (args.expr, args.builtin, args.file) if x]
    if len(chosen) != 1:
        raise CommandError("provide exactly one of --expr, --builtin, --file")
    if args.expr:
        n = max(args.dims) if args.n is None else args.n
    else:
        eq = _load_equation(args)
        if args.n is not None and args.n != eq.n:
            raise CommandError(f"--n {args.n} disagrees with the loaded equation, "
                               f"which has n = {eq.n}")
        n = eq.n
    if n not in args.dims:
        accepted = " or ".join(map(str, args.dims))
        raise CommandError(f"{args.command} takes n = {accepted}, not n = {n}")
    if not args.expr:
        return eq
    from .parse import parse_equation

    return parse_equation(args.expr, n)


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
    from .grassmann import minor_basis

    basis = minor_basis(args.n)
    return {
        "n": args.n,
        "total-dimension": basis.dimension,
        "per-degree-dims": list(basis.per_degree_dims),
        "basis": [str(p) for p in basis.basis_polys],
    }


def _identify(eq: MAEquation, seed: int):
    from .integrability import identify_equation

    name, fp = identify_equation(eq, seed=seed)
    return name, {"equation": str(eq.poly), "name": name if name else "unknown",
                  "fingerprint": fp.as_dict()}


def cmd_identify(args) -> Dict:
    _, fields = _identify(resolve_equation(args), args.seed)
    return {**fields, "seed": args.seed}


def cmd_classify(args) -> Dict:
    path = args.save_eq
    if path is not None:  # checked before any work; the file is not touched yet
        if os.path.isdir(path or "."):
            raise CommandError(f"cannot write equation: {path!r} is a directory")
        if not os.access(os.path.dirname(path) or ".", os.W_OK):
            raise CommandError(f"cannot write equation: {path!r} is not in a writable directory")
    eq = resolve_equation(args)
    out = {"n": 3, **_linearisable(eq, args.seed)} if eq.n == 3 else _classify_4d(eq, args.seed)
    if path is not None:
        from .grassmann import equation_to_json

        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(equation_to_json(eq))
        except OSError as err:
            raise CommandError(f"cannot write equation: {err}") from None
        out["saved-to"] = path
    return out


def _classify_4d(eq: MAEquation, seed: int) -> Dict:
    from .integrability import classify_quartic_pair, ef_coordinates, integrable_4d, routes_agree

    name, fields = _identify(eq, seed)
    report = integrable_4d(eq, seed=seed)
    out = {"n": 4, **fields, "integrability": report.as_dict(), "seed": seed}
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
        out["routes-agree"] = routes_agree(result, name, report.verdict)
    return out


def cmd_symmetry(args) -> Dict:
    from .liesp import symmetry_algebra

    eq = resolve_equation(args)
    return {"equation": str(eq.poly), **symmetry_algebra(eq).describe()}


def cmd_lambda(args) -> Dict:
    from .liesp import b_omega_lambda

    eq = resolve_equation(args)
    lambda_zero, matrix = b_omega_lambda(eq)
    return {
        "equation": str(eq.poly),
        "lambda-zero": lambda_zero,
        "pairing-matrix": [[str(x) for x in row] for row in matrix],
    }


def cmd_lax_check(args) -> Dict:
    from .laxpair import catalog_pair, verify_lax

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
        from . import catalog

        eq = catalog.builtin_equation(args.builtin_pair)
    else:
        if not (args.x1 and args.x2):
            raise CommandError("provide --builtin-pair or both --x1 and --x2")
        from .parse import parse_lax_field

        eq = resolve_equation(args)
        x1, x2 = (parse_lax_field(x, eq.n) for x in (args.x1, args.x2))
        default_mode = "strict"
    mode = args.mode or default_mode
    result = verify_lax(x1, x2, eq, mode, trials=args.trials, seed=args.seed)
    return {
        "equation": str(eq.poly),
        "x1": str(x1),
        "x2": str(x2),
        "result": result.as_dict(),
        "seed": args.seed,
    }


def cmd_reduce(args) -> Dict:
    from fractions import Fraction

    k = _csv(args.k or "0,0,0", Fraction, "--k needs three comma-separated rationals")
    if len(k) != 3:
        raise CommandError("--k needs three comma-separated rationals")
    q_entries = _csv(args.q, Fraction, "--q entries must be rationals") if args.q else []
    if q_entries and len(q_entries) != 10:
        raise CommandError("--q needs ten upper-triangle entries")
    eq = resolve_equation(args)
    from .integrability import ReductionSample, linearisable_3d, travelling_wave_reduce

    upper = iter(q_entries or [Fraction(0)] * 10)
    q = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            q[i][j] = q[j][i] = next(upper)
    sample = ReductionSample.from_values(k, q)
    reduced = travelling_wave_reduce(eq, sample)
    status = linearisable_3d(reduced, seed=args.seed)
    return {
        "equation": str(eq.poly),
        "k": [str(x) for x in k],
        "reduced": str(reduced.poly),
        "linearisable": status.value,
        "seed": args.seed,
    }


def cmd_legendre(args) -> Dict:
    flip = _csv(args.flip, int, "--flip needs comma-separated indices") if args.flip else []
    eq = resolve_equation(args)
    if any(i < 1 or i > eq.n for i in flip):
        raise CommandError(f"--flip indices must lie in 1..{eq.n}")
    if len(set(flip)) != len(flip):
        raise CommandError("--flip indices must be distinct")
    from .grassmann import partial_legendre

    moved = partial_legendre(eq, flip)
    return {
        "equation": str(eq.poly),
        "flip": flip,
        "result": str(moved.poly),
    }


def cmd_singular(args) -> Dict:
    from .grassmann import meets_all_sublagrangians, singular_locus_quadratic

    eq = resolve_equation(args)
    dim, kernel = singular_locus_quadratic(eq)
    out = {
        "equation": str(eq.poly),
        "dimension": dim,
        "kernel": [[[str(x) for x in row] for row in mat] for mat in kernel],
    }
    if eq.n == 4:
        out["meets-all-sublagrangians"] = meets_all_sublagrangians(eq, kernel)
    return out


def _linearisable(eq: MAEquation, seed: int) -> Dict:
    from .integrability import linearisable_3d

    return {"equation": str(eq.poly), "linearisable": linearisable_3d(eq, seed=seed).value,
            "seed": seed}


def cmd_linearisable(args) -> Dict:
    return _linearisable(resolve_equation(args), args.seed)


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
    # each command: the dimensions of equation it takes (for basis-info, those
    # minor_basis supports), and only the options it reads, then --json and --timing
    commands = [
        ("basis-info", cmd_basis_info, ANY_DIM, "minor-span dimensions and basis",
         [("--n", {"type": int, "required": True})]),
        ("classify", cmd_classify, (3, 4),
         "full pipeline: fingerprint, integrability, quartic pair",
         source + seed + [("--save-eq", {"help": "write the equation to this path"})]),
        ("identify", cmd_identify, (4,), "name the equation by its fingerprint", source + seed),
        ("symmetry", cmd_symmetry, ANY_DIM, "stabilizer subalgebra report", source),
        ("lambda", cmd_lambda, (4,), "vanishing of the pairing invariant", source),
        ("lax-check", cmd_lax_check, ANY_DIM, "verify a Lax pair on the variety",
         source + seed + [
            ("--trials", {"type": _positive_int, "default": DEFAULT_LAX_TRIALS}),
            ("--builtin-pair", {"help": "catalogued pair name"}),
            ("--x1", {"help": "first field expression"}),
            ("--x2", {"help": "second field expression"}),
            ("--mode", {"choices": ["strict", "mod-span"]})]),
        ("reduce", cmd_reduce, (4,), "travelling-wave reduction to n = 3", source + seed + [
            ("--k", {"help": "three comma-separated direction constants"}),
            ("--q", {"help": "ten comma-separated quadratic-shift entries"})]),
        ("legendre", cmd_legendre, ANY_DIM, "partial Legendre chart change",
         source + [("--flip", {"help": "comma-separated index pairs to flip"})]),
        ("singular", cmd_singular, ANY_DIM, "singular locus of a quadratic equation", source),
        ("linearisable", cmd_linearisable, (3,), "3D linearisability test", source + seed),
    ]
    for name, handler, dims, text, options in commands:
        sub = subs.add_parser(name, help=text)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        sub.add_argument("--json", action="store_true", dest="as_json")
        sub.add_argument("--timing", action="store_true")
        sub.set_defaults(handler=handler, dims=dims)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report = {"command": args.command, **args.handler(args)}
    except HeavenlyError as err:
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code
    if args.timing:
        report["elapsed-seconds"] = round(time.monotonic() - started, 3)
    print(render(report, args.as_json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
