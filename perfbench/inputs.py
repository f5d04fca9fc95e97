"""Seeded inputs and their known answers, built without the package under test.

Every expected answer here comes from the paper or from the construction of
the input: the ten-case table of quartic pairs, the stabilizer dimensions of
the six normal forms, the 3D verdicts, the catalogued Lax pairs and the
exit-code contract of the command line.  Inputs are built with a small
polynomial arithmetic of our own, so a defect in `heavenly.poly` cannot
hide in the generator.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

# -- a minimal exact polynomial arithmetic --------------------------------
# A polynomial is a dict {monomial: Fraction}; a monomial is a sorted tuple
# of variable names with repetition, e.g. ("u11", "u22", "u22").


def var(i, j):
    a, b = sorted((i, j))
    return {(f"u{a}{b}",): Fraction(1)}


def const(c):
    return {(): Fraction(c)} if c else {}


def add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p, c):
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def det(rows):
    """Cofactor expansion over polynomial entries."""
    if len(rows) == 1:
        return rows[0][0]
    total = {}
    for j, entry in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = mul(entry, det(minor))
        total = add(total, scale(term, -1) if j % 2 else term)
    return total


def hess(n):
    return det([[var(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])


def degrees(p):
    return {len(m) for m in p}


def to_expr(p):
    """Render in the command-line expression grammar."""
    if not p:
        return "0"
    pieces = []
    for m in sorted(p, key=lambda m: (-len(m), m)):
        c = p[m]
        factors = []
        for name in sorted(set(m)):
            e = m.count(name)
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        pieces.append(("-" if c < 0 else "+", body))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def from_expr(text):
    """Parse the printed form `c*u11*u22^2 - u12 + 3/2` back into a dict."""
    text = text.replace(" - ", " + -").strip()
    if text.startswith("-"):
        text = "-" + text[1:].lstrip()
    out = {}
    for piece in text.split(" + "):
        sign = -1 if piece.startswith("-") else 1
        piece = piece.lstrip("-")
        coeff = Fraction(sign)
        mono = []
        for factor in piece.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, e = factor.partition("^")
                mono.extend([name] * int(e or 1))
        out = add(out, {tuple(sorted(mono)): coeff})
    return out


def legendre_flip(p, i):
    """Partial Legendre transform of the index i, cleared of denominators.

    With the flipped Hessian u'_ii = 1/u_ii, u'_ij = -u_ij/u_ii and
    u'_jk = u_ij u_ik/u_ii - u_jk, every minor of U' times u_ii is a minor of
    U; so p(U') u_ii is again a combination of minors.
    """
    num = {}
    for a in range(1, 5):
        for b in range(a, 5):
            if a == b == i:
                img = const(1)
            elif i in (a, b):
                img = scale(var(a, b), -1)
            else:
                img = add(mul(var(i, a), var(i, b)), scale(mul(var(i, i), var(a, b)), -1))
            num[f"u{a}{b}"] = img
    top = max(degrees(p))
    pivot = f"u{i}{i}"
    total = {}
    for mono, c in p.items():
        term = const(c)
        for name in mono:
            term = mul(term, num[name])
        for _ in range(top - len(mono)):
            term = mul(term, var(i, i))
        total = add(total, term)
    out = {}
    for mono, c in total.items():  # divide by u_ii^(top - 1)
        mono = list(mono)
        for _ in range(top - 1):
            mono.remove(pivot)
        out[tuple(mono)] = c
    return out


# -- the doubly tangent quadratics and the ten cases ------------------------

def _pentads():
    u = var
    half, sixth, third = Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)

    def minor2(i, j, k, l):  # u_ik u_jl - u_il u_jk
        return add(mul(u(i, k), u(j, l)), scale(mul(u(i, l), u(j, k)), -1))

    shared = add(minor2(1, 4, 1, 4), minor2(2, 3, 2, 3))  # u11 u44 - u14^2 + u22 u33 - u23^2
    e = (
        minor2(1, 2, 1, 2),
        scale(add(minor2(1, 2, 1, 4), minor2(2, 1, 2, 3)), half),
        add(scale(shared, sixth),
            scale(add(scale(mul(u(1, 3), u(2, 4)), 2), scale(mul(u(1, 4), u(2, 3)), -1),
                      scale(mul(u(1, 2), u(3, 4)), -1)), third)),
        scale(add(minor2(3, 2, 3, 4), minor2(4, 1, 4, 3)), half),
        minor2(3, 4, 3, 4),
    )
    f = (
        minor2(1, 3, 1, 3),
        scale(add(minor2(1, 3, 1, 4), minor2(3, 1, 3, 2)), half),
        add(scale(shared, sixth),
            scale(add(scale(mul(u(1, 2), u(3, 4)), 2), scale(mul(u(1, 4), u(2, 3)), -1),
                      scale(mul(u(1, 3), u(2, 4)), -1)), third)),
        scale(add(minor2(2, 3, 2, 4), minor2(4, 1, 4, 2)), half),
        minor2(2, 4, 2, 4),
    )
    return e, f


E_PENTAD, F_PENTAD = _pentads()


def pair_equation(p, q):
    """The quadratic sum p_k E_k - sum q_k F_k of a pair of binary quartics."""
    total = {}
    for c, poly in zip(p, E_PENTAD):
        total = add(total, scale(poly, c))
    for c, poly in zip(q, F_PENTAD):
        total = add(total, scale(poly, -c))
    return total


def shear_quartic(coeffs, a, b, c, d):
    """p(t) -> (ct + d)^4 p((at + b)/(ct + d)); coefficients lowest degree first."""
    out = [Fraction(0)] * 5
    for i, ci in enumerate(coeffs):
        if not ci:
            continue
        # (a t + b)^i (c t + d)^(4 - i), expanded
        poly = [Fraction(ci)]
        for lin in [(b, a)] * i + [(d, c)] * (4 - i):
            nxt = [Fraction(0)] * (len(poly) + 1)
            for k, v in enumerate(poly):
                nxt[k] += v * lin[0]
                nxt[k + 1] += v * lin[1]
            poly = nxt
        for k, v in enumerate(poly):
            out[k] += v
    return tuple(out)


def random_sl2z(rng, steps=3):
    """A product of elementary integer shears, determinant 1.

    Shears by -1 or 1 keep the coefficients small, so the cost of an
    equation depends on its case more than on the draw.
    """
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        k = rng.choice((-1, 1))
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    return a, b, c, d


def quartic(*coeffs):
    return tuple(Fraction(c) for c in coeffs) + (Fraction(0),) * (5 - len(coeffs))


# Base pair per case (lowest coefficient first) and the paper's answer:
# case name, fingerprint name, verdict, stabilizer dimension (None: not tabled).
CASES = {
    1: (quartic(2, -1, -2, 1), quartic(2, -1, -2, 1),
        "general heavenly", "general heavenly", "integrable", 12),
    2: (quartic(-1, 0, 1), quartic(-1, 0, 1), "Husain", "Husain", "integrable", 12),
    3: (quartic(-1, 0, 1), quartic(0, 0, 1), "first heavenly", "first heavenly", "integrable", 13),
    4: (quartic(0, 0, 1), quartic(0, 0, 1), "degenerate equation", "unknown", "degenerate", None),
    5: (quartic(0, 1), quartic(0, 1), "modified heavenly", "modified heavenly", "integrable", 13),
    6: (quartic(0, 1), quartic(1), "second heavenly", "second heavenly", "integrable", 14),
    7: (quartic(1), quartic(1), "degenerate equation", "unknown", "degenerate", None),
    8: (quartic(0, -1, 0, 1), quartic(0), "Hess u = 1 (non-integrable)", "unknown",
        "not-integrable", None),
    9: (quartic(0, 1), quartic(0), "linear wave", "linear wave", "linearisable", 16),
    10: (quartic(1), quartic(0), "degenerate equation", "unknown", "degenerate", None),
}


# Cases of similar cost; one of each pair is Legendre-flipped in every pass.
FLIP_PAIRS = ((1, 2), (3, 5), (6, 9), (4, 7), (8, 10))


def classify_warm_pass(rng, seen):
    """One equation per case, in seeded order, half of them Legendre-flipped.

    `seen` holds the expressions already used in this run; a repeat is
    redrawn, so no equation is classified twice.
    """
    order = list(CASES)
    rng.shuffle(order)
    flipped = {rng.choice(pair) for pair in FLIP_PAIRS}
    out = []
    for case in order:
        p0, q0, case_name, name, verdict, dim = CASES[case]
        for _ in range(100):
            p = shear_quartic(p0, *random_sl2z(rng))
            q = shear_quartic(q0, *random_sl2z(rng))
            poly = pair_equation(p, q)
            flip = None
            if case in flipped:
                for i in rng.sample(range(1, 5), 4):
                    moved = legendre_flip(poly, i)
                    if degrees(moved) != {2}:
                        poly, flip = moved, i
                        break
            expr = to_expr(poly)
            if expr not in seen:
                break
        else:
            raise RuntimeError(f"could not draw a fresh case-{case} equation")
        seen.add(expr)
        out.append({
            "label": f"case{case}" + (f"/flip{flip}" if flip else ""),
            "argv": ["classify", f"--expr={expr}", "--n", "4", "--json",
                     "--seed", str(rng.randint(1, 10 ** 6))],
            "case": None if flip else case, "case_name": case_name,
            "name": name, "verdict": verdict, "dim": dim,
        })
    return out


def check_classify(op, report):
    """Compare one classify --json report with the answer for its case."""
    errors = []
    if report.get("name") != op["name"]:
        errors.append(f"name {report.get('name')!r} != {op['name']!r}")
    verdict = report.get("integrability", {}).get("verdict")
    if verdict != op["verdict"]:
        errors.append(f"verdict {verdict!r} != {op['verdict']!r}")
    if op["dim"] is not None and report.get("fingerprint", {}).get("symmetry-dim") != op["dim"]:
        errors.append(f"symmetry-dim {report.get('fingerprint')} != {op['dim']}")
    pair = report.get("quartic-pair")
    if op["case"] is not None:
        if not isinstance(pair, dict) or pair.get("case") != op["case"] \
                or pair.get("case-name") != op["case_name"]:
            errors.append(f"quartic-pair {pair!r} is not case {op['case']}")
    elif isinstance(pair, dict):
        errors.append("a flipped equation left the chart but got a quartic pair")
    return errors


# -- cold command mix -------------------------------------------------------
# Generated expressions are passed as `--expr=...`: one that starts with a
# minus sign would otherwise be taken by argparse for an option.

LAMBDA_VANISHES = {  # per normal form: whether the effective-form pairing vanishes
    "linear-wave": True,
    "second-heavenly": True,
    "modified-heavenly": True,
    "first-heavenly": False,
    "husain": False,
    "general-heavenly": False,
}
LAX_PAIRS = ("second-heavenly", "modified-heavenly", "first-heavenly", "husain",
             "general-heavenly")
VERDICTS_3D = {
    "laplace": "linearisable",
    "kahler": "linearisable",
    "hess-3d": "not-linearisable",
    "hess-3d-elliptic": "not-linearisable",
    "hess-3d-hyperbolic": "not-linearisable",
}
BASIS_DIMS = {3: (14, [1, 6, 6, 1]), 4: (42, [1, 10, 20, 10, 1])}
FIRST_HEAVENLY = add(mul(var(1, 3), var(2, 4)), scale(mul(var(1, 4), var(2, 3)), -1), const(-1))
LAPLACE_3D = add(var(1, 1), var(2, 2), var(3, 3))


def _nonzero_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _seed(rng):
    return str(rng.randint(1, 10 ** 6))


def cli_cold_pass(rng):
    """The fixed command mix; the seed picks order, inputs and sampling seeds."""
    s = _seed
    ops = []
    for name in ("husain", "general-heavenly", "hess", "linear-wave"):
        ops.append({"argv": ["classify", "--builtin", name, "--json", "--seed", s(rng)],
                    "expect": ("classify", name)})
    ops.append({"argv": ["classify", "--builtin", "kahler", "--json", "--seed", s(rng)],
                "expect": ("json", {"linearisable": "linearisable"})})
    scaled = to_expr(scale(FIRST_HEAVENLY, _nonzero_rational(rng)))
    ops.append({"argv": ["identify", f"--expr={scaled}", "--n", "4", "--json", "--seed", s(rng)],
                "expect": ("json", {"name": "first heavenly"})})
    scaled = to_expr(scale(LAPLACE_3D, _nonzero_rational(rng)))
    ops.append({"argv": ["symmetry", f"--expr={scaled}", "--n", "3", "--json"],
                "expect": ("json", {"dimension": 9})})
    # criterion 10: the harmonic case-8 quadratic -E0 + E4 flips to Hess u = 1
    case8 = scale(add(E_PENTAD[4], scale(E_PENTAD[0], -1)), _nonzero_rational(rng))
    ops.append({"argv": ["legendre", f"--expr={to_expr(case8)}", "--n", "4", "--flip", "1,2",
                         "--json"],
                "expect": ("legendre", add(hess(4), const(-1)))})
    form = rng.choice(sorted(LAMBDA_VANISHES))
    ops.append({"argv": ["lambda", "--builtin", form, "--json"],
                "expect": ("json", {"lambda-zero": LAMBDA_VANISHES[form]})})
    pair = rng.choice(LAX_PAIRS)
    ops.append({"argv": ["lax-check", "--builtin-pair", pair, "--json", "--seed", s(rng)],
                "expect": ("lax", True)})
    base = rng.choice(sorted(VERDICTS_3D))
    ops.append({"argv": ["linearisable", "--builtin", base, "--json", "--seed", s(rng)],
                "expect": ("json", {"linearisable": VERDICTS_3D[base]})})
    n = rng.choice((3, 4))
    ops.append({"argv": ["basis-info", "--n", str(n), "--json"],
                "expect": ("json", {"total-dimension": BASIS_DIMS[n][0],
                                    "per-degree-dims": BASIS_DIMS[n][1]})})
    # rejected inputs (exit 2): u_ii^2 is in no minor, and a non-integer flip
    i = rng.randint(1, 4)
    outside = add(scale(mul(var(i, i), var(i, i)), _nonzero_rational(rng)),
                  scale(var(rng.randint(1, 4), rng.randint(1, 4)), _nonzero_rational(rng)))
    ops.append({"argv": ["classify", f"--expr={to_expr(outside)}", "--n", "4", "--json"],
                "expect": ("exit", 2), "stderr": "not in the minor span"})
    bad = rng.choice(("x", "1,x", "1.5", "one", "1;2"))
    ops.append({"argv": ["legendre", "--builtin", rng.choice(sorted(LAMBDA_VANISHES)),
                         "--flip", bad, "--json"],
                "expect": ("exit", 2), "stderr": "--flip"})
    rng.shuffle(ops)
    return ops


# The rest of the exit-code contract, run once by the full known-answer check.
CONTRACT_OPS = [
    {"argv": ["legendre", "--builtin", "husain", "--flip", "7"], "expect": ("exit", 2)},
    {"argv": ["classify", "--expr", "u11 +", "--n", "4"], "expect": ("exit", 2)},
    {"argv": ["identify", "--builtin", "nope"], "expect": ("exit", 2)},
    {"argv": ["lax-check", "--expr", "1", "--n", "4", "--x1", "lam*d1", "--x2", "lam*d2",
              "--trials", "2"], "expect": ("exit", 3)},
]

CLASSIFY_BUILTIN = {  # builtin: checks on the classify --json report
    "husain": {"name": "Husain", "verdict": "integrable", "dim": 12, "reductive": False},
    "general-heavenly": {"name": "general heavenly", "verdict": "integrable", "dim": 12,
                         "reductive": True},
    "hess": {"name": "unknown", "verdict": "not-integrable", "singular-dim": 4,
             "meets-all-sublagrangians": False},
    "linear-wave": {"name": "linear wave", "verdict": "linearisable", "dim": 16},
}


def check_cli(op, code, out, err):
    """Errors for one command-line run against its expected answer."""
    kind, want = op["expect"]
    if "Traceback" in err:
        return [f"traceback: {err.strip().splitlines()[-1]}"]
    if kind == "exit":
        if code != want:
            return [f"exit {code} != {want}"]
        if op.get("stderr", "") not in err:
            return [f"stderr does not name the cause: {err.strip()[-200:]}"]
        return []
    if code != 0:
        return [f"exit {code} != 0: {err.strip()[-200:]}"]
    report = json.loads(out)
    errors = []
    if kind == "json":
        for key, value in want.items():
            if report.get(key) != value:
                errors.append(f"{key} {report.get(key)!r} != {value!r}")
    elif kind == "lax":
        if report["result"]["passed"] is not want:
            errors.append(f"lax passed {report['result']['passed']} != {want}")
    elif kind == "legendre":
        if from_expr(report["result"]) != want:
            errors.append(f"legendre result {report['result']!r}")
    elif kind == "classify":
        spec = CLASSIFY_BUILTIN[want]
        integ = report["integrability"]
        got = {"name": report["name"], "verdict": integ["verdict"],
               "dim": report["fingerprint"]["symmetry-dim"],
               "reductive": report["fingerprint"]["reductive"],
               "singular-dim": integ.get("singular-dim"),
               "meets-all-sublagrangians": integ.get("meets-all-sublagrangians")}
        for key, value in spec.items():
            if got[key] != value:
                errors.append(f"{key} {got[key]!r} != {value!r}")
    return errors


# -- 3D decisions and Lax checks -------------------------------------------

def lax_3d_pass(rng):
    """Two Sp(6) moves of each 3D base equation, each catalogued Lax pair once,
    and the sign-flipped first-heavenly pair, which must fail."""
    ops = []
    for base in sorted(VERDICTS_3D):
        for _ in range(2):
            u0 = [[Fraction(0)] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    u0[i][j] = u0[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            flip = tuple(sorted(rng.sample((1, 2, 3), rng.randint(1, 3))))
            ops.append({"kind": "linearisable", "base": base, "u0": u0, "flip": flip,
                        "seed": rng.randint(1, 10 ** 6), "expect": VERDICTS_3D[base]})
    for pair in LAX_PAIRS:
        ops.append({"kind": "lax", "pair": pair, "seed": rng.randint(1, 10 ** 6),
                    "expect": True})
    ops.append({"kind": "lax-flipped", "pair": "first-heavenly",
                "seed": rng.randint(1, 10 ** 6), "expect": False})
    rng.shuffle(ops)
    return ops


def new_rng(seed, stream):
    return Random(f"{stream}:{seed}")
