"""The three workloads: one client, one operation at a time, no threads.

Each workload runs whole passes of its stratified mix until `seconds` have
passed (at least one pass).  A traced run instead runs a fixed number of
passes twice over the same inputs, untraced and then traced, so its work
counts repeat exactly at equal seed and the difference of the two times is
the tracing overhead; it is the one place an input is run twice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_PASSES = {"cli-cold": 1, "classify-warm": 1, "lax-3d": 7}
COMMAND_TIMEOUT_S = 150


class Result:
    def __init__(self):
        self.durations = []   # seconds per operation, in order
        self.groups = {}      # stratum: seconds of its operations
        self.passes = []      # seconds per pass (sum of its operations)
        self.failures = []    # "label: message"
        self.failed = 0       # operations with at least one failure
        self.setup = []       # seconds per set-up
        self.digest = hashlib.sha256()
        self.layers = Counter()  # raw per-layer sums of a traced run
        self.overhead_s = 0.0
        self.rss_mb = 0.0

    def record(self, group, label, seconds, rendered, errors):
        self.durations.append(seconds)
        self.groups.setdefault(group, []).append(seconds)
        self.digest.update(f"{label}\n{rendered}\n".encode())
        self.failures += [f"{label}: {e}" for e in errors]
        self.failed += bool(errors)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(ops, run_op, result):
    result.passes.append(sum(run_op(op, result) for op in ops))


def measure(workload, make_pass, run_op, seconds, tracing, result):
    """Untraced: whole passes until `seconds` have passed, at least one.
    Traced: a fixed number of passes, run untraced and then again inside
    `tracing` on the same inputs; the time difference is the tracing overhead."""
    if tracing is None:
        started = time.perf_counter()
        run_pass(make_pass(), run_op, result)
        while time.perf_counter() - started < seconds:
            run_pass(make_pass(), run_op, result)
        return
    passes = [make_pass() for _ in range(TRACE_PASSES[workload])]
    plain = Result()
    for ops in passes:
        run_pass(ops, run_op, plain)
    with tracing():
        for ops in passes:
            run_pass(ops, run_op, result)
    result.overhead_s = sum(result.passes) - sum(plain.passes)


def in_process(workload, setup, make_pass, run_op, seconds, trace):
    """A workload run inside this process; a traced run traces its set-up too."""
    result = Result()
    spans = tracer.Tracer()
    with spans.active() if trace else contextlib.nullcontext():
        result.setup.append(setup())
    measure(workload, make_pass, run_op, seconds, spans.active if trace else None, result)
    if trace:
        result.layers = tracer.aggregate(spans.names, spans.spans)
    result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


# -- cli-cold ---------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import heavenly.cli; "
                "print(time.perf_counter() - t)")


def run_command(argv, launcher_out=None):
    if launcher_out is None:
        cmd = [sys.executable, "-m", "heavenly.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "launcher.py"), launcher_out, *argv]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - started, proc


def cli_cold(seed, seconds, trace):
    result = Result()
    for _ in range(15):  # an import takes ~0.08 s, so take many for the median
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, cwd=ROOT, env=child_env(), check=True)
        result.setup.append(float(proc.stdout))
    rng = inputs.new_rng(seed, "cli-cold")
    spans_dir = []  # while tracing: the directory the launched commands write to

    @contextlib.contextmanager
    def tracing():
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as path:
            spans_dir.append(path)
            try:
                yield
            finally:
                spans_dir.clear()

    def run_op(op, res):
        out = os.path.join(spans_dir[0], f"{len(res.durations)}.json") if spans_dir else None
        seconds_, proc = run_command(op["argv"], out)
        errors = inputs.check_cli(op, proc.returncode, proc.stdout, proc.stderr)
        group = " ".join(op["argv"][:3]) if op["argv"][1] == "--builtin" else op["argv"][0]
        res.record(group, " ".join(op["argv"]), seconds_, f"{proc.returncode}\n{proc.stdout}",
                   errors)
        if out is not None:
            res.layers.update(tracer.load(out))
        return seconds_

    measure("cli-cold", lambda: inputs.cli_cold_pass(rng), run_op, seconds,
            tracing if trace else None, result)
    result.rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return result


# -- classify-warm ----------------------------------------------------------

def call_main(argv):
    """heavenly.cli.main in-process; (seconds, exit code, stdout, errors)."""
    import heavenly.cli

    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = heavenly.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a traceback is a failed operation, not a crash of the run
        return time.perf_counter() - started, 1, "", [traceback.format_exc(limit=1)]
    return time.perf_counter() - started, code, out.getvalue(), []


def classify_setup():
    """Import and one full classification, which builds every 4D table."""
    started = time.perf_counter()
    _, code, out, errors = call_main(["classify", "--builtin", "husain", "--json"])
    if errors or code != 0 or json.loads(out)["name"] != "Husain":
        raise RuntimeError(f"warm-up classification failed: {errors or code}")
    return time.perf_counter() - started


def classify_warm(seed, seconds, trace):
    rng = inputs.new_rng(seed, "classify-warm")
    seen = set()

    def run_op(op, res):
        seconds_, code, out, errors = call_main(op["argv"])
        if not errors:
            errors = ([f"exit {code}"] if code != 0
                      else inputs.check_classify(op, json.loads(out)))
        res.record(op["label"].split("/")[0], op["label"] + " " + op["argv"][1], seconds_,
                   out, errors)
        return seconds_

    return in_process("classify-warm", classify_setup,
                      lambda: inputs.classify_warm_pass(rng, seen), run_op, seconds, trace)


# -- lax-3d -----------------------------------------------------------------

def lax_setup():
    """Import and build the n = 3 tables: every Legendre flip, both stabilizer
    tables and one trial of each Lax pair."""
    started = time.perf_counter()
    from heavenly import catalog, grassmann, integrability, laxpair

    laplace = catalog.builtin_equation("laplace")
    for flip in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)):
        integrability.linearisable_3d(grassmann.partial_legendre(laplace, flip))
    for pair in inputs.LAX_PAIRS:
        x1, x2, mode = laxpair.catalog_pair(pair)
        laxpair.verify_lax(x1, x2, catalog.builtin_equation(pair), mode, trials=1)
    return time.perf_counter() - started


SETUP_PROBE = ("import sys; sys.path[:0] = [{bench!r}]; import workloads; "
               "print(workloads.lax_setup())")


def lax_op(op):
    """Run one lax-3d operation; returns the answer to compare with op["expect"]."""
    from heavenly import catalog, grassmann, integrability, laxpair

    if op["kind"] == "linearisable":
        eq = catalog.builtin_equation(op["base"])
        moved = grassmann.partial_legendre(grassmann.translate(eq, op["u0"]), op["flip"])
        return integrability.linearisable_3d(moved, seed=op["seed"]).value
    x1, x2, mode = laxpair.catalog_pair(op["pair"])
    if op["kind"] == "lax-flipped":  # acceptance criterion 5's sign-flipped pair
        c = x2.components
        x2 = laxpair.LaxField.from_components([c[0], c[1], -1 * c[2], c[3]])
    eq = catalog.builtin_equation(op["pair"])
    return laxpair.verify_lax(x1, x2, eq, mode, trials=20, seed=op["seed"]).passed


def lax_3d(seed, seconds, trace):
    probes = []
    for _ in range(6):  # six more set-ups in fresh interpreters, for the median
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE.format(bench=str(BENCH))],
                              capture_output=True, text=True, cwd=ROOT, env=child_env(),
                              check=True)
        probes.append(float(proc.stdout))
    rng = inputs.new_rng(seed, "lax-3d")

    def run_op(op, res):
        group = f"{op['kind']} {op.get('base', op.get('pair'))}"
        started = time.perf_counter()
        try:
            answer = lax_op(op)
            errors = [] if answer == op["expect"] else [f"{answer!r} != {op['expect']!r}"]
        except Exception:
            answer, errors = None, [traceback.format_exc(limit=1)]
        seconds_ = time.perf_counter() - started
        res.record(group, f"{group} seed={op['seed']}", seconds_, repr(answer), errors)
        return seconds_

    result = in_process("lax-3d", lax_setup, lambda: inputs.lax_3d_pass(rng), run_op,
                        seconds, trace)
    result.setup += probes
    return result


WORKLOADS = {"cli-cold": cli_cold, "classify-warm": classify_warm, "lax-3d": lax_3d}

