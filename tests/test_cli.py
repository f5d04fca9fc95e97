"""End-to-end command tests: reports, exit codes, file round trips."""

import json
import time

import pytest

from heavenly import catalog
from heavenly.cli import main
from heavenly.grassmann import equation_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_husain(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "husain", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "Husain"
    assert report["fingerprint"]["symmetry-dim"] == 12
    assert report["fingerprint"]["lambda-zero"] is False
    assert report["fingerprint"]["reductive"] is False
    assert report["integrability"]["verdict"] == "integrable"


def test_classify_hess_not_integrable(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "hess", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "unknown"
    assert report["integrability"]["verdict"] == "not-integrable"
    assert report["integrability"]["singular-dim"] == 4
    assert report["integrability"]["meets-all-sublagrangians"] is False


def test_classify_quadratic_routes_cross_check(capsys):
    # the Husain-equivalent quadratic goes through both routes
    code, out, _ = run(capsys, "classify",
                       "--expr",
                       "u13*u24 - u12*u34 - u11*u22 + u12^2 + u11*u33 - u13^2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["quartic-pair"]["case"] == 2
    assert report["quartic-pair"]["case-name"] == "Husain"
    assert report["name"] == "Husain"
    assert report["routes-agree"] is True


def test_linearisable_command(capsys):
    code, out, _ = run(capsys, "linearisable", "--n", "3",
                       "--expr", "HESS - u11 - u22 - u33", "--json")
    assert code == 0
    assert json.loads(out)["linearisable"] == "not-linearisable"
    code, out, _ = run(capsys, "linearisable", "--builtin", "laplace", "--json")
    assert code == 0
    assert json.loads(out)["linearisable"] == "linearisable"


def test_symmetry_command(capsys):
    code, out, _ = run(capsys, "symmetry", "--builtin", "linear-wave", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 16
    assert len(report["generators"]) == 16
    assert report["reductive"] in (True, False)


def test_lambda_command(capsys):
    code, out, _ = run(capsys, "lambda", "--builtin", "second-heavenly", "--json")
    assert code == 0
    assert json.loads(out)["lambda-zero"] is True
    code, out, _ = run(capsys, "lambda", "--builtin", "general-heavenly", "--json")
    assert json.loads(out)["lambda-zero"] is False


def test_lax_check_builtin_and_explicit(capsys):
    code, out, _ = run(capsys, "lax-check", "--builtin-pair", "first-heavenly",
                       "--trials", "4", "--json")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True
    code, out, _ = run(capsys, "lax-check",
                       "--builtin", "first-heavenly",
                       "--x1", "u13*d4 - u14*d3 + lam*d1",
                       "--x2", "-u23*d4 + u24*d3 - lam*d2",
                       "--trials", "4", "--json")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True
    # flipped sign fails with witness
    code, out, _ = run(capsys, "lax-check",
                       "--builtin", "first-heavenly",
                       "--x1", "u13*d4 - u14*d3 + lam*d1",
                       "--x2", "u23*d4 + u24*d3 - lam*d2",
                       "--trials", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] is False
    assert "witness" in report["result"]


@pytest.mark.parametrize("name", ["hess", "nosuch"])
def test_unknown_builtin_pair_lists_the_catalogued_pairs(capsys, name):
    code, out, err = run(capsys, "lax-check", "--builtin-pair", name)
    assert code == 2
    assert out == "" and f"{name!r}" in err and "Traceback" not in err
    for pair in ("second-heavenly", "modified-heavenly", "first-heavenly", "husain",
                 "general-heavenly"):
        assert pair in err


@pytest.mark.parametrize("flag, value", [
    ("--expr", "u11"),
    ("--builtin", "hess"),
    ("--file", "husain.json"),
    ("--n", "4"),
    ("--x1", "lam*d1"),
    ("--x2", "lam*d2"),
])
def test_builtin_pair_rejects_equation_and_field_flags(capsys, flag, value):
    code, out, err = run(capsys, "lax-check", "--builtin-pair", "husain", flag, value)
    assert code == 2
    assert out == "" and flag in err and "Traceback" not in err


def test_builtin_pair_takes_mode_trials_and_seed(capsys):
    code, out, _ = run(capsys, "lax-check", "--builtin-pair", "husain", "--mode", "strict",
                       "--trials", "2", "--seed", "5", "--json")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "--builtin", "first-heavenly",
                       "--k", "1,1,0", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["linearisable"] == "linearisable"
    assert "u12*u13" in report["reduced"]


def test_legendre_command(capsys):
    code, out, _ = run(capsys, "legendre", "--n", "3", "--expr", "HESS - 1",
                       "--flip", "1,2,3", "--json")
    assert code == 0
    assert "u11*u22*u33" in json.loads(out)["result"]


def test_legendre_flip_out_of_range(capsys):
    code, out, err = run(capsys, "legendre", "--builtin", "husain", "--flip", "7")
    assert code == 2
    assert out == "" and "1..4" in err and "Traceback" not in err


def test_legendre_flip_repeated_index(capsys):
    code, out, err = run(capsys, "legendre", "--builtin", "husain", "--flip", "1,1")
    assert code == 2
    assert out == "" and "distinct" in err and "Traceback" not in err


@pytest.mark.parametrize("option, value", [
    ("--k", "a,b,c"),
    ("--k", "1/0,1,1"),
    ("--q", "1,2,x,0,0,0,0,0,0,0"),
    ("--q", "1,0,0,0,0,0,0,0,0,2/0"),
])
def test_reduce_rejects_non_rational_entries(capsys, option, value):
    code, out, err = run(capsys, "reduce", "--builtin", "husain", option, value)
    assert code == 2
    assert out == "" and option in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("legendre", "--flip", "x"), "--flip needs comma-separated indices"),
    (("reduce", "--k", "1,x"), "--k needs three comma-separated rationals"),
    (("reduce", "--k", "1,2"), "--k needs three comma-separated rationals"),
    (("reduce", "--q", "1,x"), "--q entries must be rationals"),
    (("reduce", "--q", "1,2"), "--q needs ten upper-triangle entries"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_malformed_flags_are_rejected_before_the_equation_loads(capsys, monkeypatch, argv,
                                                                message):
    def unreachable(*args, **kwargs):
        raise AssertionError("loaded the equation before checking the flag")

    command, *flag = argv
    for builtin in ("husain", "nope"):  # the flag error wins over a bad source too
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "builtin_equation", unreachable)
            code, out, err = run(capsys, command, "--builtin", builtin, *flag)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_file_with_zero_denominator_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    coords = ["0"] * 41 + ["1/0"]
    path.write_text(json.dumps({"format": "ma-equation/1", "n": 4, "coords": coords}))
    code, out, err = run(capsys, "identify", "--file", str(path))
    assert code == 2
    assert out == "" and "cannot load equation" in err and "Traceback" not in err


@pytest.mark.parametrize("content", [
    {"format": "ma-equation/1", "coords": ["1"] + ["0"] * 41},
    [{"format": "ma-equation/1", "n": 4, "coords": ["1"] + ["0"] * 41}],
    {"format": "ma-equation/1", "n": 4, "coords": [None] + ["0"] * 41},
    {"format": "ma-equation/1", "n": 3.7, "coords": ["1"] + ["0"] * 13},
    {"format": "ma-equation/1", "n": "4", "coords": ["1"] + ["0"] * 41},
], ids=["missing-n", "top-level-list", "null-coordinate", "fractional-n", "string-n"])
def test_malformed_equation_file_rejected(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "identify", "--file", str(path))
    assert code == 2
    assert out == "" and "cannot load equation" in err and "Traceback" not in err


PRIME_RECIPROCALS = " + ".join(f"1/{p}" for p in range(2, 14000)
                               if all(p % q for q in range(2, int(p ** 0.5) + 1)))


@pytest.mark.parametrize("expr, reason", [
    ("2^20000", "digits"), ("7" * 5000 + "*u11 - u22", "digits"),
    ("u11 - u22 + " + PRIME_RECIPROCALS, "digits"),
    ("u11" + ("^" + "7" * 1000) * 5, "degree")],
    ids=["huge-power", "long-literal", "prime-reciprocals", "huge-degree"])
def test_expression_with_huge_coefficient_is_rejected(capsys, expr, reason):
    code, out, err = run(capsys, "classify", "--expr", expr, "--n", "3")
    assert code == 2
    assert out == "" and reason in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "linearisable", "symmetry", "legendre"])
def test_zero_dimension_is_rejected(capsys, command):
    code, out, err = run(capsys, command, "--expr", "u11+u22+u33", "--n", "0")
    assert code == 2
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("source", ["builtin", "file"])
def test_dimension_must_match_loaded_equation(tmp_path, capsys, source):
    if source == "builtin":
        argv = ["--builtin", "laplace"]  # the 3D Laplace equation
    else:
        path = tmp_path / "laplace.json"
        path.write_text(equation_to_json(catalog.laplace(3)), encoding="utf-8")
        argv = ["--file", str(path)]
    code, out, err = run(capsys, "classify", *argv, "--n", "4")
    assert code == 2
    assert out == "" and "--n 4" in err and "n = 3" in err and "Traceback" not in err
    plain = run(capsys, "linearisable", *argv)
    assert plain[0] == 0
    assert run(capsys, "linearisable", *argv, "--n", "3") == plain


def test_classify_solves_the_4d_stabilizer_once(capsys, monkeypatch):
    from heavenly import liesp

    solves = []
    action_matrices = liesp.action_matrices

    def counted(n):
        solves.append(n)
        return action_matrices(n)

    monkeypatch.setattr(liesp, "action_matrices", counted)
    liesp.symmetry_algebra.cache_clear()  # as in a fresh process
    code, _, _ = run(capsys, "classify", "--builtin", "husain")
    assert code == 0
    assert solves.count(4) == 1


def test_expression_that_would_blow_up_is_rejected_quickly(capsys):
    started = time.monotonic()
    code, out, err = run(capsys, "classify", "--expr", "(u11+u12+u13+u14+u22+u23)^20",
                         "--n", "4")
    assert time.monotonic() - started < 2
    assert code == 2
    assert out == "" and "would expand to more than" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("classify", "--builtin", "hess", "--trials", "0"),
    ("classify", "--builtin", "hess", "--trials", "-1"),
    ("lax-check", "--builtin-pair", "husain", "--trials", "0"),
])
def test_trials_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    captured = capsys.readouterr()
    assert exited.value.code == 2
    assert captured.out == "" and "--trials" in captured.err
    assert "Traceback" not in captured.err


def test_singular_command(capsys):
    code, out, _ = run(capsys, "singular",
                       "--expr", "u11*u22 - u12^2 - u33*u44 + u34^2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 4
    assert report["meets-all-sublagrangians"] is False


def test_singular_rejects_nonquadratic(capsys):
    code, _, err = run(capsys, "singular", "--builtin", "hess")
    assert code == 2
    assert "quadratic" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--expr", "u11 +", "--n", "4")
    assert code == 2 and "rejected" in err
    code, _, err = run(capsys, "classify", "--expr", "u11 + u11^2", "--n", "4")
    assert code == 2 and "u11" in err


def test_missing_source_rejected(capsys):
    code, _, err = run(capsys, "identify")
    assert code == 2
    code, _, err = run(capsys, "identify", "--builtin", "husain",
                       "--expr", "u11")
    assert code == 2


def test_unknown_builtin_lists_names(capsys):
    code, _, err = run(capsys, "identify", "--builtin", "nope")
    assert code == 2 and "husain" in err


def test_unknown_builtin_message_is_not_quoted(capsys):
    code, out, err = run(capsys, "identify", "--builtin", "nope")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown builtin 'nope'; available: ")


def test_reports_byte_identical(capsys):
    first = run(capsys, "classify", "--builtin", "husain")
    second = run(capsys, "classify", "--builtin", "husain")
    assert first == second
    third = run(capsys, "classify", "--builtin", "husain", "--seed", "99")
    assert third[0] == 0


def test_save_and_load_equation(tmp_path, capsys):
    path = tmp_path / "husain.json"
    code, out, _ = run(capsys, "classify", "--builtin", "husain",
                       "--save-eq", str(path), "--json")
    assert code == 0
    code, out, _ = run(capsys, "identify", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["name"] == "Husain"


def test_classify_saves_a_3d_equation(tmp_path, capsys):
    path = tmp_path / "laplace.json"
    code, out, _ = run(capsys, "classify", "--builtin", "laplace", "--save-eq", str(path),
                       "--json")
    assert code == 0
    assert json.loads(out)["saved-to"] == str(path)
    code, out, _ = run(capsys, "linearisable", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["equation"] == "u11 + u22 + u33"


@pytest.mark.parametrize("target", ["directory", "missing-parent", "empty"])
def test_classify_save_to_an_unwritable_path_is_rejected(tmp_path, capsys, target):
    path = {"directory": str(tmp_path), "missing-parent": str(tmp_path / "missing" / "eq.json"),
            "empty": ""}[target]
    code, out, err = run(capsys, "classify", "--builtin", "hess", "--save-eq", path)
    assert code == 2
    assert out == "" and err.startswith("error: cannot write equation: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("classify", "--builtin", "husain", "--trials", "5"), "--trials"),
    (("basis-info", "--n", "3", "--seed", "1"), "--seed"),
    (("symmetry", "--builtin", "husain", "--seed", "1"), "--seed"),
    (("legendre", "--builtin", "husain", "--flip", "1", "--trials", "2"), "--trials"),
])
def test_options_are_accepted_only_where_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    captured = capsys.readouterr()
    assert exited.value.code == 2
    assert captured.out == "" and flag in captured.err and "Traceback" not in captured.err


def test_classify_husain_is_integrable_at_every_seed(capsys):
    for seed in range(10):
        code, out, _ = run(capsys, "classify", "--builtin", "husain", "--seed", str(seed),
                           "--json")
        assert code == 0
        integrability = json.loads(out)["integrability"]
        assert integrability["verdict"] == "integrable"
        assert not {"samples-run", "degenerate-skipped"} & set(integrability)


def test_classify_tests_4d_nondegeneracy_once(capsys, monkeypatch):
    from heavenly import liesp

    draws = []
    sample_zero_point = liesp.sample_zero_point

    def counted(eq, rng, budget=200):
        draws.append(eq.n)
        return sample_zero_point(eq, rng, budget)

    monkeypatch.setattr(liesp, "sample_zero_point", counted)
    liesp.nondegenerate.cache_clear()  # as in a fresh process
    assert run(capsys, "identify", "--builtin", "husain")[0] == 0  # one nondegenerate call
    once = draws.count(4)
    draws.clear()
    liesp.nondegenerate.cache_clear()
    assert run(capsys, "classify", "--builtin", "husain")[0] == 0
    assert draws.count(4) == once > 0


def test_timing_flag_adds_field(capsys):
    code, out, _ = run(capsys, "basis-info", "--n", "2", "--json")
    assert "elapsed-seconds" not in json.loads(out)
    code, out, _ = run(capsys, "basis-info", "--n", "2", "--json", "--timing")
    assert "elapsed-seconds" in json.loads(out)


def test_inconclusive_exit_code(capsys):
    # the equation 1 = 0 has no variety points to sample
    code, _, err = run(capsys, "lax-check",
                       "--expr", "1", "--n", "4",
                       "--x1", "lam*d1", "--x2", "lam*d2", "--trials", "2")
    assert code == 3 and "inconclusive" in err


@pytest.mark.parametrize("expr", ["0", "u11-u11", "0*u11"])
@pytest.mark.parametrize("command", [
    ("classify", "--n", "4"), ("identify",), ("symmetry",), ("lambda",), ("linearisable",),
    ("singular",), ("legendre", "--flip", "1"), ("reduce", "--k", "1,2,3")],
    ids=lambda argv: argv[0])
def test_zero_equation_is_rejected(capsys, command, expr):
    code, out, err = run(capsys, *command, "--expr", expr)
    assert code == 2
    assert out == "" and err.startswith("rejected:") and "zero" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("classify", "--n", "3", "--expr", "1"),
    ("linearisable", "--n", "3", "--expr", "1"),
    ("identify", "--n", "4", "--expr", "1"),
    ("classify", "--n", "4", "--expr", "1"),
    ("reduce", "--builtin", "first-heavenly"),  # reduces to the constant -1
], ids=lambda argv: "-".join(argv[:3]))
def test_no_point_to_sample_is_inconclusive(capsys, argv):
    # 1 = 0 has no point to sample, so no verdict, degenerate or otherwise
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and err.startswith("inconclusive:") and "Traceback" not in err


@pytest.mark.parametrize("argv, accepted", [
    (("classify", "--n", "2", "--expr", "u11 + u22"), "n = 3 or 4"),
    (("identify", "--builtin", "laplace"), "n = 4"),
    (("lambda", "--n", "3", "--expr", "u11 + u22 + u33"), "n = 4"),
    (("reduce", "--builtin", "kahler"), "n = 4"),
    (("linearisable", "--builtin", "husain"), "n = 3"),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_command_names_the_dimensions_it_takes(capsys, argv, accepted):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and f"{argv[0]} takes {accepted}, not n = " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["directory", "missing-parent", "read-only-parent"])
def test_classify_checks_the_save_path_before_classifying(tmp_path, capsys, monkeypatch,
                                                          target):
    from heavenly import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("classified before checking --save-eq")

    monkeypatch.setattr("heavenly.integrability.identify_equation", unreachable)
    path = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "eq.json",
            "read-only-parent": tmp_path / "eq.json"}[target]
    if target == "read-only-parent":  # root may write anywhere, so the check is faked
        monkeypatch.setattr(cli.os, "access", lambda *args: False)
    code, out, err = run(capsys, "classify", "--builtin", "hess", "--save-eq", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: cannot write equation: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_cli_contract_holds_on_fuzzed_arguments_and_files(tmp_path):
    # every input exits 0, 2 or 3 within a time bound, and no exception
    # escapes main (which would print a traceback)
    import contextlib
    import io

    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    eq_file, save_path = tmp_path / "eq.json", tmp_path / "saved.json"
    accepts = {  # besides one of --expr, --builtin and --file
        "basis-info": ["--n"], "classify": ["--n", "--seed", "--save-eq"],
        "identify": ["--n", "--seed"], "symmetry": ["--n"], "lambda": ["--n"],
        "lax-check": ["--n", "--seed", "--trials", "--builtin-pair", "--x1", "--x2", "--mode"],
        "reduce": ["--n", "--seed", "--k", "--q"], "legendre": ["--n", "--flip"],
        "singular": ["--n"], "linearisable": ["--n", "--seed"],
    }
    blocks = ["u11", "u22 - u33", "u12", "u34", "u11*u22 - u12^2", "u13*u24 - u14*u23", "HESS",
              "u11*u33 - u13^2", "1", "lam*d1", "u13*d4", "(u11 + u12)^2", "u11^2", "u5", "x", "+",
              "1/0", "-"]
    expr = st.lists(st.tuples(st.sampled_from(["", "2*", "-", "1/3*", "0*"]),
                              st.sampled_from(blocks)), min_size=1, max_size=4).map(
        lambda terms: " + ".join(c + b for c, b in terms))
    numbers = st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2", "1/0", "5", "a", ""]),
                       max_size=11).map(",".join)
    coords = st.lists(st.one_of(st.sampled_from(["0", "1", "-1", "1/3", "1/0", "x"]),
                                st.integers(-3, 3), st.none()), max_size=43)
    content = st.one_of(
        st.sampled_from([(3, 14), (4, 42)]).flatmap(lambda shape: st.lists(
            st.sampled_from(["0", "0", "0", "1", "-1", "2"]), min_size=shape[1],
            max_size=shape[1]).map(lambda c: json.dumps(
                {"format": "ma-equation/1", "n": shape[0], "coords": c}))),
        st.fixed_dictionaries({"format": st.sampled_from(["ma-equation/1", "other"]),
                               "n": st.one_of(st.integers(1, 5), st.just("4"), st.just(3.5)),
                               "coords": coords}).map(json.dumps),
        st.text(max_size=30))
    values = {
        "--expr": expr, "--builtin": st.sampled_from(list(catalog.builtin_names()) + ["nope"]),
        "--file": st.just(str(eq_file)), "--n": st.integers(1, 5).map(str),
        "--seed": st.integers(0, 9).map(str), "--flip": numbers, "--k": numbers,
        "--q": numbers, "--x1": expr, "--x2": expr, "--trials": st.integers(-1, 3).map(str),
        "--mode": st.sampled_from(["strict", "mod-span", "loose"]),
        "--builtin-pair": st.sampled_from(["husain", "hess", "second-heavenly"]),
        "--save-eq": st.sampled_from([str(save_path), str(tmp_path), ""]),
    }

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(sorted(accepts)), st.booleans(), content, st.data())
    def check(command, as_json, text, data):
        first = data.draw(st.sampled_from(["--expr", "--builtin", "--file", "--n"]))
        read = st.lists(st.sampled_from(accepts[command]), max_size=3, unique=True)
        anything = st.lists(st.sampled_from(sorted(values)), max_size=2)
        flags = [first] + data.draw(read.map(lambda fs: [f for f in fs if f != first]) | anything)
        argv = [command] + ["--json"] * as_json
        argv += [f"{flag}={data.draw(values[flag], label=flag)}" for flag in flags]
        eq_file.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        started = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exited:  # argparse usage errors
                code = exited.code
        assert time.monotonic() - started < 10, argv
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
