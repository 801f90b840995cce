import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES
from cycloper.cli import main
from cycloper.problems import parse_instantiate, parse_problem, parse_scalar
from cycloper.ratfunc import RatFunc
from cycloper.tower import ScalarTower
from cycloper.errors import ParseError, ValidationError
from cycloper.problems import MAX_EXPONENT, MAX_ORDER

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, args, expect_code=0):
    code = main(args)
    out = capsys.readouterr()
    assert code == expect_code, (code, out.err)
    return out.out, out.err


def fx(name):
    return str(FIXTURES / name)


def test_scalar_parser():
    tw = ScalarTower.get(4, ("z",))
    assert parse_scalar("1/2 + 3/4*zeta", tw) == tw.rational(1, 2) + tw.rational(3, 4) * tw.zeta
    assert parse_scalar("-2", tw) == tw.scalar(-2)
    assert parse_scalar("z**2 - 1", tw) == tw.param("z") ** 2 - tw.one
    with pytest.raises(ParseError):
        parse_scalar("__import__('os')", tw)
    with pytest.raises(ParseError):
        parse_scalar("q", tw)


def test_parse_instantiate():
    assert parse_instantiate("a=1/2, z=3") == {"a": "1/2", "z": "3"}
    assert parse_instantiate("") == {}
    with pytest.raises(ParseError):
        parse_instantiate("oops")


def test_parse_problem_minimal():
    p = parse_problem(fx("minimal_a1.json"))
    assert p.ctx.alg.rank == 1
    assert p.lam0.coords[0] == 1


@pytest.mark.parametrize("T", ["abc", 0, -3, MAX_ORDER + 1, 100000, True, 4.5, None])
def test_parse_problem_rejects_bad_orders(T):
    with pytest.raises(ValidationError, match="T"):
        parse_problem({"algebra": "A1", "T": T, "lambda0": ["1"]})


def test_bad_order_exits_with_the_validation_code(tmp_path, capsys):
    path = tmp_path / "bad_order.json"
    path.write_text(json.dumps({"algebra": "A1", "T": "abc", "lambda0": ["1"]}))
    assert main(["--problem", str(path), "--command", "residues"]) == 3
    assert "ValidationError" in capsys.readouterr().err
    assert parse_problem({"algebra": "A1", "T": "4", "lambda0": ["1"]}).ctx.tower.order == 4


@pytest.mark.parametrize("nu, entry", [
    ([[1, 5]], "letter 5 is outside 1..3"),
    ([[0, 3]], "letter 0 is outside 1..3"),
    ([[1, "x"]], "letter 'x' is not an integer"),
    ([[1, True]], "letter True is not an integer"),
    ([1, 2], "cycle 1 is not a list"),
    ([[1, 3], [3]], "letter 3 appears twice"),
    ([[1, 3, 1]], "letter 1 appears twice"),
    (5, "nu must be a list of cycles"),
])
def test_malformed_nu_exits_with_the_validation_code(nu, entry, tmp_path, capsys):
    path = tmp_path / "bad_nu.json"
    path.write_text(json.dumps({"algebra": "A3", "T": 2, "nu": nu, "lambda0": ["1", "1", "1"]}))
    assert main(["--problem", str(path), "--command", "residues"]) == 3
    err = capsys.readouterr().err
    assert "error[ValidationError]" in err and entry in err and "Traceback" not in err


def test_parse_problem_instantiate():
    p = parse_problem(fx("sl3_origin.json"), {"eta": "2"})
    assert p.lam0.coords == (p.ctx.scalars.coerce(2), p.ctx.scalars.coerce(2))
    assert p.ctx.tower.params == ()


def test_canonical_command_golden(capsys):
    for eta, val in [(1, "3/4"), (2, "2"), (3, "15/4")]:
        out, _ = run_cli(capsys, [
            "--problem", fx("sl3_origin.json"),
            "--command", "canonical",
            "--instantiate", f"eta={eta}",
        ])
        assert f"u.u_1[0] = {val} / (t^2)" in out
        assert "u.u_2[1] = 0" in out


def test_determinism(capsys):
    args = [
        "--problem", fx("sl4_site.json"),
        "--command", "residues",
        "--instantiate", "eta=1,kappa=2,z=2",
        "--output", "json",
    ]
    a, _ = run_cli(capsys, args)
    b, _ = run_cli(capsys, args)
    assert a == b and a


def test_json_scalars_reparse(capsys):
    out, _ = run_cli(capsys, [
        "--problem", fx("bethe_a2_t3.json"),
        "--command", "energies",
        "--output", "json",
    ])
    data = json.loads(out)
    p = parse_problem(fx("bethe_a2_t3.json"))
    from cycloper.bethe import energies

    expect = energies(p.bethe)
    got = [parse_scalar(s, p.ctx.tower) for s in data["energies"]]
    assert [p.ctx.scalars.coerce(g) for g in got] == list(expect)


def test_bethe_check_solved_and_unsolved(capsys):
    out, _ = run_cli(capsys, ["--problem", fx("bethe_a1_solved.json"), "--command", "bethe-check", "--output", "json"])
    data = json.loads(out)
    assert data["solved"] and data["oper_regular_at_roots"] == [True]
    out, _ = run_cli(capsys, ["--problem", fx("bethe_a1_unsolved.json"), "--command", "bethe-check", "--output", "json"])
    data = json.loads(out)
    assert not data["solved"] and data["oper_regular_at_roots"] == [False]


def test_spectrum_crosscheck(capsys):
    out, _ = run_cli(capsys, ["--problem", fx("bethe_a2_t3.json"), "--command", "spectrum-crosscheck", "--output", "json"])
    data = json.loads(out)
    assert all(r["equal"] for r in data["rows"])
    assert all(r["energy"] == r["residue_2rr_u1"] for r in data["rows"])


def test_flag_cells_command(capsys):
    out, _ = run_cli(capsys, [
        "--problem", fx("sl3_origin.json"),
        "--command", "flag-cells",
        "--instantiate", "eta=0",
        "--output", "json",
    ])
    data = json.loads(out)
    assert len(data["cells"]) == 2
    assert sorted(c["dimension"] for c in data["cells"]) == [0, 1]


def test_reproduce_command_sl4(capsys):
    out, _ = run_cli(capsys, [
        "--problem", fx("sl4_site.json"),
        "--command", "reproduce",
        "--orbit", "1,3",
        "--branch", "singular",
        "--instantiate", "eta=1,kappa=1,z=1",
        "--output", "json",
    ])
    data = json.loads(out)
    assert data["cyclotomic"] and data["branch"] == "singular-at-0"
    led = data["ledger"]["0"]
    # -res0 = (1,1,1) maps to s1 s3 . (1,1,1) = (3,-5,3) ... i.e. res0 after
    # has pairing coordinates (-3, 5, -3)
    assert led["before"] == ["-1", "-1", "-1"]
    assert led["after"] == ["3", "-5", "3"]


def test_reproduce_generic_command(capsys):
    out, _ = run_cli(capsys, [
        "--problem", fx("sl3_origin.json"),
        "--command", "reproduce",
        "--g0", "2",
        "--instantiate", "eta=1",
        "--output", "json",
    ])
    data = json.loads(out)
    assert data["mode"] == "generic" and data["cyclotomic"]
    assert data["ledger"]["0"]["before"] == data["ledger"]["0"]["after"]


def test_reproduce_generic_command_on_the_cover(capsys):
    """lam0 = (1/2, 1/2): the generic route works on the 2-sheeted cover."""
    out, _ = run_cli(capsys, [
        "--problem", fx("sl3_origin.json"),
        "--command", "reproduce",
        "--g0", "2",
        "--instantiate", "eta=1/2",
        "--output", "json",
    ])
    data = json.loads(out)
    assert data["mode"] == "generic" and data["cyclotomic"]
    assert data["ledger"]["0"]["before"] == data["ledger"]["0"]["after"] == ["-1/2", "-1/2"]


@pytest.mark.parametrize(
    "problem, extra, option, value",
    [
        ("minimal_a1.json", ["--orbit", "1"], "--constant", "-1/3"),
        ("sl3_origin.json", ["--instantiate", "eta=1"], "--g0", "-1"),
        ("sl3_origin.json", ["--instantiate", "eta=1"], "--g0", "-1,2"),
        ("minimal_a1.json", ["--orbit", "1"], "--const", "-1/3"),
        ("minimal_a1.json", ["--orbit", "1"], "--con", "-1/3"),
        ("sl3_origin.json", ["--instantiate", "eta=1"], "--g", "-1"),
        ("sl3_origin.json", ["--instantiate", "eta=1"], "--g", "-1,2"),
    ],
)
def test_option_values_may_start_with_a_minus(capsys, problem, extra, option, value):
    """A value that starts with "-" may follow its option as a word of its
    own, the option abbreviated as argparse allows: the same stdout and
    exit code as the --option=value form."""
    head = ["--problem", fx(problem), "--command", "reproduce", *extra]
    got = main(head + [option, value]), capsys.readouterr()
    want = main(head + [f"{option}={value}"]), capsys.readouterr()
    assert got[0] == want[0] and got[1].out == want[1].out
    assert "expected one argument" not in got[1].err


def test_an_ambiguous_option_prefix_is_left_to_argparse(capsys):
    """--c matches --command and --constant: argparse's own error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["--problem", fx("minimal_a1.json"), "--command", "reproduce", "--orbit", "1", "--c", "-1/3"])
    assert exc.value.code == 2
    assert "ambiguous option: --c could match --command, --constant" in capsys.readouterr().err


def test_flag_cells_command_on_the_cover(capsys):
    out, _ = run_cli(capsys, [
        "--problem", fx("sl3_origin.json"),
        "--command", "flag-cells",
        "--instantiate", "eta=1/2",
        "--output", "json",
    ])
    data = json.loads(out)
    assert [c["dimension"] for c in data["cells"]] == [1, 0]


def test_singular_a2_orbit_with_symbolic_lam0_exits_3(capsys):
    _, err = run_cli(capsys, [
        "--problem", fx("sl3_origin.json"),
        "--command", "reproduce",
        "--orbit", "1",
        "--branch", "singular",
    ], expect_code=3)
    assert "ValidationError" in err and "--instantiate" in err


@pytest.mark.parametrize("lam0", [["-3", "1"], ["-2", "0"], ["-5", "2"]])
def test_singular_branch_without_a_solution_exits_10(tmp_path, capsys, lam0):
    """When the antiderivative in the Riccati solve has a pole at 0, no
    solution is singular at 0: NoRationalSolution, not a traceback."""
    path = tmp_path / "a2_negative.json"
    path.write_text(json.dumps({"algebra": "A2", "T": 1, "lambda0": lam0}))
    _, err = run_cli(capsys, [
        "--problem", str(path),
        "--command", "reproduce",
        "--orbit", "1",
        "--branch", "singular",
    ], expect_code=10)
    assert "NoRationalSolution" in err and "pole at 0" in err


@pytest.mark.parametrize("fixture", ["sl3_origin.json", "sl4_site.json"])
def test_generic_route_with_symbolic_lam0_exits_3(capsys, fixture):
    _, err = run_cli(capsys, [
        "--problem", fx(fixture),
        "--command", "reproduce",
        "--g0", "1",
    ], expect_code=3)
    assert "ValidationError" in err and "--instantiate" in err


def test_classify_command(capsys):
    out, _ = run_cli(capsys, [
        "--problem", fx("sl4_site.json"),
        "--command", "classify",
        "--instantiate", "eta=1,kappa=2",
        "--output", "json",
    ])
    data = json.loads(out)
    assert data["w0"] == "e" and data["w_infinity"] == "e"
    assert data["lambda_infinity"] == ["3", "2", "3"]


def test_lift_cover_command(capsys):
    out, _ = run_cli(capsys, [
        "--problem", fx("minimal_a1.json"),
        "--command", "lift-cover",
        "--q", "3",
        "--output", "json",
    ])
    data = json.loads(out)
    assert data["q"] == 3 and data["coordinate"] == "u"
    assert data["components"]["F[1]"] == "3*u^2"


def test_error_exit_codes(capsys):
    code = main(["--problem", fx("orbit_collision.json"), "--command", "residues"])
    err = capsys.readouterr().err
    assert code == 3 and "OrbitCollision" in err
    code = main(["--problem", fx("nope.json"), "--command", "residues"])
    assert code == 2
    capsys.readouterr()
    code = main(["--problem", fx("minimal_a1.json"), "--command", "bethe-check"])
    assert code == 3
    capsys.readouterr()


def test_subprocess_end_to_end():
    """One true end-to-end run through the console entry point."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cycloper",
         "--problem", fx("bethe_a1_solved.json"),
         "--command", "bethe-check", "--output", "json"],
        capture_output=True, text=True, cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["solved"] is True


def canonical_data(problem):
    """The u coefficients and the gauge of the canonical form, as in the
    canonical command."""
    from cycloper.canonical import canonical_representative
    from cycloper.miura import build_miura

    m = build_miura(problem.ctx, problem.lam0, sites=problem.sites, extra=problem.extra, w0=problem.w0)
    can = canonical_representative(m.connection(), cyclotomic=True)
    return list(can.u) + list(can.gauge_vec)


def test_symbolic_canonical_form_specialises_to_the_instantiated_ones():
    """sl3_origin with eta symbolic, then eta bound coefficient by
    coefficient, equals the canonical form of the problem instantiated at
    eta; no coefficient has a pole at these points."""
    symbolic = canonical_data(parse_problem(fx("sl3_origin.json")))
    assert any(c.field.var == "eta" for f in symbolic for c in f.num)
    for value in ("3", "1/2", "-7/3"):
        problem = parse_problem(fx("sl3_origin.json"), {"eta": value})
        F = problem.ctx.functions
        eta = problem.ctx.scalars.coerce(Fraction(value))
        bound = [RatFunc(F, [c.eval_at(eta) for c in f.num], [c.eval_at(eta) for c in f.den]) for f in symbolic]
        assert bound == canonical_data(problem)


def test_sl4_canonical_form_with_eta_symbolic_specialises_to_the_instantiated_ones():
    """sl4_site with z=2, kappa=1 and eta symbolic (a solve over
    Q(zeta_4)(eta)(t)), then eta bound coefficient by coefficient, equals
    the canonical form of the problem instantiated at eta."""
    symbolic = canonical_data(parse_problem(fx("sl4_site.json"), {"z": "2", "kappa": "1"}))
    assert any(c.field.var == "eta" for f in symbolic for c in f.num)
    for value in ("3", "1/2", "-7/3"):
        problem = parse_problem(fx("sl4_site.json"), {"z": "2", "kappa": "1", "eta": value})
        F = problem.ctx.functions
        eta = problem.ctx.scalars.coerce(Fraction(value))
        bound = [RatFunc(F, [c.eval_at(eta) for c in f.num], [c.eval_at(eta) for c in f.den]) for f in symbolic]
        assert bound == canonical_data(problem)


def test_residues_output_does_not_depend_on_the_hash_seed():
    outs = []
    for seed in ("1", "2"):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cycloper", "--problem", fx("sl3_origin.json"),
             "--command", "residues", "--output", "json"],
            capture_output=True, cwd=str(ROOT), env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_sl4_fixture_roundtrips_to_displayed_coefficients():
    from cycloper.miura import build_miura

    p = parse_problem(fx("sl4_site.json"), {"eta": "1", "kappa": "1"})
    m = build_miura(p.ctx, p.lam0, sites=p.sites, extra=p.extra, w0=p.w0)
    F = p.ctx.functions
    t = F.gen
    z = F.coerce(p.ctx.tower.param("z"))
    S = 2
    assert m.pairing(0) == -F.one / t - (S * t ** (S - 1)) / (t ** S - z ** S)
    assert m.pairing(1) == -F.one / t
    assert m.pairing(2) == -F.one / t - (S * t ** (S - 1)) / (t ** S + z ** S)


def test_every_fixture_json_roundtrips(capsys):
    """For each fixture, a representative command emits JSON whose scalar
    and function strings re-parse to equal values."""
    from cycloper.miura import build_miura
    from cycloper.canonical import canonical_representative

    # canonical u-values re-parse as functions of t
    out, _ = run_cli(capsys, [
        "--problem", fx("sl3_origin.json"), "--command", "canonical",
        "--instantiate", "eta=2", "--output", "json",
    ])
    data = json.loads(out)
    p = parse_problem(fx("sl3_origin.json"), {"eta": "2"})
    m = build_miura(p.ctx, p.lam0, sites=p.sites, extra=p.extra, w0=p.w0)
    can = canonical_representative(m.connection(), cyclotomic=True)
    vals = list(data["u"].values())
    for s, u in zip(vals, can.u):
        assert parse_scalar(s, p.ctx.tower, allow_t=True) == u
    # residue coweights re-parse as scalars
    out, _ = run_cli(capsys, [
        "--problem", fx("sl4_site.json"), "--command", "residues",
        "--instantiate", "eta=1,kappa=2,z=3", "--output", "json",
    ])
    data = json.loads(out)
    p = parse_problem(fx("sl4_site.json"), {"eta": "1", "kappa": "2", "z": "3"})
    m = build_miura(p.ctx, p.lam0, sites=p.sites, extra=p.extra, w0=p.w0)
    got = [parse_scalar(s, p.ctx.tower) for s in data["h_residue_at_0"]]
    assert got == [p.ctx.scalars.coerce(c) for c in m.residue_coweight(0).coords]


@pytest.mark.parametrize("q", ["abc", "2.5", "0", "-1", "100000", str(MAX_ORDER + 1)])
def test_bad_cover_power_exits_with_the_validation_code(q, capsys):
    code = main(["--problem", fx("minimal_a1.json"), "--command", "lift-cover", "--q", q])
    assert code == 3 and "ValidationError" in capsys.readouterr().err


def test_cover_power_is_bounded_by_the_lifted_order(tmp_path, capsys):
    path = tmp_path / "t500.json"
    path.write_text(json.dumps({"algebra": "A1", "T": 500, "lambda0": ["1"]}))
    assert main(["--problem", str(path), "--command", "lift-cover", "--q", "3"]) == 3
    assert "T * q" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1/0", "(zeta - zeta)^-1", "2^99999999", f"z^{MAX_EXPONENT + 1}",
                                  "(2^1000)^1000", "((2*zeta)^1000)^1000", "(z^1000)^1000",
                                  "((z + 1)^-10)^200"])
def test_scalar_parser_rejects_unbounded_or_undefined_values(text):
    with pytest.raises(ValidationError):
        parse_scalar(text, ScalarTower.get(4, ("z",)))


def test_scalar_parser_accepts_powers_within_the_bound():
    tw = ScalarTower.get(4, ("z",))
    assert parse_scalar(f"z^{MAX_EXPONENT}", tw) == tw.param("z") ** MAX_EXPONENT
    assert parse_scalar("2^-3", tw) == tw.rational(1, 8)


@pytest.mark.parametrize("value", ["1/0", "2^99999999"])
def test_bad_instantiated_value_exits_with_the_validation_code(value, capsys):
    code = main(["--problem", fx("sl3_origin.json"), "--command", "residues",
                 "--instantiate", f"eta={value}"])
    assert code == 3 and "ValidationError" in capsys.readouterr().err


def test_scalar_parser_bounds_products_before_multiplying():
    """Products, quotients, sums and differences are held to the size bounds
    as well: a chain of twenty large factors is refused at once, while a
    product within the bounds still parses."""
    tw = ScalarTower.get(4, ("z",))
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        parse_scalar("*".join(["(z+1)^1000"] * 20), tw)
    assert time.perf_counter() - start < 1
    assert parse_scalar("z^500*z^500", tw) == tw.param("z") ** 1000
    assert parse_scalar("(2^1000)^4*(2^1000)^4 - 2^1000/2^999", tw) == tw.rational(2 ** 8000 - 2)
    with pytest.raises(ValidationError):
        parse_scalar("(2^1000)^5*(2^1000)^5", tw)


def test_over_budget_product_exits_with_the_validation_code():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cycloper", "--problem", fx("sl3_origin.json"), "--command", "residues",
         "--instantiate", "eta=" + "*".join(["2^1000"] * 11)],
        capture_output=True, text=True, cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 3 and "ValidationError" in proc.stderr


def test_huge_rational_site_classifies_quickly(tmp_path):
    """The site factor t - (2^61 + 1) is linear, so linear_split reads its
    root off as -b/a instead of trial-dividing up to sqrt(2^61)."""
    prob = tmp_path / "huge_site.json"
    prob.write_text(json.dumps({"algebra": "A1", "T": 1, "lambda0": ["0"],
                                "sites": [{"z": "2^61+1", "coweight": ["1"]}]}))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cycloper", "--problem", str(prob), "--command", "classify"],
        capture_output=True, text=True, cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 10


def test_symbolic_site_classifies_and_reproduces(tmp_path, capsys):
    """A site at 2z over Q(zeta_3)(z): the denominators hold t^3 - 8z^3,
    whose roots 2z, 2z*zeta, 2z*zeta^2 are no default candidates; the
    commands split them with the points of the Miura oper."""
    prob = tmp_path / "a1_site_2z.json"
    prob.write_text(json.dumps({"algebra": "A1", "T": 3, "parameters": ["z"], "lambda0": ["1"],
                                "sites": [{"z": "2*z", "coweight": ["1"]}]}))
    out, _ = run_cli(capsys, ["--problem", str(prob), "--command", "classify", "--output", "json"])
    assert json.loads(out) == {"command": "classify", "extra_poles": {}, "lambda_infinity": ["4"],
                               "sites": {"2*z": "e"}, "w0": "e", "w_infinity": "e"}
    out, _ = run_cli(capsys, ["--problem", str(prob), "--command", "reproduce", "--orbit", "1",
                              "--output", "json"])
    data = json.loads(out)
    assert data["branch"] == "regular-at-0" and data["cyclotomic"] is False
    assert data["ledger"] == {"0": {"after": ["-1"], "before": ["-1"]},
                              "inf": {"after": ["-6"], "before": ["4"]}}
    assert data["new_u"] == {"coroot_1": "(3*t^8 + (-36)*z^3*t^5 + (-10)*t^3 + 240*z^6*t^2 + 20*z^3)"
                                         " / (t^9 + (-28)*z^3*t^6 + 5*t^4 + 160*z^6*t^3 + (-40)*z^3*t)"}
