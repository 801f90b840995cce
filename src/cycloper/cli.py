"""Batch front end: parse a problem file, dispatch a command, render the
exact results as deterministic text or JSON."""

from __future__ import annotations

import argparse
import json
import sys

from .canonical import canonical_representative, classify_general_form, oper_residue
from .bethe import bethe_regularity, energies, energy_oper_identity, weight_at_infinity
from .connection import lift_to_cover
from .errors import CycloperError, ValidationError
from .flags import fixed_flag_cells
from .miura import (
    build_miura,
    reproduce_generic,
    reproduce_orbit_A1,
    reproduce_orbit_A2,
    reproduce_simple,
    riccati_solve,
    theta_for,
)
from .problems import node_indices, parse_cover_power, parse_instantiate, parse_problem, parse_scalar
from .ratfunc import INFINITY

COMMANDS = (
    "canonical",
    "residues",
    "classify",
    "reproduce",
    "flag-cells",
    "bethe-check",
    "energies",
    "spectrum-crosscheck",
    "lift-cover",
)


def _word_str(w):
    if w is None or not w.word:
        return "e"
    return ".".join(f"s{i+1}" for i in w.word)


def scalar_str(c):
    """Canonical scalar rendering: constants collapse through the tower."""
    from .ratfunc import RatFunc

    while isinstance(c, RatFunc) and c.is_constant():
        c = c.constant_value()
    return str(c)


def _cw(cw):
    return [scalar_str(c) for c in cw.coords]


def _miura_of(problem):
    return build_miura(
        problem.ctx,
        problem.lam0,
        sites=problem.sites,
        extra=problem.extra,
        w0=problem.w0,
    )


def cmd_canonical(problem, args):
    m = _miura_of(problem)
    can = canonical_representative(m.connection(), cyclotomic=True)
    alg = problem.ctx.alg
    gauge = {}
    for i, v in enumerate(can.gauge_vec):
        if v:
            kind, r = alg.basis[i]
            gauge[f"E{list(r)}"] = str(v)
    out = {
        "command": "canonical",
        "u": {f"u_{k}[{i}]": str(u) for i, (k, u) in enumerate(zip(can.exponents, can.u))},
        "gauge_log": gauge,
        "centralizer_basis": "p_1 from the principal triple; higher p_k = echelon kernel basis of ad_p1 per grade",
    }
    from .chevalley import fundamental_matrix

    M = fundamental_matrix(alg, can.connection().coeffs)
    if M is not None:
        out["fundamental_matrix"] = [[str(x) for x in row] for row in M]
    return out


def cmd_residues(problem, args):
    m = _miura_of(problem)
    conn = m.connection()
    out = {"command": "residues"}
    out["h_residue_at_0"] = _cw(m.residue_coweight(0))
    out["h_residue_at_infinity"] = _cw(m.residue_coweight(INFINITY))
    sites = {}
    for z, cw, w in problem.sites:
        sites[scalar_str(z)] = _cw(m.residue_coweight(z))
    out["h_residue_at_sites"] = sites
    can = canonical_representative(conn, cyclotomic=True)
    out["oper_residue_at_0"] = str(oper_residue(can, 0))
    out["oper_residue_at_infinity"] = str(oper_residue(can, INFINITY))
    return out


def cmd_classify(problem, args):
    m = _miura_of(problem)
    res = classify_general_form(
        m.connection(), problem.lam0, [(z, cw) for z, cw, _ in problem.sites], m.points
    )
    return {
        "command": "classify",
        "w0": _word_str(res["w0"]),
        "sites": {scalar_str(z): _word_str(w) for z, w in res["sites"]},
        "extra_poles": {scalar_str(x): _word_str(y) for x, y in res["extra"]},
        "w_infinity": _word_str(res["w_inf"]),
        "lambda_infinity": _cw(res["lam_inf"]),
    }


def _option_node(word, rank, option):
    """The 0-based node of the 1-based letter word of option, in 1..rank."""
    try:
        letter = int(word)
    except ValueError:
        raise ValidationError(f"{option}: letter {word!r} is not an integer") from None
    return node_indices([letter], rank, option)[0]


def cmd_reproduce(problem, args):
    m = _miura_of(problem)
    ctx = problem.ctx
    F = ctx.functions
    if args.g0:
        if not m.lam0.is_rational():
            raise ValidationError(
                "the generic route (--g0) needs a rational lam0; bind its parameters (--instantiate)"
            )
        theta = theta_for(m)
        from .automorphisms import theta_fixed_nilpotent

        basis, _ = theta_fixed_nilpotent(ctx.alg, theta)
        coords = [parse_scalar(c, ctx.tower) for c in args.g0.split(",")]
        if len(coords) != len(basis):
            raise ValidationError(
                f"--g0 needs {len(basis)} coordinates (dim of the theta-fixed nilpotent space)"
            )
        vec = ctx.alg.vec_zero(F)
        for c, b in zip(coords, basis):
            for i, x in enumerate(b):
                if x:
                    vec[i] = vec[i] + F.coerce(c) * F.coerce(x)
        res = reproduce_generic(m, vec)
        mode = "generic"
    else:
        if not args.orbit:
            raise ValidationError("reproduce needs --orbit or --g0")
        rank = ctx.alg.rank
        orbit = [_option_node(word, rank, "--orbit") for word in args.orbit.split(",")]
        k = orbit[0] if args.direction is None else _option_node(args.direction, rank, "--direction")
        branch = args.branch or "regular"
        fold = ctx.folded
        oi = fold.orbit_index(k)
        if fold.ell[oi] == 1:
            q = m.pairing(k)
            if branch == "singular":
                f = riccati_solve(q, "singular_at_0", extra_points=m.points)
            else:
                C = parse_scalar(args.constant or "1", ctx.tower)
                f = riccati_solve(q, "general", constant=C, extra_points=m.points)
            if len(fold.orbits[oi]) == 1:
                res = reproduce_simple(m, k, f)
            else:
                res = reproduce_orbit_A1(m, fold.orbits[oi], k, f, branch)
            mode = f"A1-orbit {args.orbit}"
        else:
            if branch == "singular":
                eta = m.pairing(k).residue_at(ctx.scalars.zero)
                mu2 = 2 * (1 - eta)
                seed = (F.coerce(mu2) / F.gen, F.zero, F.zero)
            else:
                raise ValidationError(
                    "regular A2-orbit reproduction needs --g0 (the generic route)"
                )
            res = reproduce_orbit_A2(m, fold.orbits[oi], k, seed=seed, branch=branch)
            mode = f"A2-orbit {args.orbit}"
    led = {}
    for p, (before, after) in res.ledger.items():
        led[scalar_str(p) if p != INFINITY else "inf"] = {"before": _cw(before), "after": _cw(after)}
    return {
        "command": "reproduce",
        "mode": mode,
        "branch": res.branch,
        "cyclotomic": res.cyclotomic,
        "new_u": {f"coroot_{j+1}": str(c) for j, c in enumerate(res.new.u_coroot)},
        "ledger": led,
    }


def cmd_flag_cells(problem, args):
    m = _miura_of(problem)
    theta = theta_for(m)
    cells = fixed_flag_cells(problem.ctx, theta)
    return {
        "command": "flag-cells",
        "cells": [
            {
                "w": _word_str(c.w),
                "dimension": c.dimension,
                "cell_roots": [list(r) for r in c.roots],
            }
            for c in cells
        ],
    }


def cmd_bethe_check(problem, args):
    if problem.bethe is None:
        raise ValidationError("problem has no bethe block")
    residuals, regular = bethe_regularity(problem.bethe)
    return {
        "command": "bethe-check",
        "residuals": [str(r) for r in residuals],
        "oper_regular_at_roots": regular,
        "solved": all(not r for r in residuals),
    }


def cmd_energies(problem, args):
    if problem.bethe is None:
        raise ValidationError("problem has no bethe block")
    Es = energies(problem.bethe)
    return {"command": "energies", "energies": [str(e) for e in Es]}


def cmd_spectrum_crosscheck(problem, args):
    if problem.bethe is None:
        raise ValidationError("problem has no bethe block")
    rows = energy_oper_identity(problem.bethe)
    lam_inf, w_inf = weight_at_infinity(problem.bethe)
    return {
        "command": "spectrum-crosscheck",
        "normalization": "oper route compares res_z(2 (rho|rho) u_1) dt",
        "rows": [
            {
                "energy": str(r["energy"]),
                "residue_lambda_squared": str(r["residue_lambda_squared"]),
                "residue_2rr_u1": str(r["residue_2rr_u1"]),
                "equal": r["equal"],
            }
            for r in rows
        ],
        "weight_at_infinity": _cw(lam_inf),
        "w_infinity": _word_str(w_inf),
    }


def cmd_lift_cover(problem, args):
    q = parse_cover_power(args.q, problem.ctx.tower.order)
    m = _miura_of(problem)
    lifted, ctx2 = lift_to_cover(m.connection(), q)
    alg = ctx2.alg
    comps = {}
    for i, c in enumerate(lifted.coeffs):
        if c:
            kind, r = alg.basis[i]
            label = f"{kind}{list(r)}" if kind != "H" else f"coroot_{r+1}"
            comps[label] = str(c)
    return {"command": "lift-cover", "q": q, "coordinate": ctx2.tower.var, "components": comps}


HANDLERS = {
    "canonical": cmd_canonical,
    "residues": cmd_residues,
    "classify": cmd_classify,
    "reproduce": cmd_reproduce,
    "flag-cells": cmd_flag_cells,
    "bethe-check": cmd_bethe_check,
    "energies": cmd_energies,
    "spectrum-crosscheck": cmd_spectrum_crosscheck,
    "lift-cover": cmd_lift_cover,
}


def render_text(result):
    lines = []

    def emit(prefix, val):
        if isinstance(val, dict):
            for k, v in val.items():
                emit(f"{prefix}{k}.", v) if isinstance(v, (dict, list)) else lines.append(
                    f"{prefix}{k} = {v}"
                )
        elif isinstance(val, list):
            for i, v in enumerate(val):
                if isinstance(v, (dict, list)):
                    emit(f"{prefix}{i}.", v)
                else:
                    lines.append(f"{prefix}{i} = {v}")
        else:
            lines.append(f"{prefix.rstrip('.')} = {val}")

    emit("", result)
    return "\n".join(lines) + "\n"


# options whose value may start with "-" (a negative --constant or first
# --g0 coordinate): argparse reads such a word as an option unless it is a
# plain negative number, so it is attached as --option=value
FREE_VALUE_OPTIONS = ("--instantiate", "--orbit", "--direction", "--constant", "--g0", "--q")


def _attach_dash_values(argv, names):
    """argv with each free-value option followed by a word that starts
    with a single "-" joined to it by "=".  An option may be abbreviated
    as argparse allows, to a prefix of exactly one of the parser's option
    names; an ambiguous prefix is left for argparse to reject."""
    def full_name(word):
        if word in names:
            return word
        hits = [n for n in names if n.startswith(word)] if word.startswith("--") else []
        return hits[0] if len(hits) == 1 else None

    out = []
    for word in argv:
        if out and word.startswith("-") and not word.startswith("--") and full_name(out[-1]) in FREE_VALUE_OPTIONS:
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="cycloper",
        description="Exact computations with cyclotomic opers, Miura reproductions and Gaudin spectra.",
    )
    ap.add_argument("--problem", required=True, help="path to the JSON problem file")
    ap.add_argument("--command", required=True, choices=COMMANDS)
    ap.add_argument("--output", choices=("text", "json"), default="text")
    ap.add_argument("--instantiate", default="", help="bind parameters, e.g. z=2,eta=1")
    ap.add_argument("--orbit", default=None, help="orbit of simple roots, e.g. 1,3")
    ap.add_argument("--branch", default=None, choices=("regular", "singular"))
    ap.add_argument("--direction", default=None, help="reference simple root (1-based)")
    ap.add_argument("--constant", default=None, help="Riccati integration constant")
    ap.add_argument("--g0", default=None, help="coordinates on the theta-fixed nilpotent basis")
    ap.add_argument("--q", default=None, help="cover power for lift-cover")
    # argparse keeps every option string of the parser in this dict
    names = list(ap._option_string_actions)
    args = ap.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv, names))
    try:
        problem = parse_problem(args.problem, parse_instantiate(args.instantiate))
        result = HANDLERS[args.command](problem, args)
    except CycloperError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return e.exit_code
    if args.output == "json":
        sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(render_text(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
