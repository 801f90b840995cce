"""Seeded problem sets, the calls into cycloper that solve them, and the
identity each answer must satisfy.

A problem is plain JSON data, so the parent process can hand the same
problem to a fresh worker (the history check).  Problems come in passes
over fixed slots (see OPERS_SLOTS and the others below), with the numbers
drawn from the seed.  A run solves whole rounds of passes, so every run of
a workload solves the same mix of configurations whatever its seed.

The cycloper modules are imported inside the functions: this module is also
imported by the parent process, which must not load the engine.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

WORKLOADS = ("opers", "reproduce", "gaudin", "cli")

# A pass holds one problem per slot, in this order; a round is PASSES passes.
# A slot fixes the configuration and the shape of the input (the coweights,
# whether a number is an integer or a fraction); the seed draws the numbers.
# Every run thus solves the same mix in the same order, which keeps its
# timings comparable across seeds: a problem's cost depends strongly on its
# coweights and on what the process cached before it.  The slots are chosen
# so that the median problem time falls in the middle of a cluster of
# similar slots, not between two clusters, and so that a round takes longer
# than a run's seconds at the commit that defined the benchmark: a run is one
# round until the engine gets faster.
# A slot: (algebra, T, lam0, site coweight, kind of the site position z).
OPERS_SLOTS = [
    ("A2", 4, (0, 0), (1, 0), "frac"),
    ("A2", 6, (2, 2), (1, 0), "int"),
    ("A2", 6, (2, 2), (1, 0), "frac"),
    ("A2", 6, (1, 1), (0, 1), "frac"),
    ("A3", 2, (1, 0, 1), (1, 0, 0), "int"),
]
# (T, eta, kind of the g0 coordinate)
REPRODUCE_SLOTS = [(T, eta, kind) for T in (2, 4) for eta, kind in
                   ((0, "int"), (1, "frac"), (2, "int"))]
# (algebra, T, diagram cycles, sites, Bethe roots): criterion 6's four
# configurations, A3 at every T, and A1 and folded A2 at more T.
GAUDIN_SLOTS = [
    ("A1", 1, None, 2, 1),
    ("A1", 2, None, 2, 0),
    ("A1", 3, None, 1, 1),
    ("A1", 4, None, 2, 1),
    ("A2", 2, [[1, 2]], 1, 1),
    ("A2", 3, None, 1, 0),
    ("A3", 1, None, 2, 1),
    ("A3", 2, [[1, 3]], 1, 1),
    ("A3", 3, None, 1, 0),
    ("A3", 4, [[1, 3]], 2, 0),
    ("A3", 6, [[1, 3]], 1, 1),
    ("A3", 12, [[1, 3]], 1, 0),
    ("A2", 6, [[1, 2]], 2, 1),
]
SLOTS = {
    "opers": OPERS_SLOTS,
    "reproduce": REPRODUCE_SLOTS,
    "gaudin": GAUDIN_SLOTS,
}
PASSES = {"opers": 2, "reproduce": 3, "gaudin": 6, "cli": 1}
CLI_COMMANDS = (
    "canonical",
    "residues",
    "classify",
    "flag-cells",
    "bethe-check",
    "energies",
    "spectrum-crosscheck",
    "lift-cover",
)
# Over Q(zeta_4)(z)(eta)(kappa)(t) these two run for minutes, longer than a
# whole benchmark run; every other command on this fixture stays.
CLI_SKIPPED = {("sl4_site.json", "canonical"), ("sl4_site.json", "residues")}

NUS = {"A2": [[1, 2]], "A3": [[1, 3]]}


def _rng(workload, seed):
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"cycloper-bench:{workload}:{seed}")


def _pool(kind, n):
    """Numbers of small height, so that seeds differ little in cost; the
    pool grows with the pass index n, so a long run never runs out."""
    top = 5 + 2 * max(0, n - 1)
    if kind == "int":
        return [Fraction(k) for k in range(2, top + 1)]
    return sorted({Fraction(k, q) for q in (2, 3) for k in range(1, top + 1) if k % q})


def _number(rng, kind, n):
    return str(rng.choice(_pool(kind, n)) * rng.choice((1, -1)))


def _draw(workload, rng, slot, n):
    if workload == "opers":
        alg, T, lam0, site, kind = slot
        z = _number(rng, kind, n)
        return {"alg": alg, "T": T, "z": z, "lam0": list(lam0), "site": list(site)}
    if workload == "reproduce":
        T, eta, kind = slot
        # the coordinate of g0 on the theta-fixed nilpotent basis (of
        # dimension 1 for every slot): nonzero
        return {"T": T, "eta": eta, "g0": [_number(rng, kind, n)]}
    if workload == "gaudin":
        alg, T, cycles, nsites, nroots = slot
        rank = int(alg[1:])
        # positive points: Gamma-orbits of distinct positive points never meet
        pts = rng.sample(_pool("int", n) + _pool("frac", n), nsites + nroots)
        sites = [{"z": str(z), "weight": [rng.randint(0, 3) for _ in range(rank)]}
                 for z in pts[:nsites]]
        roots = [{"x": str(x), "colour": rng.randrange(rank)} for x in pts[nsites:]]
        return {"alg": alg, "T": T, "cycles": cycles, "sites": sites, "roots": roots}
    raise ValueError(workload)


def problem_key(problem):
    """Identity of a problem's input, independent of its place in a run."""
    body = {k: v for k, v in problem.items() if k not in ("id", "round")}
    return repr(sorted(body.items()))


def problems(workload, seed):
    """Endless stream of distinct problems, pass after pass; a problem's id
    is r<round>.<index in the round>."""
    if workload == "cli":
        invocations = cli_invocations()
        order = list(range(len(invocations)))
        _rng(workload, seed).shuffle(order)
        rnd = 0
        while True:
            for i in order:
                yield dict(invocations[i], id=f"r{rnd}.{i}", round=rnd)
            rnd += 1
    rng = _rng(workload, seed)
    seen = set()
    slots = SLOTS[workload]
    for n in itertools.count():
        rnd = n // PASSES[workload]
        for c, slot in enumerate(slots):
            while True:
                p = _draw(workload, rng, slot, n)
                key = problem_key(p)
                if key not in seen:
                    break
            seen.add(key)
            index = (n % PASSES[workload]) * len(slots) + c
            yield dict(p, id=f"r{rnd}.{index}", round=rnd)


def pass_size(workload):
    if workload == "cli":
        return len(cli_invocations())
    return len(SLOTS[workload])


def round_size(workload):
    return PASSES[workload] * pass_size(workload)


def cli_invocations():
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        for cmd in CLI_COMMANDS:
            if (path.name, cmd) not in CLI_SKIPPED:
                out.append({"fixture": path.name, "command": cmd})
    return out


# ---------------------------------------------------------------------------
# engine side: run inside a worker process that has cycloper on its path
# ---------------------------------------------------------------------------


class Engine:
    """Contexts a workload needs, built once per process (the set-up)."""

    def __init__(self, workload):
        from cycloper.automorphisms import DiagramAut
        from cycloper.context import OperContext
        from cycloper.tower import ScalarTower

        self.workload = workload
        self.contexts = {}
        for slot in SLOTS[workload]:
            if workload == "reproduce":
                alg, T, cycles, params = "A2", slot[0], NUS["A2"], ()
            elif workload == "gaudin":
                alg, T, cycles, params = slot[0], slot[1], slot[2], ()
            else:
                alg, T, cycles, params = slot[0], slot[1], NUS[slot[0]], ()
            if (alg, T) in self.contexts:
                continue
            rank = int(alg[1:])
            nu = DiagramAut.from_cycles(rank, cycles) if cycles else None
            ctx = OperContext(alg, ScalarTower.get(T, params), nu)
            ctx.weyl, ctx.varsigma, ctx.folded  # first access builds them
            self.contexts[(alg, T)] = ctx
        self.miura = {}
        self.flag_cells_done = set()
        if workload == "reproduce":
            from cycloper.miura import build_miura
            from cycloper.weyl import Coweight

            for T, eta, _ in REPRODUCE_SLOTS:
                ctx = self.contexts[("A2", T)]
                lam0 = Coweight((Fraction(eta), Fraction(eta)))
                self.miura[(T, eta)] = build_miura(ctx, lam0)

    def solve(self, p):
        """The timed part: calls into cycloper, returning raw results."""
        return getattr(self, "_solve_" + self.workload)(p)

    def check(self, p, raw):
        """Untimed: verify the identity and render the exact answer.

        Returns (answer strings, None) or (answer strings, reason)."""
        return getattr(self, "_check_" + self.workload)(p, raw)

    # -- opers ---------------------------------------------------------------
    def _miura_at_site(self, p):
        from cycloper.miura import build_miura
        from cycloper.weyl import Coweight

        ctx = self.contexts[(p["alg"], p["T"])]
        z = Fraction(p["z"])
        lam0 = Coweight(tuple(Fraction(c) for c in p["lam0"]))
        site = Coweight(tuple(Fraction(c) for c in p["site"]))
        return ctx, lam0, build_miura(ctx, lam0, sites=[(z, site)])

    def _solve_opers(self, p):
        from cycloper.canonical import canonical_representative, oper_residue
        from cycloper.ratfunc import INFINITY

        ctx, lam0, m = self._miura_at_site(p)
        can = canonical_representative(m.connection(), cyclotomic=True)
        return ctx, lam0, can, oper_residue(can, 0), oper_residue(can, INFINITY)

    def _check_opers(self, p, raw):
        from cycloper.canonical import residue_class_of_coweight

        ctx, lam0, can, res0, resinf = raw
        answer = [repr(can), str(res0), str(resinf)]
        if res0 != residue_class_of_coweight(ctx, lam0, folded=True):
            return answer, "oper_residue at 0 differs from the class of lam0"
        if not (resinf.negated and resinf.folded):
            return answer, "oper_residue at infinity is not a negated folded class"
        return answer, None

    # -- reproduce -----------------------------------------------------------
    def _g0(self, p):
        from cycloper.automorphisms import theta_fixed_nilpotent
        from cycloper.miura import theta_for

        m = self.miura[(p["T"], p["eta"])]
        ctx = m.ctx
        F = ctx.functions
        theta = theta_for(m)
        basis, _ = theta_fixed_nilpotent(ctx.alg, theta)
        coords = [Fraction(c) for c in p["g0"]]
        if len(coords) != len(basis):
            raise ValueError(f"g0 has {len(coords)} coordinates, the basis {len(basis)}")
        vec = [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(ctx.alg.dim)]
        return m, theta, [F.coerce(x) for x in vec], [ctx.scalars.coerce(x) for x in vec]

    def _solve_reproduce(self, p):
        from cycloper.flags import fixed_flag_cells, flag_position
        from cycloper.miura import reproduce_generic

        m, theta, g0, g0_scalars = self._g0(p)
        cells = None
        if (p["T"], p["eta"]) not in self.flag_cells_done:  # once per context
            self.flag_cells_done.add((p["T"], p["eta"]))
            cells = fixed_flag_cells(m.ctx, theta)
        res = reproduce_generic(m, g0)
        return m, g0_scalars, res, flag_position(m, res.gauge), cells

    def _check_reproduce(self, p, raw):
        m, g0, res, fp, cells = raw
        ctx = m.ctx
        K = ctx.scalars
        answer = [
            " ".join(str(c) for c in res.new.u_coroot),
            repr(fp),
        ]
        if cells is not None and len(cells) != 2:
            return answer, "the folded A2 flag variety must have two fixed cells"
        if not res.cyclotomic:
            return answer, "reproduction is not cyclotomic"
        before, after = res.ledger[K.zero]
        if before != after:
            return answer, "res_0 changed"
        if fp.w.length != 0:
            return answer, "flag is not in the big cell"
        lie = ctx.alg.vec_zero(K)
        for root, c in fp.coordinates.items():
            lie[ctx.alg.index_E[root]] = c
        if lie != g0:
            return answer, "flag coordinates differ from g0"
        return answer, None

    # -- gaudin ----------------------------------------------------------------
    def _solve_gaudin(self, p):
        from cycloper.bethe import (
            BetheSystemData,
            bethe_residuals,
            energies,
            energy_oper_identity,
            weight_at_infinity,
        )
        from cycloper.weyl import Coweight

        ctx = self.contexts[(p["alg"], p["T"])]
        sites = [
            (Fraction(s["z"]), Coweight(tuple(Fraction(c) for c in s["weight"])))
            for s in p["sites"]
        ]
        cols = [r["colour"] for r in p["roots"]]
        xs = [Fraction(r["x"]) for r in p["roots"]]
        data = BetheSystemData(ctx, ctx.varsigma, sites, cols, xs)
        return (
            bethe_residuals(data),
            energies(data),
            energy_oper_identity(data),
            weight_at_infinity(data),
        )

    def _check_gaudin(self, p, raw):
        residuals, Es, rows, (lam_inf, w_inf) = raw
        answer = [
            " ".join(str(r) for r in residuals),
            " ".join(str(e) for e in Es),
            " ".join(f"{r['energy']}|{r['residue_lambda_squared']}|{r['residue_2rr_u1']}"
                     for r in rows),
            f"{[str(c) for c in lam_inf.coords]} {w_inf.word}",
        ]
        if len(rows) != len(Es) or not rows:
            return answer, "energy routes missing"
        for r, e in zip(rows, Es):
            if not (r["equal"] and r["energy"] == e):
                return answer, "energy routes differ"
        return answer, None
