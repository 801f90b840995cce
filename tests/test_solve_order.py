"""An answer does not depend on what its process solved before: two problems
on shared contexts, solved in either order, give the answers of fresh
processes, though the second reads what the first left in the contexts'
caches (the finite-oper classes of the algebra, the trace weight of the
twist, W^nu and the Weyl inverses of the group)."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cycloper.automorphisms import DiagramAut
from cycloper.bethe import BetheSystemData, bethe_residuals, energies, energy_oper_identity, weight_at_infinity
from cycloper.canonical import canonical_representative, oper_residue
from cycloper.context import OperContext
from cycloper.miura import build_miura
from cycloper.ratfunc import INFINITY
from cycloper.tower import ScalarTower
from cycloper.weyl import Coweight

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# (algebra, T, cycles of nu, lam0, site coweight, site z): one slot, two z
OPERS = [("A2", 6, [[1, 2]], (2, 2), (1, 0), "3"), ("A2", 6, [[1, 2]], (2, 2), (1, 0), "-5/2")]
# (algebra, T, cycles of nu, sites (z, weight), Bethe roots (x, colour))
GAUDIN = [("A3", 4, [[1, 3]], [("2", (1, 0, 1))], [("3", 1)]),
          ("A3", 4, [[1, 3]], [("3/2", (0, 2, 0)), ("5", (1, 1, 1))], [("7/2", 0)])]
PROBLEMS = {"opers": OPERS, "gaudin": GAUDIN}


def _context(contexts, alg, T, cycles):
    if (alg, T) not in contexts:
        contexts[(alg, T)] = OperContext(alg, ScalarTower.get(T), DiagramAut.from_cycles(int(alg[1:]), cycles))
    return contexts[(alg, T)]


def _coweight(cs):
    return Coweight(tuple(Fraction(c) for c in cs))


def answer(kind, i, contexts):
    """The answer strings of problem i of kind, on the contexts kept in
    contexts (built on first use)."""
    if kind == "opers":
        alg, T, cycles, lam0, site, z = OPERS[i]
        ctx = _context(contexts, alg, T, cycles)
        m = build_miura(ctx, _coweight(lam0), sites=[(Fraction(z), _coweight(site))])
        can = canonical_representative(m.connection(), cyclotomic=True)
        return [repr(can), str(oper_residue(can, 0)), str(oper_residue(can, INFINITY))]
    alg, T, cycles, sites, roots = GAUDIN[i]
    ctx = _context(contexts, alg, T, cycles)
    data = BetheSystemData(ctx, ctx.varsigma, [(Fraction(z), _coweight(w)) for z, w in sites],
                           [c for _, c in roots], [Fraction(x) for x, _ in roots])
    lam_inf, w_inf = weight_at_infinity(data)
    return [repr(bethe_residuals(data)), repr(energies(data)), repr(energy_oper_identity(data)),
            repr(lam_inf), repr(w_inf)]


def _fresh_answer(kind, i):
    code = f"import sys; sys.path.insert(0, {str(TESTS)!r})\nimport test_solve_order as t\nprint(repr(t.answer({kind!r}, {i}, {{}})))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_answers_do_not_depend_on_the_order_of_solving(kind):
    fresh = [_fresh_answer(kind, i) for i in range(2)]
    forward, backward = {}, {}
    in_order = [answer(kind, i, forward) for i in (0, 1)]
    reversed_order = [answer(kind, i, backward) for i in (1, 0)][::-1]
    assert [repr(a) for a in in_order] == [repr(a) for a in reversed_order] == fresh
    (ctx,) = forward.values()
    if kind == "opers":
        # the classes at 0 and infinity: one solve each, the second problem reads them
        assert len(ctx.alg._finite_classes) == 2
    else:
        assert list(ctx.varsigma._trace_weights) == [ctx.tower]
