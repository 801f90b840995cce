"""Outside-in tracing of cycloper for the benchmark's traced run.

Wrappers are installed on cycloper's classes and in every module namespace
that binds a wrapped function, so calls made through imported names are
seen too.  Every wrapped call counts towards its layer's self time (its
duration minus the time of wrapped calls made inside it).  Arithmetic
layers keep counters only; pipeline-level calls also record one span each,
with its parent span and the problem it belongs to.  Everything stays in
memory until `dump` writes it as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Per-layer metrics reported by the traced run, besides <layer>.self_s and
# <layer>.errors.  Order is the order of the stack, bottom up.
LAYER_METRICS = {
    "scalars": ["mul_calls", "add_calls", "inv_calls", "inv_hit_ratio"],
    "ratfunc": ["mul_calls", "add_calls", "gcd_calls", "gcd_hit_ratio",
                "gcd_trivial_ratio", "residue_calls"],
    "linalg": ["matmul_calls", "rref_calls"],
    "chevalley": ["bracket_calls", "ad_of_vec_calls", "split_graded_calls"],
    "connection": ["exp_calls", "gauge_transform_calls", "dlog_calls",
                   "equivariance_checks"],
    "canonical": ["canonical_representative_s", "oper_residue_s"],
    "miura": ["build_miura_s", "reproduce_generic_s"],
    "solve": ["solve_fundamental_s", "gauss_factorize_s"],
    "flags": ["flag_position_s", "fixed_flag_cells_s"],
    "bethe": ["energies_s", "bethe_residuals_s", "energy_oper_identity_s"],
    "context": ["build_s"],
    "problems": ["parse_problem_s"],
    "cli": ["import_s", "handler_s"],
}

# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "scalars.inv_hit_ratio": ("scalars.inv_hits", "scalars.inv_calls"),
    "ratfunc.gcd_hit_ratio": ("ratfunc.gcd_hits", "ratfunc.gcd_calls"),
    "ratfunc.gcd_trivial_ratio": ("ratfunc.gcd_trivial", "ratfunc.gcd_computed"),
}


def metric_names():
    names = []
    for layer, ms in LAYER_METRICS.items():
        names += [f"{layer}.{m}" for m in ms] + [f"{layer}.self_s", f"{layer}.errors"]
    return names + ["trace.overhead_ratio"]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Counters, per-layer self time and spans of one process."""

    def __init__(self):
        self.counts = defaultdict(int)     # "layer.counter" -> int
        self.seconds = defaultdict(int)    # "layer.name_s" -> ns, outermost calls
        self.self_ns = defaultdict(int)    # layer -> ns
        self.errors = defaultdict(int)     # layer -> exceptions raised out
        self.spans = []
        self.problem = None
        self._stack = []                   # one [child ns] cell per active call
        self._spans_open = []
        self._depth = defaultdict(int)     # metric -> nesting depth
        self._t0 = time.perf_counter_ns()

    def wrap(self, fn, layer, count=None, seconds=None, span=False, before=None, after=None):
        """A wrapper of fn that charges its time to `layer`.

        count: counter incremented per call; seconds: metric that sums the
        duration of outermost calls; span: record a span; before(args) and
        after(result) update extra counters."""
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts
        errors = self.errors
        perf = time.perf_counter_ns
        name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))

        if not (seconds or span):
            # the lean variant: arithmetic layers make ~10^5 calls a problem
            def wrapper(*args, **kwargs):
                if count:
                    counts[count] += 1
                if before:
                    before(args)
                cell = [0]
                stack.append(cell)
                t = perf()
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    errors[layer] += 1
                    raise
                finally:
                    dt = perf() - t
                    stack.pop()
                    self_ns[layer] += dt - cell[0]
                    if stack:
                        stack[-1][0] += dt
                if after:
                    after(out)
                return out
        else:
            tracer = self

            def wrapper(*args, **kwargs):
                if count:
                    counts[count] += 1
                rec = None
                if span:
                    opened = tracer._spans_open
                    rec = {
                        "id": len(tracer.spans),
                        "parent": opened[-1]["id"] if opened else None,
                        "problem": tracer.problem,
                        "layer": layer,
                        "name": name,
                    }
                    tracer.spans.append(rec)
                    opened.append(rec)
                if seconds:
                    tracer._depth[seconds] += 1
                cell = [0]
                stack.append(cell)
                t = perf()
                ok = False
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                except BaseException:
                    errors[layer] += 1
                    raise
                finally:
                    end = perf()
                    dt = end - t
                    stack.pop()
                    self_ns[layer] += dt - cell[0]
                    if stack:
                        stack[-1][0] += dt
                    if seconds:
                        tracer._depth[seconds] -= 1
                        if not tracer._depth[seconds]:
                            tracer.seconds[seconds] += dt
                    if rec is not None:
                        tracer._spans_open.pop()
                        rec["start_s"] = (t - tracer._t0) / 1e9
                        rec["dur_s"] = dt / 1e9
                        rec["ok"] = ok

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = name
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ----------------------------------------------------------
    # A name the engine no longer has is skipped, so the traced run keeps
    # working across refactors; its counters then read 0.
    def patch_method(self, cls, attr, layer, **kw):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, layer, **kw)))
        elif isinstance(raw, property):
            setattr(cls, attr, property(self.wrap(raw.fget, layer, **kw), raw.fset))
        else:
            setattr(cls, attr, self.wrap(raw, layer, **kw))

    def patch_function(self, module, attr, layer, **kw):
        """Wrap module.attr and rebind it in every cycloper module that
        imported it by name."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapped = self.wrap(orig, layer, **kw)
        for name, mod in list(sys.modules.items()):
            if name == "cycloper" or name.startswith("cycloper."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def install(self):
        """Wrap every layer of the engine.  cycloper must be imported."""
        import cycloper.bethe as bethe
        import cycloper.canonical as canonical
        import cycloper.chevalley as chevalley
        import cycloper.connection as connection
        import cycloper.context as context
        import cycloper.flags as flags
        import cycloper.linalg as linalg
        import cycloper.miura as miura
        import cycloper.problems as problems
        import cycloper.ratfunc as ratfunc
        import cycloper.scalars as scalars
        import cycloper.solve as solve

        c = self.counts
        m, f = self.patch_method, self.patch_function

        def inv_probe(args):
            x = args[0]
            if x and x.coeffs in x.field._inv_cache:
                c["scalars.inv_hits"] += 1

        def gcd_probe(args):
            field, a, b = args
            if len(a) > 1 and len(b) > 1 and (a, b) in field._gcd_cache:
                c["ratfunc.gcd_hits"] += 1

        def gcd_result(g):
            c["ratfunc.gcd_computed"] += 1
            if len(g) <= 1:
                c["ratfunc.gcd_trivial"] += 1

        CycNum = scalars.CycNum
        for attr in ("__mul__", "__rmul__"):
            m(CycNum, attr, "scalars", count="scalars.mul_calls")
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            m(CycNum, attr, "scalars", count="scalars.add_calls")
        m(CycNum, "inverse", "scalars", count="scalars.inv_calls", before=inv_probe)
        for attr in ("__truediv__", "__rtruediv__", "__pow__", "__neg__"):
            m(CycNum, attr, "scalars")

        RatFunc = ratfunc.RatFunc
        for attr in ("__mul__", "__rmul__"):
            m(RatFunc, attr, "ratfunc", count="ratfunc.mul_calls")
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            m(RatFunc, attr, "ratfunc", count="ratfunc.add_calls")
        m(RatFunc, "residue_at", "ratfunc", count="ratfunc.residue_calls")
        for attr in ("__truediv__", "__rtruediv__", "__pow__", "__neg__", "inverse",
                     "derivative", "eval_at", "principal_part_at"):
            m(RatFunc, attr, "ratfunc")
        m(ratfunc.FunctionField, "cached_gcd", "ratfunc", count="ratfunc.gcd_calls",
          before=gcd_probe)
        f(ratfunc, "pgcd", "ratfunc", after=gcd_result)
        for attr in ("partial_fractions", "rational_antiderivative", "linear_split"):
            f(ratfunc, attr, "ratfunc")

        SparseMat = linalg.SparseMat
        m(SparseMat, "__matmul__", "linalg", count="linalg.matmul_calls")
        for attr in ("apply", "add", "scale", "map_entries"):
            m(SparseMat, attr, "linalg")
        f(linalg, "rref", "linalg", count="linalg.rref_calls")
        for attr in ("mat_inverse", "solve_linear", "kernel_basis"):
            f(linalg, attr, "linalg")

        Alg = chevalley.ChevalleyAlgebra
        m(Alg, "bracket_vec", "chevalley", count="chevalley.bracket_calls")
        m(Alg, "ad_of_vec", "chevalley", count="chevalley.ad_of_vec_calls")
        m(Alg, "split_graded", "chevalley", count="chevalley.split_graded_calls")
        m(Alg, "form_vec", "chevalley")

        Group = connection.GroupElement
        m(Group, "exp", "connection", count="connection.exp_calls")
        m(Group, "dlog", "connection", count="connection.dlog_calls")
        for attr in ("__matmul__", "ad_apply", "conjugate_by_torus", "eval_at", "log_vec"):
            m(Group, attr, "connection")
        f(connection, "gauge_transform", "connection", count="connection.gauge_transform_calls")
        f(connection, "is_equivariant", "connection", count="connection.equivariance_checks")
        for attr in ("regularize", "lift_to_cover"):
            f(connection, attr, "connection", span=True)

        spans = [
            (canonical, "canonical_representative", "canonical"),
            (canonical, "oper_residue", "canonical"),
            (miura, "build_miura", "miura"),
            (miura, "reproduce_generic", "miura"),
            (solve, "solve_fundamental", "solve"),
            (solve, "gauss_factorize", "solve"),
            (flags, "flag_position", "flags"),
            (flags, "fixed_flag_cells", "flags"),
            (bethe, "energies", "bethe"),
            (bethe, "bethe_residuals", "bethe"),
            (bethe, "energy_oper_identity", "bethe"),
            (problems, "parse_problem", "problems"),
        ]
        for mod, attr, layer in spans:
            f(mod, attr, layer, seconds=f"{layer}.{attr}_s", span=True)
        f(bethe, "weight_at_infinity", "bethe", span=True)

        Ctx = context.OperContext
        for attr in ("__init__", "weyl", "varsigma", "folded"):
            m(Ctx, attr, "context", seconds="context.build_s", span=True)
        f(chevalley, "build_algebra", "context", seconds="context.build_s", span=True)

        if "cycloper.cli" in sys.modules:
            cli = sys.modules["cycloper.cli"]
            for key, handler in list(cli.HANDLERS.items()):
                cli.HANDLERS[key] = self.wrap(handler, "cli", seconds="cli.handler_s", span=True)

    # -- output ------------------------------------------------------------------
    def raw(self):
        """Summable raw data: counters, seconds, self time, errors."""
        out = {k: v for k, v in self.counts.items()}
        out.update({k: v / 1e9 for k, v in self.seconds.items()})
        out.update({f"{k}.self_s": v / 1e9 for k, v in self.self_ns.items()})
        out.update({f"{k}.errors": v for k, v in self.errors.items()})
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"raw": self.raw(), "spans": self.spans}, fh)


def merge_raw(raws):
    total = defaultdict(float)
    for r in raws:
        for k, v in r.items():
            total[k] += v
    return dict(total)


def layer_metrics(raw):
    """Every per-layer metric from summed raw data; absent ones are 0."""
    out = {}
    for name in metric_names():
        if name == "trace.overhead_ratio":
            continue
        if name in RATIOS:
            num, den = RATIOS[name]
            d = raw.get(den, 0)
            out[name] = raw.get(num, 0) / d if d else 0.0
        else:
            v = raw.get(name, 0)
            out[name] = v if name.endswith("_s") else int(round(v))
    return out
