"""Problem files: JSON descriptions of a cyclotomic oper/Gaudin setup with
every scalar written exactly (rationals, zeta, named parameters)."""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from fractions import Fraction

from .automorphisms import AlgebraAut, DiagramAut
from .bethe import BetheSystemData
from .cartan import CartanDatum
from .chevalley import build_algebra
from .context import OperContext
from .errors import ParseError, ValidationError
from .scalars import CycNum
from .tower import ScalarTower
from .weyl import Coweight


MAX_ORDER = 1000
"""Largest cyclotomic order T a problem file may ask for.  Building
Q(zeta_T) divides x^T - 1 by every Phi_d with d | T, which takes under a
second for T <= 1000 (T = 100000 runs for more than 20 s); the split prime of
scalars.split_prime needs T far below 2^30.  The lift-cover command's
Q(zeta_{T q}) is held to the same bound."""

MAX_EXPONENT = 1000
"""Largest |n| a scalar expression may raise to, as in "z^n", and largest
degree in the parameters and t that a power, product, quotient, sum or
difference may reach (degrees add under * and /, the larger one is kept
under + and -): "(z^1000)^1000" would otherwise ask for a polynomial of
degree 10^6, and each factor of "(z+1)^1000*(z+1)^1000*..." makes the next
product slower."""

MAX_SCALAR_BITS = 10000
"""Largest estimated size in bits of the integers of a parsed operation (see
_size): |n| times the size of the base for a power, the sum of the sizes
for * and /, one more than the larger size for + and -.  "2^99999999" or
"((2*zeta)^1000)^1000" would otherwise run for minutes and then fail to
render (Python refuses to print ints of more than 4300 digits)."""


def _size(x):
    """(bits, degree) of a parsed scalar.  bits estimates the growth of its
    integers under products: the bit length of the denominator or of the sum
    of the numerator's |coefficients| (Q(zeta_T)), plus the bit length of
    the number of terms (rational functions); degree is the total degree in
    the parameters and t."""
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length()), 0
    if isinstance(x, CycNum):
        return max(sum(map(abs, x.num)).bit_length(), x.den.bit_length()), 0
    num, den = x.num, x.den
    sizes = [_size(c) for c in num + den]
    bits = max(b for b, _ in sizes) + (len(num) + len(den)).bit_length()
    return bits, max(len(num), len(den)) - 1 + max(g for _, g in sizes)


def parse_scalar(text, tower: ScalarTower, env=None, allow_t=False):
    """Exact scalar expressions: integer literals, 'zeta', parameter names,
    + - * / ** and parentheses; with allow_t also the coordinate."""
    env = env or {}
    try:
        # rendered output writes powers with a caret; accept both spellings
        node = ast.parse(str(text).replace("^", "**"), mode="eval").body
    except SyntaxError as e:
        raise ParseError(f"bad scalar expression {text!r}: {e}")

    field_ = tower.functions if allow_t else tower.scalars

    def ev(n):
        if isinstance(n, ast.BinOp):
            a, b = ev(n.left), ev(n.right)
            if isinstance(n.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
                (bits_a, deg_a), (bits_b, deg_b) = _size(a), _size(b)
                if isinstance(n.op, (ast.Add, ast.Sub)):
                    bits, degree = max(bits_a, bits_b) + 1, max(deg_a, deg_b)
                else:
                    bits, degree = bits_a + bits_b, deg_a + deg_b
                if bits > MAX_SCALAR_BITS or degree > MAX_EXPONENT:
                    raise ValidationError(f"operands of {type(n.op).__name__} are too large in {text!r}")
                if isinstance(n.op, ast.Add):
                    return a + b
                if isinstance(n.op, ast.Sub):
                    return a - b
                if isinstance(n.op, ast.Mult):
                    return a * b
                return a / b
            if isinstance(n.op, ast.Pow):
                if isinstance(b, Fraction) and b.denominator == 1:
                    b = int(b)
                if not isinstance(b, int):
                    raise ParseError(f"exponent must be an integer literal in {text!r}")
                bits, degree = _size(a)
                n = abs(b)
                if n > MAX_EXPONENT or n * bits > MAX_SCALAR_BITS or n * degree > MAX_EXPONENT:
                    raise ValidationError(f"power {b} is too large in {text!r}")
                return a ** b
            raise ParseError(f"unsupported operator in {text!r}")
        if isinstance(n, ast.UnaryOp):
            v = ev(n.operand)
            if isinstance(n.op, ast.USub):
                return -v
            if isinstance(n.op, ast.UAdd):
                return v
            raise ParseError(f"unsupported unary operator in {text!r}")
        if isinstance(n, ast.Constant):
            if isinstance(n.value, int):
                return Fraction(n.value)
            raise ParseError(f"only integer literals allowed, got {n.value!r}")
        if isinstance(n, ast.Name):
            name = n.id
            if name in env:
                return env[name]
            if name == "zeta":
                return field_.coerce(tower.zeta)
            if allow_t and name == tower.var:
                return tower.functions.gen
            try:
                return field_.coerce(tower.param(name))
            except KeyError:
                raise ParseError(f"unknown name {name!r} in {text!r}")
        raise ParseError(f"unsupported syntax in {text!r}")

    try:
        return field_.coerce(ev(node))
    except ZeroDivisionError:
        raise ValidationError(f"division by zero in {text!r}") from None


def parse_cover_power(text, order):
    """The cover power q of lift-cover: an integer q >= 1 with
    order * q <= MAX_ORDER (the default is 2)."""
    try:
        q = 2 if text is None else int(text)
    except ValueError:
        raise ValidationError(f"--q must be an integer, got {text!r}") from None
    if not 1 <= q <= MAX_ORDER // order:
        raise ValidationError(f"--q = {q} is outside 1..{MAX_ORDER // order} (T * q <= {MAX_ORDER})")
    return q


def parse_instantiate(spec: str):
    """'a=1/2,z=3' -> {'a': '1/2', 'z': '3'} (values parsed later against the
    tower)."""
    out = {}
    if not spec:
        return out
    for part in spec.split(","):
        if "=" not in part:
            raise ParseError(f"bad --instantiate entry {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


@dataclass
class ProblemFile:
    ctx: OperContext
    lam0: Coweight
    w0: object
    sites: list          # (z, Coweight, WeylElement|None)
    extra: list          # (x, WeylElement)
    bethe: BetheSystemData
    options: dict
    raw: dict


def _require(d, key, where):
    if key not in d:
        raise ParseError(f"missing key {key!r} in {where}")
    return d[key]


def parse_problem(path_or_dict, instantiate=None) -> ProblemFile:
    instantiate = instantiate or {}
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ParseError(f"cannot read problem file: {e}")
        except json.JSONDecodeError as e:
            raise ParseError(f"problem file is not valid JSON: line {e.lineno}: {e.msg}")

    alg_spec = _require(raw, "algebra", "problem")
    form_scales = None
    if "form_scales" in raw:
        form_scales = [Fraction(s) for s in raw["form_scales"]]
    if isinstance(alg_spec, str):
        alg = build_algebra(CartanDatum.from_label(alg_spec), form_scales)
    elif isinstance(alg_spec, dict) and "cartan" in alg_spec:
        alg = build_algebra(CartanDatum.from_rows(alg_spec["cartan"]), form_scales)
    else:
        raise ParseError("algebra must be a type label or {'cartan': rows}")

    T = raw.get("T", 1)
    try:
        if isinstance(T, bool) or not isinstance(T, (int, str)):
            raise ValueError
        T = int(T)
    except ValueError:
        raise ValidationError(f"T must be an integer, got {raw['T']!r}") from None
    if not 1 <= T <= MAX_ORDER:
        raise ValidationError(f"T = {T} is outside 1..{MAX_ORDER}")
    declared = list(raw.get("parameters", []))
    params = tuple(p for p in declared if p not in instantiate)
    tower = ScalarTower.get(T, params)
    env = {}
    for name, val in instantiate.items():
        if name not in declared:
            raise ParseError(f"--instantiate names unknown parameter {name!r}")
        env[name] = parse_scalar(val, tower)

    rank = alg.rank
    nu = (
        DiagramAut.from_cycles(rank, raw["nu"]) if raw.get("nu") else DiagramAut.identity(rank)
    )
    ctx = OperContext(alg, tower, nu)
    W = ctx.weyl

    def coweight(coords, where):
        if len(coords) != rank:
            raise ValidationError(f"{where}: expected {rank} coordinates")
        return Coweight(tuple(parse_scalar(c, tower, env) for c in coords))

    def word(entry):
        if entry is None:
            return None
        for i in entry:
            if not 1 <= int(i) <= rank:
                raise ValidationError(f"Weyl word letter {i} out of range")
        return W.from_word([int(i) - 1 for i in entry])

    lam0 = coweight(raw.get("lambda0", ["0"] * rank), "lambda0")
    w0 = word(raw.get("w0"))
    sites = []
    for s in raw.get("sites", []):
        z = parse_scalar(_require(s, "z", "site"), tower, env)
        cw = coweight(_require(s, "coweight", "site"), "site coweight")
        sites.append((z, cw, word(s.get("w"))))
    extra = []
    for s in raw.get("extra_poles", []):
        x = parse_scalar(_require(s, "x", "extra pole"), tower, env)
        y = word(_require(s, "y", "extra pole"))
        extra.append((x, y))

    bethe = None
    if "bethe" in raw:
        b = raw["bethe"]
        if b.get("sigma_taus"):
            taus = [parse_scalar(x, tower, env) for x in b["sigma_taus"]]
            sigma = AlgebraAut(alg, nu, taus, tower)
        else:
            sigma = ctx.varsigma
        bsites = []
        for s in b.get("sites", []):
            z = parse_scalar(_require(s, "z", "bethe site"), tower, env)
            wcoords = coweight(_require(s, "weight", "bethe site"), "bethe weight")
            bsites.append((z, wcoords))
        colours = [int(c) - 1 for c in b.get("colours", [])]
        for c in colours:
            if not 0 <= c < rank:
                raise ValidationError(f"colour {c+1} out of range")
        roots = [parse_scalar(x, tower, env) for x in b.get("roots", [])]
        bethe = BetheSystemData(ctx, sigma, bsites, colours, roots)

    return ProblemFile(
        ctx=ctx,
        lam0=lam0,
        w0=w0,
        sites=sites,
        extra=extra,
        bethe=bethe,
        options=raw.get("options", {}),
        raw=raw,
    )
