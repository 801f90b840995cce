"""The working scalar field: Q(zeta_T) extended by named transcendental
parameters, plus the rational-function field in the global coordinate t on
top of it.  A ScalarTower bundles the whole stack, and its cover the tower
of the field-order extension that a q-sheeted cover needs."""

from __future__ import annotations

from fractions import Fraction

from .scalars import CyclotomicField
from .ratfunc import FunctionField, RatFunc


class ScalarTower:
    """order: the cyclotomic order T; params: transcendental names, adjoined
    innermost-first; var: name of the global coordinate (usually 't')."""

    _cache = {}

    def __init__(self, order=1, params=(), var="t"):
        self.order = order
        self.params = tuple(params)
        self.var = var
        self.base = CyclotomicField.get(order)
        field = self.base
        for p in self.params:
            field = FunctionField.get(p, field)
        self.scalars = field            # coefficient field for functions of t
        self.functions = FunctionField.get(var, field)

    @classmethod
    def get(cls, order=1, params=(), var="t"):
        key = (order, tuple(params), var)
        if key not in cls._cache:
            cls._cache[key] = cls(order, params, var)
        return cls._cache[key]

    # -- distinguished elements ------------------------------------------------
    @property
    def zero(self):
        return self.scalars.zero

    @property
    def one(self):
        return self.scalars.one

    @property
    def zeta(self):
        """The canonical primitive T-th root of unity omega."""
        return self.scalars.coerce(self.base.zeta)

    def zeta_power(self, k):
        return self.scalars.coerce(self.base.zeta_power(k))

    @property
    def t(self) -> RatFunc:
        return self.functions.gen

    def param(self, name):
        f = self.scalars
        while isinstance(f, FunctionField):
            if f.var == name:
                return self.scalars.coerce(f.gen)
            f = f.coeff
        raise KeyError(f"unknown parameter {name!r}")

    # -- coercion ---------------------------------------------------------------
    def scalar(self, x):
        """Coerce into the scalar field (constants of t)."""
        return self.scalars.coerce(x)

    def rational(self, p, q=1):
        return self.scalar(Fraction(p, q))

    # -- related towers -----------------------------------------------------------
    def cover(self, q: int) -> "ScalarTower":
        """Tower for the q-sheeted cover: order qT, the same parameters,
        coordinate 'u' (or the coordinate with 'c' appended); self for
        q = 1.  Elements of self coerce into it."""
        if q == 1:
            return self
        return ScalarTower.get(self.order * q, self.params, "u" if self.var == "t" else self.var + "c")

    def __repr__(self):
        ps = ", ".join(self.params)
        return f"ScalarTower(Q(zeta_{self.order})({ps})({self.var}))"

    def __eq__(self, other):
        return (
            isinstance(other, ScalarTower)
            and self.order == other.order
            and self.params == other.params
            and self.var == other.var
        )

    def __hash__(self):
        return hash((self.order, self.params, self.var))
