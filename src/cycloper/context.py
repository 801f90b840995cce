"""Bundle of the objects every oper computation needs: the algebra, the
working scalar tower (T, parameters, coordinate), the diagram automorphism,
and cached derived data (Weyl group, the twists varsigma and vartheta,
folding, Langlands dual, covers)."""

from __future__ import annotations

from fractions import Fraction

from .automorphisms import AlgebraAut, DiagramAut, as_int
from .chevalley import build_algebra, dual_algebra
from .errors import MalformedOper, ValidationError
from .folding import fold
from .tower import ScalarTower
from .weyl import WeylGroup


class OperContext:
    def __init__(self, alg, tower: ScalarTower, nu: DiagramAut = None):
        if isinstance(alg, str):
            alg = build_algebra(alg)
        self.alg = alg
        self.tower = tower
        self.nu = nu or DiagramAut.identity(alg.rank)
        self.nu.validate(alg.cartan)
        if tower.order % self.nu.order != 0:
            raise ValidationError(
                f"T = {tower.order} must be a multiple of ord(nu) = {self.nu.order}"
            )
        self._weyl = None
        self._varsigma = None
        self._folded = None
        self._dual = None
        self._covers = {}
        self._varthetas = {}

    @property
    def functions(self):
        return self.tower.functions

    @property
    def scalars(self):
        return self.tower.scalars

    @property
    def omega(self):
        return self.tower.zeta

    @property
    def weyl(self) -> WeylGroup:
        if self._weyl is None:
            self._weyl = WeylGroup(self.alg.cartan)
        return self._weyl

    @property
    def varsigma(self) -> AlgebraAut:
        """varsigma = Ad_{w^-rho} o nu: tau_i = omega^-1."""
        if self._varsigma is None:
            taus = [self.scalars.one / self.omega] * self.alg.rank
            self._varsigma = AlgebraAut(self.alg, self.nu, taus, self.tower)
        return self._varsigma

    @property
    def folded(self):
        if self._folded is None:
            self._folded = fold(self.alg, self.nu, self.weyl)
        return self._folded

    @property
    def dual(self) -> "OperContext":
        """The Langlands-dual context: the dual algebra over the same tower
        and nu, built on first use."""
        if self._dual is None:
            self._dual = OperContext(dual_algebra(self.alg), self.tower, self.nu)
        return self._dual

    def vartheta(self, lam0) -> AlgebraAut:
        """vartheta = Ad_{w^-lam0} o varsigma for a rational nu-invariant
        lam0, one per lam0.  It lives on the cover of order qT, q the
        denominator of lam0: tau_i = zeta_{qT}^-(q + q <alpha_i, lam0>)."""
        if lam0 not in self._varthetas:
            if not lam0.is_nu_invariant(self.nu):
                raise ValidationError("lam0 must be nu-invariant")
            q = lam0.denominator()
            cover = self.cover(q)
            w = cover.scalars.one / cover.omega
            taus = [w ** (q + as_int(c * q)) for c in lam0.coords]
            self._varthetas[lam0] = AlgebraAut(self.alg, self.nu, taus, cover.tower)
        return self._varthetas[lam0]

    def cover(self, q: int) -> "OperContext":
        """The context of the q-sheeted cover t = u^q, one per q; self for q = 1."""
        if q == 1:
            return self
        if q not in self._covers:
            self._covers[q] = OperContext(self.alg, self.tower.cover(q), self.nu)
        return self._covers[q]

    def matrix_to_vec(self, M, K=None):
        """Y with ad_Y = M (M a SparseMat over K), read off M directly.
        Column H_m of ad_Y holds -<beta, coroot_m> y_beta at each root beta,
        so the rho-check-weighted sum of row beta there is -ht(beta) y_beta;
        the diagonal entry of ad_Y at E_alpha_i is (A^T h)_i.  Raises
        MalformedOper when M is not the ad of any element."""
        K = K or self.functions
        alg = self.alg
        H = [alg.index_H[m] for m in range(alg.rank)]
        Y = []
        for k, row in enumerate(M.rows):
            acc = K.zero
            if alg.height_of[k]:
                for j in H:
                    v = row.get(j)
                    if v:
                        acc = acc + K.coerce(alg.rho[j]) * v
                if acc:
                    acc = acc * K.coerce(Fraction(-1, alg.height_of[k]))
            Y.append(acc)
        E = [alg.index_E[alg.simple_root(i)] for i in range(alg.rank)]
        for j, m in zip(H, alg.solve_cartan_transpose([M.rows[e].get(e, K.zero) for e in E], K)):
            Y[j] = m
        if not (alg.ad_of_vec(Y, K) == M):
            raise MalformedOper("matrix is not the ad of any algebra element")
        return Y

    def __repr__(self):
        return f"OperContext({self.alg!r}, {self.tower!r}, nu={self.nu.perm})"
