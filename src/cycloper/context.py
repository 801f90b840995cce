"""Bundle of the objects every oper computation needs: the algebra, the
working scalar tower (T, parameters, coordinate), the diagram automorphism,
and cached derived data (Weyl group, varsigma, folding, ad-probe)."""

from __future__ import annotations

from fractions import Fraction

from .automorphisms import DiagramAut, make_automorphism
from .chevalley import build_algebra, dual_algebra
from .errors import MalformedOper
from .folding import fold
from .linalg import QQ, mat_inverse
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
            from .errors import ValidationError

            raise ValidationError(
                f"T = {tower.order} must be a multiple of ord(nu) = {self.nu.order}"
            )
        self._weyl = None
        self._varsigma = None
        self._folded = None
        self._dual = None
        self._probe = None

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
    def varsigma(self):
        if self._varsigma is None:
            self._varsigma = make_automorphism(self.alg, self.nu, "varsigma", tower=self.tower)
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

    def vartheta(self, lam0):
        return make_automorphism(self.alg, self.nu, "vartheta", tower=self.tower, lam0=lam0)

    def cover(self, q: int) -> "OperContext":
        return OperContext(self.alg, self.tower.cover(q), self.nu)

    # ---- ad probe: invert vec -> ad-matrix on a fixed set of entries --------
    def ad_probe(self):
        """(positions, inv): positions is a list of dim matrix entries (i, j)
        such that the map vec -> (ad_vec entries) is invertible; inv is the
        rational inverse matrix."""
        if self._probe is not None:
            return self._probe
        alg = self.alg
        dim = alg.dim
        # candidate positions: nonzero entries of basis ad matrices
        cand = []
        seen = set()
        for b in range(dim):
            for i, row in enumerate(alg.ad[b].rows):
                for j in row:
                    if (i, j) not in seen:
                        seen.add((i, j))
                        cand.append((i, j))
        cand.sort()
        chosen = []
        rows = []
        reduced = []  # rows of an incremental row-echelon form with pivots
        pivots = []
        for (i, j) in cand:
            row = [alg.ad[b].rows[i].get(j, Fraction(0)) for b in range(dim)]
            work = list(row)
            for rrow, p in zip(reduced, pivots):
                if work[p]:
                    f = work[p]
                    work = [a - f * b for a, b in zip(work, rrow)]
            piv = next((c for c, v in enumerate(work) if v), None)
            if piv is None:
                continue
            inv_p = Fraction(1) / work[piv]
            work = [a * inv_p for a in work]
            reduced.append(work)
            pivots.append(piv)
            rows.append(row)
            chosen.append((i, j))
            if len(rows) == dim:
                break
        if len(rows) != dim:
            raise MalformedOper("the adjoint map is not injective")
        inv = mat_inverse(QQ, rows)
        self._probe = (chosen, inv)
        return self._probe

    def matrix_to_vec(self, M, K=None, check=True):
        """Recover Y with ad_Y = M (M a SparseMat over K)."""
        K = K or self.functions
        positions, inv = self.ad_probe()
        vals = [M.rows[i].get(j, K.zero) for (i, j) in positions]
        Y = []
        for row in inv:
            acc = K.zero
            for c, v in zip(row, vals):
                if c and v:
                    acc = acc + K.coerce(c) * v
            Y.append(acc)
        if check:
            adY = self.alg.ad_of_vec(Y, K)
            if not (adY == M):
                raise ValueError("matrix is not the ad of any algebra element")
        return Y

    def __repr__(self):
        return f"OperContext({self.alg!r}, {self.tower!r}, nu={self.nu.perm})"
