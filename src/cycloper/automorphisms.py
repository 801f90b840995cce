"""Diagram and algebra automorphisms: nu, and the twist AlgebraAut given by
nu and a tau per simple root.  The named twists (the diagram twist, varsigma
= Ad_{w^-rho} o nu, vartheta = Ad_{w^-lam0} o varsigma) are built where their
inputs live: ChevalleyAlgebra.diagram_twist and OperContext."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonIntegralCoweight, OrderMismatch, ValidationError
from .linalg import QQ, kernel_basis
from .weyl import Coweight


@dataclass(frozen=True)
class DiagramAut:
    """Permutation nu of the simple-root indices (0-based) preserving the
    Cartan matrix."""

    perm: tuple

    def validate(self, cartan):
        n = cartan.rank
        if sorted(self.perm) != list(range(n)):
            raise ValidationError(f"not a permutation of 0..{n-1}: {self.perm}")
        A = cartan.matrix
        for i in range(n):
            for j in range(n):
                if A[self.perm[i]][self.perm[j]] != A[i][j]:
                    raise ValidationError("permutation does not preserve the Cartan matrix")
        return self

    @property
    def inv_perm(self):
        out = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            out[p] = i
        return tuple(out)

    @property
    def order(self):
        k = 1
        cur = self.perm
        ident = tuple(range(len(self.perm)))
        while cur != ident:
            cur = tuple(self.perm[i] for i in cur)
            k += 1
        return k

    @classmethod
    def identity(cls, rank):
        return cls(tuple(range(rank)))

    @classmethod
    def from_cycles(cls, rank, cycles):
        """cycles given 1-based, e.g. [[1, 3]] for the A3 flip.  Each cycle
        is a list of distinct integers in 1..rank; ValidationError names the
        first entry that is not."""
        if not isinstance(cycles, list):
            raise ValidationError(f"nu must be a list of cycles, got {cycles!r}")
        perm = list(range(rank))
        seen = set()
        for cyc in cycles:
            if not isinstance(cyc, list):
                raise ValidationError(f"nu: cycle {cyc!r} is not a list")
            for a in cyc:
                if isinstance(a, bool) or not isinstance(a, int):
                    raise ValidationError(f"nu: letter {a!r} is not an integer")
                if not 1 <= a <= rank:
                    raise ValidationError(f"nu: letter {a} is outside 1..{rank}")
                if a in seen:
                    raise ValidationError(f"nu: letter {a} appears twice")
                seen.add(a)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a - 1] = b - 1
        return cls(tuple(perm))

    def orbits(self):
        n = len(self.perm)
        seen = [False] * n
        out = []
        for s in range(n):
            if seen[s]:
                continue
            orb = []
            i = s
            while not seen[i]:
                seen[i] = True
                orb.append(i)
                i = self.perm[i]
            out.append(tuple(orb))
        return out

    def apply_root(self, r):
        """Permute the simple-root coordinates of a root."""
        out = [0] * len(r)
        for i, c in enumerate(r):
            out[self.perm[i]] = c
        return tuple(out)

    def apply_coweight(self, lam: Coweight) -> Coweight:
        inv = self.inv_perm
        return Coweight(tuple(lam.coords[inv[i]] for i in range(len(lam.coords))))


class AlgebraAut:
    """The automorphism sigma(E_i) = tau_i E_{nu(i)},
    sigma(coroot_i) = coroot_{nu(i)}, sigma(F_i) = tau_i^-1 F_{nu(i)}: every
    twist of g has this form (Kac, ch. 8).  The taus live in the scalars of
    tower, and sigma^T = id for its order T; without a tower they are
    rational and sigma^ord(nu) = id (the diagram twist).  OrderMismatch
    otherwise.

    Stored as the scaling factor on each basis element: monomial matrices
    basis_k -> factor * basis_{image(k)}."""

    def __init__(self, alg, nu: DiagramAut, taus, tower=None):
        nu.validate(alg.cartan)
        self.alg = alg
        self.nu = nu
        K = self.K = tower.scalars if tower is not None else QQ
        taus = [K.coerce(t) for t in taus]
        if len(taus) != alg.rank:
            raise ValidationError("need one tau per simple root")
        self.taus = taus
        # factor and image per basis index
        dim = alg.dim
        self.image = [None] * dim
        self.factor = [None] * dim
        for i in range(alg.rank):
            self.image[alg.index_H[i]] = alg.index_H[nu.perm[i]]
            self.factor[alg.index_H[i]] = K.one
        # positive roots by increasing height so extraspecial pairs resolve
        for r in alg.pos_roots:
            ie, iff = alg.index_E[r], alg.index_F[r]
            nr = nu.apply_root(r)
            if sum(r) == 1:
                i = r.index(1)
                self.image[ie] = alg.index_E[nr]
                self.factor[ie] = taus[i]
                self.image[iff] = alg.index_F[nr]
                self.factor[iff] = K.one / taus[i]
            else:
                a, b = alg._espair[r]
                N = alg._N[(a, b)]
                fa, fb = self.factor[alg.index_E[a]], self.factor[alg.index_E[b]]
                na, nb = nu.apply_root(a), nu.apply_root(b)
                # sigma(E_r) = (1/N) [sigma E_a, sigma E_b]
                Nimg = alg._N_pos(na, nb)
                self.image[ie] = alg.index_E[nr]
                self.factor[ie] = fa * fb * K.coerce(Nimg) / K.coerce(N)
                ga, gb = self.factor[alg.index_F[a]], self.factor[alg.index_F[b]]
                # sigma(F_r) = -(1/N) [sigma F_a, sigma F_b]; [F,F] constant is -N
                self.image[iff] = alg.index_F[nr]
                self.factor[iff] = ga * gb * K.coerce(Nimg) / K.coerce(N)
        T = tower.order if tower is not None else nu.order
        if not self._power_is_identity(T):
            raise OrderMismatch(f"automorphism order does not divide {T}")
        # theta_fixed_nilpotent's (basis, report), built on its first call,
        # and bethe.lambda0_weight per tower
        self._fixed_nilpotent = None
        self._trace_weights = {}

    def _power_is_identity(self, k):
        """sigma^k = id: each basis vector comes back to itself with factor 1."""
        for idx in range(self.alg.dim):
            i, f = idx, self.K.one
            for _ in range(k):
                f = f * self.factor[i]
                i = self.image[i]
            if i != idx or f != self.K.one:
                return False
        return True

    def apply_vec(self, vec, K=None):
        """Apply to a coefficient vector over a field K admitting the taus."""
        K = K or self.K
        out = [K.zero] * self.alg.dim
        for i, c in enumerate(vec):
            if c:
                out[self.image[i]] = c * K.coerce(self.factor[i])
        return out

    def fixed_subspace(self, vecs, K=None):
        """Echelon basis of the fixed subspace of the sigma-stable span of the
        independent vectors vecs: the kernel of the columns sigma v - v, on
        the coordinates where one of them is nonzero, spread over vecs."""
        K = K or self.K
        moved = [[a - b for a, b in zip(self.apply_vec(v, K), v)] for v in vecs]
        rows = [list(r) for r in zip(*moved) if any(r)]
        return [self.alg.span_vec(x, vecs, K) for x in kernel_basis(K, rows, ncols=len(vecs))]

    def verify_bracket_preservation(self, samples=None):
        """sigma[x,y] = [sigma x, sigma y] on basis pairs (exact)."""
        alg, K = self.alg, self.K
        dim = alg.dim
        pairs = samples or [(i, j) for i in range(dim) for j in range(dim)]
        for i, j in pairs:
            lhs = [K.zero] * dim
            for k, c in alg.bracket_basis(i, j).items():
                img, f = self.image[k], self.factor[k]
                lhs[img] = lhs[img] + K.coerce(c) * K.coerce(f)
            ei = [K.zero] * dim
            ei[self.image[i]] = K.coerce(self.factor[i])
            ej = [K.zero] * dim
            ej[self.image[j]] = K.coerce(self.factor[j])
            rhs = alg.bracket_vec(ei, ej, K)
            if lhs != rhs:
                return False
        return True

    def __repr__(self):
        return f"AlgebraAut(nu={self.nu.perm}, taus={self.taus})"


def as_int(x):
    from .ratfunc import as_rational

    r = as_rational(x)
    if r is None or r.denominator != 1:
        raise NonIntegralCoweight(f"{x} is not an integer")
    return int(r)


def theta_fixed_nilpotent(alg, theta: AlgebraAut):
    """Exact basis of the theta-fixed subspace of n, plus a per-nu-orbit
    report of whether the orbit's root subgroup contributes a fixed vector,
    for a twist theta of alg.  Built once per twist; each call returns
    fresh lists, so a caller may change them."""
    if theta._fixed_nilpotent is None:
        theta._fixed_nilpotent = _build_fixed_nilpotent(alg, theta)
    basis, report = theta._fixed_nilpotent
    return [list(v) for v in basis], [dict(r, fixed_basis=[list(v) for v in r["fixed_basis"]]) for r in report]


def _build_fixed_nilpotent(alg, theta):
    basis = theta.fixed_subspace([alg.unit(alg.index_E[r], theta.K) for r in alg.pos_roots])
    report = []
    for orb in theta.nu.orbits():
        # indices of the orbit subalgebra: simple roots of the orbit, plus the
        # brackets [E_i, E_ibar] when the orbit has type A2 pairs
        idxs = []
        for i in orb:
            idxs.append(alg.index_E[alg.simple_root(i)])
        for i in orb:
            for j in orb:
                s = tuple(x + y for x, y in zip(alg.simple_root(i), alg.simple_root(j)))
                if s in alg._posset:
                    k = alg.index_E[s]
                    if k not in idxs:
                        idxs.append(k)
        fixed = theta.fixed_subspace([alg.unit(k, theta.K) for k in idxs])
        report.append({"orbit": tuple(i + 1 for i in orb), "fixed_dim": len(fixed), "fixed_basis": fixed})
    return basis, report
