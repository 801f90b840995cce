"""Semisimple Lie algebras from Cartan matrices.

The Chevalley basis is built combinatorially: positive roots by height
closure, then all structure constants N_{a,b} by Carter's extraspecial-pair
induction (extraspecial pairs get N = p+1; every other special pair follows
from the standard triple/quadruple identities).  Elements are coefficient
vectors over the graded basis

    F-roots (height -m .. -1), coroots, E-roots (height 1 .. m),

so the block structure matches the principal Z-grading everywhere downstream.
"""

from __future__ import annotations

from fractions import Fraction

from .automorphisms import AlgebraAut
from .cartan import CartanDatum
from .errors import MalformedOper, NotFiniteType
from .linalg import QQ, SparseMat, kernel_basis, mat_inverse, mat_mul, mat_vec, rref


class ChevalleyAlgebra:
    def __init__(self, cartan: CartanDatum, form_scales=None):
        self.cartan = cartan
        n = cartan.rank
        self.rank = n
        A = cartan.matrix
        self.d = list(cartan.symmetrizer)  # (alpha_i, alpha_i)/2, long roots d=1

        # ---- positive roots by height closure --------------------------------
        pos = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        posset = set(pos)
        frontier = list(pos)
        while frontier:
            new = []
            for beta in frontier:
                for i in range(n):
                    pairing = sum(beta[j] * A[i][j] for j in range(n))  # <beta, coroot_i>
                    q = 0
                    cur = beta
                    while True:
                        cur = tuple(c - (1 if j == i else 0) for j, c in enumerate(cur))
                        if cur in posset or (sum(cur) == 0 and all(c == 0 for c in cur)):
                            q += 1
                            if all(c == 0 for c in cur):
                                break
                        else:
                            break
                    if q - pairing > 0:
                        cand = tuple(c + (1 if j == i else 0) for j, c in enumerate(beta))
                        if cand not in posset:
                            posset.add(cand)
                            new.append(cand)
            frontier = new
        self.pos_roots = sorted(posset, key=lambda r: (sum(r), r))
        self._posset = posset
        self.n_pos = len(self.pos_roots)
        self.dim = 2 * self.n_pos + n
        self.height_max = sum(self.pos_roots[-1])

        # ---- root helpers ------------------------------------------------------
        self._root_comp = {}
        comps = cartan.components()
        for r in self.pos_roots:
            supp = next(i for i in range(n) if r[i])
            for ci, comp in enumerate(comps):
                if supp in comp:
                    self._root_comp[r] = ci
        self.form_scales = list(form_scales) if form_scales else [Fraction(1)] * len(comps)
        self.components = comps

        # ---- basis layout --------------------------------------------------------
        # index order: F-part (heights -m..-1), H-part, E-part (heights 1..m)
        neg_order = sorted(self.pos_roots, key=lambda r: (-sum(r), r))
        self.basis = (
            [("F", r) for r in neg_order]
            + [("H", i) for i in range(n)]
            + [("E", r) for r in self.pos_roots]
        )
        self.index_F = {r: i for i, (kind, r) in enumerate(self.basis) if kind == "F"}
        self.index_H = {i: self.n_pos + i for i in range(n)}
        self.index_E = {
            r: i for i, (kind, r) in enumerate(self.basis) if kind == "E"
        }
        self.height_of = []
        for kind, r in self.basis:
            if kind == "H":
                self.height_of.append(0)
            elif kind == "E":
                self.height_of.append(sum(r))
            else:
                self.height_of.append(-sum(r))
        self.blocks = {}
        for i, h in enumerate(self.height_of):
            self.blocks.setdefault(h, []).append(i)

        # ---- structure constants ----------------------------------------------
        self._build_constants()

        # ---- principal sl2, grading, centralizer --------------------------------
        self._build_principal()

        # ---- bilinear form -----------------------------------------------------
        self._build_form()

        # splitting data for canonical forms, lazily built per (height, nu),
        # and the diagram twist per nu
        self._split_cache = {}
        self._twists = {}

    def solve_cartan_transpose(self, c, K=QQ):
        """m with A^T m = c, over K: the coroot coordinates of the h-element
        with values c on the simple roots (or the simple-root coordinates of
        the weight with values c on the coroots)."""
        return mat_vec(K, self.cartan_transpose_inverse, [K.coerce(x) for x in c])

    # ------------------------------------------------------------------ roots --
    def is_root(self, r):
        if r in self._posset:
            return True
        return tuple(-c for c in r) in self._posset

    def root_pairing(self, r, i):
        """<r, coroot_i> (0-based i)."""
        A = self.cartan.matrix
        return sum(r[j] * A[i][j] for j in range(self.rank))

    def root_form(self, a, b):
        """(a, b) with long roots of squared length 2, per-factor scales applied
        to the h-side consistently (scales multiply the invariant form)."""
        A = self.cartan.matrix
        tot = Fraction(0)
        for i in range(self.rank):
            if a[i]:
                for j in range(self.rank):
                    if b[j]:
                        tot += a[i] * b[j] * self.d[i] * A[i][j]
        return tot

    def root_d(self, r):
        return self.root_form(r, r) / 2

    def coroot_coeffs(self, r):
        """gamma-check = sum m_i d_i / d_gamma coroot_i (coefficients on the
        coroot basis)."""
        dg = self.root_d(r)
        return tuple(Fraction(r[i]) * self.d[i] / dg for i in range(self.rank))

    def _string_down(self, a, b):
        """p = max k with b - k a a root."""
        k = 0
        cur = b
        while True:
            cur = tuple(x - y for x, y in zip(cur, a))
            if self.is_root(cur) and any(cur):
                k += 1
            else:
                return k

    # ---------------------------------------------------- structure constants --
    def _build_constants(self):
        order_key = {r: (sum(r), r) for r in self.pos_roots}
        self._espair = {}
        self._N = {}
        for gamma in self.pos_roots:
            if sum(gamma) == 1:
                continue
            pairs = []
            for a in self.pos_roots:
                if order_key[a] >= order_key[gamma]:
                    break
                b = tuple(g - x for g, x in zip(gamma, a))
                if b in self._posset and order_key[a] < order_key[b]:
                    pairs.append((a, b))
            pairs.sort(key=lambda ab: order_key[ab[0]])
            a1, b1 = pairs[0]
            self._espair[gamma] = (a1, b1)
            self._N[(a1, b1)] = Fraction(self._string_down(a1, b1) + 1)
            gg = self.root_form(gamma, gamma)
            for a, b in pairs[1:]:
                # quadruple identity on (a1, b1, -a, -b)
                total = Fraction(0)
                s1 = tuple(x - y for x, y in zip(b1, a))  # b1 - a
                if any(s1) and self.is_root(s1):
                    t1 = self._N_any(b1, tuple(-x for x in a)) * self._N_any(
                        a1, tuple(-x for x in b)
                    )
                    total += t1 / self.root_form(s1, s1)
                s2 = tuple(x - y for x, y in zip(a1, a))  # a1 - a
                if any(s2) and self.is_root(s2):
                    t2 = self._N_any(tuple(-x for x in a), a1) * self._N_any(
                        b1, tuple(-x for x in b)
                    )
                    total += t2 / self.root_form(s2, s2)
                self._N[(a, b)] = gg * total / self._N[(a1, b1)]

    def _N_pos(self, a, b):
        if (a, b) in self._N:
            return self._N[(a, b)]
        if (b, a) in self._N:
            return -self._N[(b, a)]
        raise KeyError(f"missing structure constant for {a}, {b}")

    def _N_any(self, a, b):
        """N_{a,b} for roots of any sign with a+b a nonzero root."""
        c = tuple(x + y for x, y in zip(a, b))
        a_pos = a in self._posset
        b_pos = b in self._posset
        if a_pos and b_pos:
            return self._N_pos(a, b)
        if not a_pos and not b_pos:
            return -self._N_any(tuple(-x for x in a), tuple(-x for x in b))
        if not a_pos:
            return -self._N_any(b, a)
        # a positive, b negative
        beta = tuple(-x for x in b)
        if c in self._posset:
            # a = c + beta; use triple (a, b, -c): N_{a,b} = (c,c)/(a,a) * (-N_{beta,c})
            return -self.root_form(c, c) / self.root_form(a, a) * self._N_pos(beta, c)
        e = tuple(-x for x in c)
        # c negative: e = beta - a positive, beta = a + e
        return self.root_form(e, e) / self.root_form(beta, beta) * self._N_pos(e, a)

    def bracket_basis(self, i, j):
        """[basis_i, basis_j] as a dict {index: Fraction}."""
        key = (i, j)
        cache = getattr(self, "_brk_cache", None)
        if cache is None:
            cache = self._brk_cache = {}
        if key in cache:
            return cache[key]
        out = self._bracket_basis_raw(i, j)
        cache[key] = out
        return out

    def _bracket_basis_raw(self, i, j):
        ki, ri = self.basis[i]
        kj, rj = self.basis[j]
        n = self.rank
        out = {}

        def add(idx, c):
            if c:
                out[idx] = out.get(idx, Fraction(0)) + c
                if not out[idx]:
                    del out[idx]

        if ki == "H" and kj == "H":
            return out
        if ki == "H":
            sign = 1 if kj == "E" else -1
            add(j, Fraction(sign * self.root_pairing(rj, ri)))
            return out
        if kj == "H":
            res = self._bracket_basis_raw(j, i)
            return {k: -v for k, v in res.items()}
        if ki == "E" and kj == "E":
            s = tuple(x + y for x, y in zip(ri, rj))
            if s in self._posset:
                add(self.index_E[s], self._N_pos(ri, rj))
            return out
        if ki == "F" and kj == "F":
            s = tuple(x + y for x, y in zip(ri, rj))
            if s in self._posset:
                add(self.index_F[s], -self._N_pos(ri, rj))
            return out
        if ki == "F" and kj == "E":
            res = self._bracket_basis_raw(j, i)
            return {k: -v for k, v in res.items()}
        # ki == "E", kj == "F"
        a, b = ri, rj
        if a == b:
            for idx, c in enumerate(self.coroot_coeffs(a)):
                add(self.index_H[idx], c)
            return out
        dif = tuple(x - y for x, y in zip(a, b))
        nb = tuple(-x for x in b)
        if dif in self._posset:
            add(self.index_E[dif], self._N_any(a, nb))
        elif tuple(-x for x in dif) in self._posset:
            add(self.index_F[tuple(-x for x in dif)], self._N_any(a, nb))
        return out

    def bracket_vec(self, x, y, K=QQ):
        """Bracket of coefficient vectors over any field facade K: one
        product x_i y_j per basis pair with a nonzero bracket, structure
        constants +-1 applied as add/sub, any other coerced once."""
        out = [K.zero] * self.dim
        consts = {}
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in ys:
                brk = self.bracket_basis(i, j)
                if not brk:
                    continue
                p = xi * yj
                for k, c in brk.items():
                    if c == 1:
                        out[k] = out[k] + p
                    elif c == -1:
                        out[k] = out[k] - p
                    else:
                        if c not in consts:
                            consts[c] = K.coerce(c)
                        out[k] = out[k] + p * consts[c]
        return out

    def ad_series(self, x, v, K=QQ, shift=0):
        """sum_k ad_x^k v / (k + shift)! for a nilpotent x (exact, finite).

        shift=0 gives exp(ad_x) v = Ad_{e^x} v; shift=1 gives the series
        of (d e^x) e^-x with v = x' (Hall, Lie Groups, Thm 5.4)."""
        out = list(v)
        term = list(v)
        k = 1
        while any(term):
            term = self.bracket_vec(x, term, K)
            if k + shift > 1:
                inv = K.coerce(Fraction(1, k + shift))
                term = [t * inv if t else t for t in term]
            out = [a + b if b else a for a, b in zip(out, term)]
            k += 1
            if k > 2 * self.height_max + 4:
                raise MalformedOper("exp series did not terminate; element not nilpotent")
        return out

    def ad_of_vec(self, x, K=QQ):
        """Sparse matrix of ad_x for a coefficient vector x over K."""
        m = SparseMat(K, self.dim, self.dim)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j in range(self.dim):
                for k, c in self.bracket_basis(i, j).items():
                    cur = m.rows[k].get(j)
                    val = xi * K.coerce(c) if cur is None else cur + xi * K.coerce(c)
                    if val:
                        m.rows[k][j] = val
                    elif cur is not None:
                        del m.rows[k][j]
        return m

    # ------------------------------------------------------------- principal --
    def _build_principal(self):
        n = self.rank
        A = self.cartan.matrix
        # (A^T)^-1, inverted here once per algebra
        AT = [[Fraction(A[i][j]) for i in range(n)] for j in range(n)]
        self.cartan_transpose_inverse = mat_inverse(QQ, AT)
        if self.cartan_transpose_inverse is None:
            raise NotFiniteType("Cartan matrix is singular")
        # 2 rho-check = sum c_i coroot_i : sum_i c_i a_ij = 2 for all j
        self.two_rho_coeffs = self.solve_cartan_transpose([2] * n)
        self.p_minus1 = self.vec_zero()
        for r in self.pos_roots:
            if sum(r) == 1:
                self.p_minus1[self.index_F[r]] = Fraction(1)
        self.p1 = self.vec_zero()
        for i in range(n):
            r = tuple(1 if j == i else 0 for j in range(n))
            self.p1[self.index_E[r]] = self.two_rho_coeffs[i]
        self.rho = self.vec_zero()
        for i in range(n):
            self.rho[self.index_H[i]] = self.two_rho_coeffs[i] / 2

        # centralizer of p1 graded by height
        ad_p1 = self.ad_of_vec(self.p1)
        self.exponents = []
        self.centralizer_basis = []  # list of (k, vector)
        for k in range(1, self.height_max + 1):
            idxs = self.blocks.get(k, [])
            nxt = self.blocks.get(k + 1, [])
            rows = []
            for t in nxt:
                row = []
                for j in idxs:
                    col = ad_p1.rows[t]
                    row.append(col.get(j, Fraction(0)))
                rows.append(row)
            kb = kernel_basis(QQ, rows, ncols=len(idxs)) if idxs else []
            vecs = []
            for v in kb:
                w = self.vec_zero()
                for j, c in zip(idxs, v):
                    w[j] = c
                vecs.append(w)
            if k == 1 and vecs:
                # p1 itself is the distinguished grade-1 vector; extend by
                # independent kernel vectors when the exponent has multiplicity
                chosen = [list(self.p1)]
                rows, _ = rref(QQ, [list(self.p1)])
                for v in vecs:
                    cand, piv = rref(QQ, [r for r in rows] + [list(v)])
                    if len(piv) > len(rows):
                        rows = cand
                        chosen.append(v)
                vecs = chosen
            for w in vecs:
                self.exponents.append(k)
                self.centralizer_basis.append((k, w))
        if len(self.exponents) != self.rank:
            raise MalformedOper("centralizer dimension must equal rank")

    def vec_zero(self, K=QQ):
        return [K.zero] * self.dim

    def vec_E(self, r, K=QQ):
        v = self.vec_zero(K)
        v[self.index_E[tuple(r)]] = K.one
        return v

    def vec_F(self, r, K=QQ):
        v = self.vec_zero(K)
        v[self.index_F[tuple(r)]] = K.one
        return v

    def vec_H(self, i, K=QQ):
        v = self.vec_zero(K)
        v[self.index_H[i]] = K.one
        return v

    def simple_root(self, i):
        """0-based i -> coefficient tuple."""
        return tuple(1 if j == i else 0 for j in range(self.rank))

    # ------------------------------------------------------------ bilinear form --
    def _build_form(self):
        """Gram matrix of the invariant form: (E_a|F_a) = scale/d_a,
        (H_i|H_j) = scale * a_ij / d_j; and weight_gram, the induced form on
        h^* in the coordinates c_i = <lam, coroot_i>: (lam|mu) = c^T G c'
        with G = A^-1 B (A^T)^-1, B_ij = d_i a_ij / scale_i (identifying h
        with h^* through the form, the induced form varies inversely with
        the per-component scale)."""
        n = self.rank
        A = self.cartan.matrix
        gram = {}

        def comp_scale_root(r):
            return self.form_scales[self._root_comp[r]]

        for r in self.pos_roots:
            c = comp_scale_root(r) / self.root_d(r)
            gram[(self.index_E[r], self.index_F[r])] = c
            gram[(self.index_F[r], self.index_E[r])] = c
        comp_of_node = {}
        for ci, comp in enumerate(self.components):
            for i in comp:
                comp_of_node[i] = ci
        for i in range(n):
            for j in range(n):
                if A[i][j]:
                    c = self.form_scales[comp_of_node[i]] * Fraction(A[i][j]) / self.d[j]
                    gram[(self.index_H[i], self.index_H[j])] = c
        self.gram_rows = {}
        for (i, j), c in sorted(gram.items()):
            self.gram_rows.setdefault(i, []).append((j, c))
        B = [[Fraction(self.d[i] * A[i][j]) / self.form_scales[comp_of_node[i]] for j in range(n)]
             for i in range(n)]
        S = self.cartan_transpose_inverse
        self.weight_gram = mat_mul(QQ, mat_mul(QQ, list(zip(*S)), B), S)

    def form_vec(self, x, y, K=QQ):
        """(x | y) = sum_i x_i (sum_j gram_ij y_j) over the rows of the gram."""
        out = K.zero
        for i, row in self.gram_rows.items():
            if x[i]:
                s = sum((y[j] * K.coerce(c) for j, c in row if y[j]), K.zero)
                if s:
                    out = out + x[i] * s
        return out

    def diagram_twist(self, nu):
        """The diagram automorphism of nu as an AlgebraAut (every tau 1; it
        carries the +-1 factors on non-simple root vectors), one per nu."""
        if nu not in self._twists:
            self._twists[nu] = AlgebraAut(self, nu, [Fraction(1)] * self.rank)
        return self._twists[nu]

    # ------------------------------------------------------------- DS splitting --
    def split_data(self, height, nu=None):
        """Precomputed left inverse realising the decomposition
        g_h = [p_-1, g_{h+1}] (+) a cap g_h at the given height, or with nu
        g_h^nu = [p_-1, g_{h+1}^nu] (+) a^nu cap g_h inside the nu-fixed
        subalgebra.

        Returns (inv, m_basis, a_basis, idxs): inv is the rational left
        inverse (A^T A)^-1 A^T of the column matrix A = [ad_{p_-1} m_basis |
        a_basis] over the g_h block coordinates idxs (A^-1 when A is square)."""
        return self._split_entry(height, nu)[0]

    def _split_entry(self, height, nu):
        """(split_data, A or None): A is kept when it has more rows than
        columns, so that split_graded can check X lies in its column space."""
        key = (height, nu.perm if nu is not None else None)
        if key in self._split_cache:
            return self._split_cache[key]
        idxs = self.blocks.get(height, [])
        if nu is None:
            m_basis = [[Fraction(int(i == j)) for i in range(self.dim)]
                       for j in self.blocks.get(height + 1, [])]
            a_basis = [w for k, w in self.centralizer_basis if k == height]
        else:
            from .finite_opers import nu_fixed_block_basis, nu_fixed_centralizer_basis

            m_basis = nu_fixed_block_basis(self, nu, height + 1)
            a_basis = nu_fixed_centralizer_basis(self, nu, height)
        cols = [self.bracket_vec(self.p_minus1, v) for v in m_basis] + a_basis
        At = [[col[j] for j in idxs] for col in cols]
        A = [list(row) for row in zip(*At)] if At else [[] for _ in idxs]
        AtA_inv = mat_inverse(QQ, mat_mul(QQ, At, A))
        if AtA_inv is None:
            raise MalformedOper(f"graded splitting failed at height {height}")
        entry = ((mat_mul(QQ, AtA_inv, At), m_basis, a_basis, idxs),
                 A if len(idxs) > len(cols) else None)
        self._split_cache[key] = entry
        return entry

    def split_graded(self, X, height, K=QQ, nu=None):
        """Split a vector X supported on g_height (on g_height^nu with nu) as
        [p_-1, m] + c.

        Returns (m_vec, c_vec, a_coeffs) over K; raises MalformedOper when X
        has no such split (with nu, when X is not nu-fixed)."""
        (inv, m_basis, a_basis, idxs), A = self._split_entry(height, nu)
        coords = [X[j] for j in idxs]
        sol = mat_vec(K, inv, coords)
        if A is not None and mat_vec(K, A, sol) != coords:
            raise MalformedOper("graded splitting failed in the nu-fixed subalgebra")
        m_coeffs, a_coeffs = sol[: len(m_basis)], sol[len(m_basis):]
        return self.span_vec(m_coeffs, m_basis, K), self.span_vec(a_coeffs, a_basis, K), a_coeffs

    def span_vec(self, coeffs, basis, K=QQ):
        """sum_i coeffs[i] basis[i] for rational basis vectors, over K."""
        out = self.vec_zero(K)
        for u, bv in zip(coeffs, basis):
            if u:
                for j, c in enumerate(bv):
                    if c:
                        out[j] = out[j] + u * K.coerce(c)
        return out

    def __repr__(self):
        return f"ChevalleyAlgebra(rank={self.rank}, dim={self.dim})"


def build_algebra(cartan, form_scales=None) -> ChevalleyAlgebra:
    """Construct the algebra from a CartanDatum, a type label, or rows."""
    if isinstance(cartan, str):
        cartan = CartanDatum.from_label(cartan)
    elif not isinstance(cartan, CartanDatum):
        cartan = CartanDatum.from_rows(cartan)
    return ChevalleyAlgebra(cartan, form_scales)


def dual_algebra(alg: ChevalleyAlgebra) -> ChevalleyAlgebra:
    """The Langlands dual (transposed Cartan matrix), its invariant form
    agreeing with the form induced on h^* through the form of alg: scale
    1/(min d_i) per component, divided by alg's own scale (the induced form
    varies inversely with the form on h)."""
    scales = [Fraction(1) / (min(alg.d[i] for i in comp) * alg.form_scales[ci])
              for ci, comp in enumerate(alg.components)]
    return ChevalleyAlgebra(alg.cartan.transpose(), form_scales=scales)


def fundamental_rep(alg: ChevalleyAlgebra):
    """For type A_n: the (n+1)-dimensional matrix image of every basis
    vector (elementary matrices for the generators, extraspecial brackets
    above), used for pretty-printing; None for other types."""
    cached = getattr(alg, "_fund_rep", False)
    if cached is not False:
        return cached
    n = alg.rank
    from .cartan import CartanDatum

    if alg.cartan.matrix != CartanDatum.from_label(f"A{n}").matrix:
        alg._fund_rep = None
        return None
    size = n + 1

    def emat(i, j):
        m = [[Fraction(0)] * size for _ in range(size)]
        m[i][j] = Fraction(1)
        return m

    def lie(a, b):
        out = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                acc = Fraction(0)
                for k in range(size):
                    acc += a[i][k] * b[k][j] - b[i][k] * a[k][j]
                out[i][j] = acc
        return out

    img = {}
    for i in range(n):
        r = alg.simple_root(i)
        img[alg.index_E[r]] = emat(i, i + 1)
        img[alg.index_F[r]] = emat(i + 1, i)
        h = [[Fraction(0)] * size for _ in range(size)]
        h[i][i], h[i + 1][i + 1] = Fraction(1), Fraction(-1)
        img[alg.index_H[i]] = h
    for r in alg.pos_roots:
        if sum(r) == 1:
            continue
        a, b = alg._espair[r]
        N = alg._N[(a, b)]
        m = lie(img[alg.index_E[a]], img[alg.index_E[b]])
        img[alg.index_E[r]] = [[x / N for x in row] for row in m]
        m = lie(img[alg.index_F[a]], img[alg.index_F[b]])
        img[alg.index_F[r]] = [[-x / N for x in row] for row in m]
    alg._fund_rep = img
    return img


def fundamental_matrix(alg: ChevalleyAlgebra, vec):
    """Image of a coefficient vector in the type-A fundamental
    representation (entries in whatever field the coefficients live in)."""
    rep = fundamental_rep(alg)
    if rep is None:
        return None
    size = alg.rank + 1
    rows = [[None] * size for _ in range(size)]
    for idx, c in enumerate(vec):
        if not c:
            continue
        for i in range(size):
            for j in range(size):
                m = rep[idx][i][j]
                if m:
                    t = c * m
                    rows[i][j] = t if rows[i][j] is None else rows[i][j] + t
    zero = None
    for idx, c in enumerate(vec):
        if c is not None:
            zero = c - c
            break
    return [[x if x is not None else zero for x in row] for row in rows]
