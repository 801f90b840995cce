"""Small exact linear algebra over any of the tower fields.

Matrices are lists of row lists; the field facade K supplies zero/one.
Everything is fraction-free-agnostic: coefficients are exact field elements
with operator arithmetic, so plain Gaussian elimination is exact.
"""

from __future__ import annotations

from fractions import Fraction


class QQ:
    """Field facade for plain Fractions."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(x):
        return Fraction(x)


def mat_mul(K, A, B):
    n, m, p = len(A), len(B), len(B[0]) if B else 0
    out = [[K.zero] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for k in range(m):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(p):
                    b = Bk[j]
                    if b:
                        row[j] = row[j] + a * b
    return out


def mat_vec(K, M, v):
    """M v for a rational matrix M and a vector v over K."""
    out = []
    for row in M:
        acc = K.zero
        for a, x in zip(row, v):
            if a and x:
                acc = acc + K.coerce(a) * x
        out.append(acc)
    return out


def rref(K, rows, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    n = len(rows)
    m = ncols if ncols is not None else len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = K.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def solve_linear(K, A, b):
    """The solution x of A x = b for an n x m matrix A of rank m (n >= m),
    or None when A has smaller rank (some column has no pivot) or the system
    is inconsistent.  Forward elimination with rref's pivot rule (the first
    nonzero entry at or below the diagonal), the consistency test on the
    rows past m, then back substitution.  Pivot rows are not scaled: each
    elimination divides by the pivot once, and so does each unknown."""
    n = len(A)
    m = len(A[0]) if A else 0
    rows = [list(A[i]) + [b[i]] for i in range(n)]
    for c in range(m):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        piv = rows[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                f = f / piv[c]
                rows[i] = [a - f * p if p else a for a, p in zip(rows[i], piv)]
    if any(rows[i][m] for i in range(m, n)):
        return None
    x = [K.zero] * m
    for c in range(m - 1, -1, -1):
        row = rows[c]
        acc = row[m]
        for j in range(c + 1, m):
            if row[j] and x[j]:
                acc = acc - row[j] * x[j]
        x[c] = acc / row[c]
    return x


def kernel_basis(K, A, ncols=None):
    """Reduced-echelon basis of the right kernel of A."""
    m = ncols if ncols is not None else (len(A[0]) if A else 0)
    red, pivots = rref(K, A, ncols=m)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        v = [K.zero] * m
        v[f] = K.one
        for i, c in enumerate(pivots):
            if i < len(red):
                v[c] = -red[i][f]
        basis.append(v)
    return basis


def mat_inverse(K, A):
    n = len(A)
    aug = [list(A[i]) + [K.one if j == i else K.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(K, aug, ncols=n)
    if len(pivots) != n:
        return None
    return [row[n:] for row in red]


# -- sparse matrices (dict-of-rows), used for adjoint-representation work ----

class SparseMat:
    """Sparse square-ish matrix over a field facade: list of {col: value}."""

    __slots__ = ("K", "nrows", "ncols", "rows")

    def __init__(self, K, nrows, ncols, rows=None):
        self.K = K
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @classmethod
    def identity(cls, K, n):
        m = cls(K, n, n)
        for i in range(n):
            m.rows[i][i] = K.one
        return m

    def clone(self):
        return SparseMat(self.K, self.nrows, self.ncols, [dict(r) for r in self.rows])

    def __matmul__(self, other):
        if isinstance(other, SparseMat):
            out = SparseMat(self.K, self.nrows, other.ncols)
            for i, row in enumerate(self.rows):
                acc = out.rows[i]
                for k, a in row.items():
                    for j, b in other.rows[k].items():
                        c = acc.get(j)
                        val = a * b if c is None else c + a * b
                        if val:
                            acc[j] = val
                        elif c is not None:
                            del acc[j]
            return out
        return NotImplemented

    def apply(self, vec):
        out = [self.K.zero] * self.nrows
        for i, row in enumerate(self.rows):
            acc = self.K.zero
            for j, a in row.items():
                x = vec[j]
                if x:
                    acc = acc + a * x
            out[i] = acc
        return out

    def scale(self, c):
        out = SparseMat(self.K, self.nrows, self.ncols)
        if c:
            for i, row in enumerate(self.rows):
                prods = ((j, v * c) for j, v in row.items())
                out.rows[i] = {j: x for j, x in prods if x}
        return out

    def add(self, other):
        out = self.clone()
        for i, row in enumerate(other.rows):
            acc = out.rows[i]
            for j, v in row.items():
                c = acc.get(j)
                val = v if c is None else c + v
                if val:
                    acc[j] = val
                elif c is not None:
                    del acc[j]
        return out

    def map_entries(self, fn):
        out = SparseMat(self.K, self.nrows, self.ncols)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                w = fn(v)
                if w:
                    out.rows[i][j] = w
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        for r1, r2 in zip(self.rows, other.rows):
            keys = set(r1) | set(r2)
            for k in keys:
                if r1.get(k, self.K.zero) != r2.get(k, self.K.zero):
                    return False
        return True

    def __repr__(self):
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={sum(len(r) for r in self.rows)})"
