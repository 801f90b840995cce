"""Cartan matrices: validation, type labels, symmetrizers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotFiniteType


def _type_matrix(letter: str, n: int):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2
    def link(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if letter == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif letter == "B":
        # alpha_n short: a_{n,n-1} = -2
        if n < 2:
            raise NotFiniteType("B_n needs n >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)
    elif letter == "C":
        if n < 2:
            raise NotFiniteType("C_n needs n >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)
    elif letter == "D":
        if n < 3:
            raise NotFiniteType("D_n needs n >= 3")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif letter == "E":
        if n not in (6, 7, 8):
            raise NotFiniteType("E_n needs n in {6,7,8}")
        # Bourbaki numbering: node 2 attached to node 4
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            link(a - 1, b - 1)
        link(2 - 1, 4 - 1)
    elif letter == "F":
        if n != 4:
            raise NotFiniteType("F_n needs n = 4")
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif letter == "G":
        if n != 2:
            raise NotFiniteType("G_n needs n = 2")
        link(0, 1, -3, -1)
    else:
        raise NotFiniteType(f"unknown type letter {letter!r}")
    return A


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    A = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                A[off + i][off + j] = v
        off += len(b)
    return A


@dataclass(frozen=True)
class CartanDatum:
    """Validated finite-type Cartan matrix; a_ij = <alpha_j, coroot alpha_i>."""

    matrix: tuple  # tuple of tuples of int

    def __post_init__(self):
        A = self.matrix
        n = len(A)
        if n == 0 or any(len(r) != n for r in A):
            raise NotFiniteType("Cartan matrix must be square and nonempty")
        for i in range(n):
            if A[i][i] != 2:
                raise NotFiniteType("diagonal entries must be 2")
            for j in range(n):
                if i != j:
                    if A[i][j] > 0:
                        raise NotFiniteType("off-diagonal entries must be <= 0")
                    if (A[i][j] == 0) != (A[j][i] == 0):
                        raise NotFiniteType("a_ij = 0 iff a_ji = 0 violated")
        # diag(d) A is positive definite iff its leading principal minors,
        # those of A times positive d's, are positive (Sylvester), iff the
        # pivots of elimination without row exchange, ratios of consecutive
        # minors, are (Kac, Infinite-Dimensional Lie Algebras, ch. 4)
        M = [[Fraction(x) for x in row] for row in A]
        for c in range(n):
            if M[c][c] <= 0:
                raise NotFiniteType("symmetrized Cartan matrix is not positive definite")
            for r in range(c + 1, n):
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]

    @property
    def rank(self):
        return len(self.matrix)

    def a(self, i, j):
        """1-based entry a_ij."""
        return self.matrix[i - 1][j - 1]

    def components(self):
        """Connected components of the Dynkin diagram, 0-based index lists."""
        n = self.rank
        seen = [False] * n
        comps = []
        for s in range(n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if not seen[j] and j != i and self.matrix[i][j] != 0:
                        seen[j] = True
                        stack.append(j)
            comps.append(sorted(comp))
        return comps

    def _symmetrizer(self):
        """d_i with d_i a_ij = d_j a_ji, normalised so max d = 1 per component
        (long roots have squared length 2 with (a_i,a_j) = 2 d_i a_ij / 2)."""
        n = self.rank
        d = [None] * n
        for comp in self.components():
            d[comp[0]] = Fraction(1)
            changed = True
            while changed:
                changed = False
                for i in comp:
                    for j in comp:
                        if i != j and self.matrix[i][j] != 0:
                            if d[i] is not None and d[j] is None:
                                d[j] = d[i] * Fraction(self.matrix[i][j], self.matrix[j][i])
                                changed = True
            mx = max(d[i] for i in comp)
            for i in comp:
                d[i] = d[i] / mx
        return d

    @property
    def symmetrizer(self):
        return tuple(self._symmetrizer())

    def transpose(self):
        n = self.rank
        return CartanDatum(tuple(tuple(self.matrix[j][i] for j in range(n)) for i in range(n)))

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @classmethod
    def from_label(cls, label: str):
        """'A2', 'D4', or products like 'A1xA1'."""
        blocks = []
        for part in label.replace(" ", "").split("x"):
            if len(part) < 2 or not part[0].isalpha():
                raise NotFiniteType(f"bad type label {part!r}")
            letter, num = part[0].upper(), part[1:]
            if not num.isdigit():
                raise NotFiniteType(f"bad type label {part!r}")
            blocks.append(_type_matrix(letter, int(num)))
        return cls.from_rows(_block_diag(blocks))

