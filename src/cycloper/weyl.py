"""Weyl groups, coweights, the shifted action and linkage classes.

Coweights are stored in the pairing coordinates c_i = <alpha_i, lam>; the
reflection s_j then acts by c_i -> c_i - c_j a_ji.  Weyl elements carry a
shortest word and their exact matrix on these coordinates; groups are
enumerated by breadth-first closure with matrix deduplication.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import GroupTooLarge
from .linalg import QQ, mat_mul
from .ratfunc import as_rational


class Coweight:
    """Pairing coordinates <alpha_i, lam> (exact scalars)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, rank):
        return cls((Fraction(0),) * rank)

    @property
    def rank(self):
        return len(self.coords)

    def __add__(self, other):
        return Coweight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        return Coweight(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return Coweight(-a for a in self.coords)

    def scale(self, c):
        return Coweight(a * c for a in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Coweight):
            return NotImplemented
        return len(self.coords) == len(other.coords) and all(
            a == b for a, b in zip(self.coords, other.coords)
        )

    def __hash__(self):
        return hash(self.coords)

    def is_integral(self):
        return all(as_rational(c) is not None and as_rational(c).denominator == 1 for c in self.coords)

    def is_rational(self):
        return all(as_rational(c) is not None for c in self.coords)

    def denominator(self):
        """lcm of the coordinate denominators: the least q with q lam
        integral.  None if a coordinate is not rational."""
        rc = [as_rational(c) for c in self.coords]
        if any(r is None for r in rc):
            return None
        return math.lcm(*(r.denominator for r in rc))

    def is_dominant(self):
        rc = [as_rational(c) for c in self.coords]
        return all(r is not None and r >= 0 for r in rc)

    def is_nu_invariant(self, nu):
        return all(self.coords[nu.perm[i]] == self.coords[i] for i in range(len(self.coords)))

    def __repr__(self):
        return f"Coweight({', '.join(str(c) for c in self.coords)})"


def coroot_coweight(alg, i):
    """coroot alpha_i as a Coweight: <alpha_j, coroot_i> = a_ij."""
    A = alg.cartan.matrix
    return Coweight(tuple(Fraction(A[i][j]) for j in range(alg.rank)))


def coweight_to_h(alg, lam: Coweight, K=QQ):
    """The h-element with given pairing coordinates, as an algebra vector.
    Solves A^T m = c for the coroot coordinates m."""
    vec = alg.vec_zero(K)
    for i, m in enumerate(alg.solve_cartan_transpose(lam.coords, K)):
        vec[alg.index_H[i]] = m
    return vec


def coroot_to_coweight(alg, m):
    """Pairing coordinates c_i = sum_j m_j a_ji of the h-element with coroot
    coordinates m (the inverse of coweight_to_h), in the field of m."""
    A = alg.cartan.matrix
    zero = m[0] * 0
    coords = []
    for i in range(alg.rank):
        acc = zero
        for j, x in enumerate(m):
            if x and A[j][i]:
                acc = acc + x * A[j][i]
        coords.append(acc)
    return Coweight(coords)


def h_to_coweight(alg, vec):
    """Pairing coordinates of the h-part of an algebra vector."""
    return coroot_to_coweight(alg, [vec[alg.index_H[j]] for j in range(alg.rank)])


def rho_coweight(rank):
    return Coweight((Fraction(1),) * rank)


class WeylElement:
    __slots__ = ("group", "word", "matrix", "_inverse")

    def __init__(self, group, word, matrix):
        self.group = group
        self.word = tuple(word)  # 0-based generator indices
        self.matrix = matrix  # tuple of tuples (Fraction), acts on coords
        self._inverse = None  # found on the first call of inverse()

    def __matmul__(self, other):
        if isinstance(other, WeylElement):
            return self.group.mult(self, other)
        return NotImplemented

    def apply(self, lam: Coweight) -> Coweight:
        out = []
        for row in self.matrix:
            acc = None
            for a, c in zip(row, lam.coords):
                if a:
                    t = c * a
                    acc = t if acc is None else acc + t
            out.append(acc if acc is not None else Fraction(0) * lam.coords[0])
        return Coweight(out)

    def dot(self, lam: Coweight) -> Coweight:
        """Shifted action w . lam = w(lam + rho) - rho."""
        rho = rho_coweight(len(lam.coords))
        return self.apply(lam + rho) - rho

    def inverse(self):
        if self._inverse is None:
            self._inverse = self.group.from_word(reversed(self.word))
        return self._inverse

    @property
    def length(self):
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        if not self.word:
            return "W<e>"
        return "W<" + ".".join(f"s{i+1}" for i in self.word) + ">"


def _key(m):
    """A matrix as the tuple of its row tuples (the by_matrix key)."""
    return tuple(map(tuple, m))


class WeylGroup:
    """Enumerated Weyl group from a Cartan matrix."""

    MAX_ELEMENTS = 10 ** 6

    def __init__(self, cartan):
        self.cartan = cartan
        n = cartan.rank
        A = cartan.matrix
        self.rank = n
        ident = tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n))
        gens = []
        for j in range(n):
            m = [[Fraction(1) if i == k else Fraction(0) for k in range(n)] for i in range(n)]
            for i in range(n):
                m[i][j] -= Fraction(A[j][i])  # c_i -> c_i - c_j a_ji
            gens.append(_key(m))
        self.identity = WeylElement(self, (), ident)
        self.generators = [WeylElement(self, (j,), gens[j]) for j in range(n)]
        self.by_matrix = {ident: self.identity}
        frontier = [self.identity]
        elements = [self.identity]
        while frontier:
            new = []
            for w in frontier:
                for j in range(n):
                    m = _key(mat_mul(QQ, gens[j], w.matrix))
                    if m not in self.by_matrix:
                        el = WeylElement(self, (j,) + w.word, m)
                        self.by_matrix[m] = el
                        new.append(el)
                        elements.append(el)
                        if len(elements) > self.MAX_ELEMENTS:
                            raise GroupTooLarge(f"Weyl group exceeds {self.MAX_ELEMENTS}")
            frontier = new
        self.elements = sorted(elements, key=lambda w: (w.length, w.word))
        self.longest = max(elements, key=lambda w: w.length)
        self._nu_invariant = {}  # W^nu per nu, found on first use

    def mult(self, w1, w2):
        return self.by_matrix[_key(mat_mul(QQ, w1.matrix, w2.matrix))]

    def simple(self, j):
        """0-based simple reflection."""
        return self.generators[j]

    def from_word(self, word):
        w = self.identity
        for j in word:
            w = self.mult(w, self.generators[j])
        return w

    def order(self):
        return len(self.elements)

    def nu_action(self, nu, w: WeylElement) -> WeylElement:
        """nu(w) = P_nu w P_nu^-1 on coordinates, which permute by
        (nu lam)_i = lam_{nu^-1(i)}: the entries of w re-indexed."""
        inv = nu.inv_perm
        return self.by_matrix[tuple(tuple(w.matrix[inv[i]][inv[j]] for j in range(self.rank))
                                    for i in range(self.rank))]

    def nu_invariant_elements(self, nu):
        """W^nu in the order of self.elements: found once per nu, a fresh
        list on each call."""
        if nu not in self._nu_invariant:
            self._nu_invariant[nu] = tuple(w for w in self.elements if self.nu_action(nu, w) == w)
        return list(self._nu_invariant[nu])

    def __repr__(self):
        return f"WeylGroup(rank={self.rank}, order={len(self.elements)})"


def weyl_orbit_shifted(group: WeylGroup, lam: Coweight, nu=None):
    """Orbit of lam under the shifted action of W (or W^nu): list of
    (w, w . lam) with distinct values, w a shortest representative."""
    els = group.nu_invariant_elements(nu) if nu is not None else group.elements
    seen = {}
    out = []
    for w in els:
        v = w.dot(lam)
        if v.coords not in seen:
            seen[v.coords] = w
            out.append((w, v))
    return out


def linkage_equal(group: WeylGroup, lam: Coweight, mu: Coweight, nu=None) -> bool:
    """True iff mu = w . lam for some w in W (resp. W^nu)."""
    return find_shift_element(group, lam, mu, nu) is not None


def find_shift_element(group: WeylGroup, lam: Coweight, target: Coweight, nu=None):
    """A w with w . lam = target, or None."""
    els = group.nu_invariant_elements(nu) if nu is not None else group.elements
    for w in els:
        if w.dot(lam) == target:
            return w
    return None


def dominant_shift_representative(group: WeylGroup, mu: Coweight, nu=None):
    """(lam, w) with w . lam = mu and lam + rho dominant, or None."""
    els = group.nu_invariant_elements(nu) if nu is not None else group.elements
    rho = rho_coweight(len(mu.coords))
    for w in els:
        lam = w.inverse().dot(mu)
        if (lam + rho).is_dominant():
            return lam, w
    return None
