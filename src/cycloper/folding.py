"""Folding along a diagram automorphism: the fixed subalgebra's
Chevalley-Serre data and the corresponding simple reflections in W."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import CartanDatum
from .automorphisms import DiagramAut
from .errors import ValidationError
from .weyl import WeylGroup


@dataclass
class FoldedDatum:
    alg: object
    nu: DiagramAut
    orbits: tuple            # tuple of orbits (tuples of 0-based indices)
    ell: tuple               # 1 or 2 per orbit
    cartan: CartanDatum      # folded Cartan matrix A^nu
    coroots: list            # folded coroot vectors (algebra vectors)
    E: list                  # folded raising generators (algebra vectors)
    F: list                  # folded lowering generators (algebra vectors)
    simple_reflections: list  # elements of W (of g), per orbit

    def orbit_index(self, i):
        """Orbit containing the (0-based) node i."""
        for k, orb in enumerate(self.orbits):
            if i in orb:
                return k
        raise ValidationError(f"node {i} not in any orbit")


def fold(alg, nu: DiagramAut, weyl: WeylGroup = None) -> FoldedDatum:
    nu.validate(alg.cartan)
    A = alg.cartan.matrix
    orbits = nu.orbits()
    ell = []
    for orb in orbits:
        j = orb[0]
        s = sum(A[i][j] for i in orb)
        l = 3 - s
        if l not in (1, 2):
            raise ValidationError(f"orbit {orb} has ell = {l}, not 1 or 2")
        if l * s != 2:
            raise ValidationError("ell_I sum a_ij = 2 violated")
        ell.append(l)
    m = len(orbits)
    Anu = [[0] * m for _ in range(m)]
    for I, orbI in enumerate(orbits):
        for J, orbJ in enumerate(orbits):
            j = orbJ[0]
            Anu[I][J] = ell[I] * sum(A[i][j] for i in orbI)
    folded_cartan = CartanDatum.from_rows(Anu)

    coroots, Es, Fs = [], [], []
    for I, orb in enumerate(orbits):
        cr = alg.vec_zero()
        Ev = alg.vec_zero()
        Fv = alg.vec_zero()
        for i in orb:
            r = alg.simple_root(i)
            cr[alg.index_H[i]] += Fraction(ell[I])
            Ev[alg.index_E[r]] += Fraction(ell[I])
            Fv[alg.index_F[r]] += Fraction(1)
        coroots.append(cr)
        Es.append(Ev)
        Fs.append(Fv)

    weyl = weyl or WeylGroup(alg.cartan)
    refl = []
    for I, orb in enumerate(orbits):
        if ell[I] == 1:
            word = list(orb)
        else:
            half = len(orb) // 2
            word = []
            # I/2 = {k, nu(k), ...}; ibar = nu^{half}(i)
            k = orb[0]
            seq = [k]
            for _ in range(half - 1):
                seq.append(nu.perm[seq[-1]])
            for i in seq:
                ib = i
                for _ in range(half):
                    ib = nu.perm[ib]
                word += [i, ib, i]
        refl.append(weyl.from_word(word))

    return FoldedDatum(
        alg=alg,
        nu=nu,
        orbits=orbits,
        ell=tuple(ell),
        cartan=folded_cartan,
        coroots=coroots,
        E=Es,
        F=Fs,
        simple_reflections=refl,
    )
