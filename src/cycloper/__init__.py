"""cycloper: exact computations with cyclotomic opers.

Lie-algebra and Weyl-group infrastructure over exact cyclotomic scalars,
rational g-valued connections on the projective line equivariant under a
cyclic group, canonical (transverse-slice) forms, Miura reproductions, the
flag-variety correspondence, and cyclotomic Gaudin/Bethe spectral formulas.
"""

from .cartan import CartanDatum
from .chevalley import (
    ChevalleyAlgebra,
    build_algebra,
    fundamental_matrix,
    fundamental_rep,
)
from .connection import (
    Connection,
    GroupElement,
    gauge_transform,
    is_equivariant,
    lift_to_cover,
    monodromy_at_origin,
    regularize,
)
from .context import OperContext
from .automorphisms import DiagramAut, AlgebraAut, theta_fixed_nilpotent
from .bethe import (
    BetheSystemData,
    bethe_residuals,
    bethe_regularity,
    dual_algebra,
    energies,
    energy_oper_identity,
    lambda0_weight,
    miura_from_bethe,
    weight_at_infinity,
)
from .canonical import (
    CanonicalOper,
    canonical_representative,
    classify_general_form,
    is_regular_at,
    oper_residue,
    regularity_condition,
    u1_coefficient,
)
from .finite_opers import FiniteOperClass, class_of_coweight, finite_canonical
from .flags import FlagCell, FlagPoint, fixed_flag_cells, flag_position
from .folding import FoldedDatum, fold
from .miura import (
    MiuraOper,
    ReproductionResult,
    build_miura,
    reproduce_generic,
    reproduce_orbit_A1,
    reproduce_orbit_A2,
    reproduce_simple,
    riccati_solve,
)
from .ratfunc import (
    INFINITY,
    RatFunc,
    FunctionField,
    PrincipalPartDecomp,
    partial_fractions,
    rational_antiderivative,
)
from .scalars import CycNum, CyclotomicField, scalar_reduce
from .solve import gauss_factorize, solve_fundamental
from .tower import ScalarTower
from .weyl import Coweight, WeylElement, WeylGroup, linkage_equal, weyl_orbit_shifted

__version__ = "0.1.0"
