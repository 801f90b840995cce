"""Exception hierarchy. Every error family gets its own class so the CLI can
map them to distinct exit codes."""


class CycloperError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(CycloperError):
    exit_code = 2


class ValidationError(CycloperError):
    exit_code = 3


class OrbitCollision(ValidationError):
    pass


class IrreducibleDenominator(CycloperError):
    """A denominator factor has no root in the working field."""

    exit_code = 4

    def __init__(self, factor, message=None):
        self.factor = factor
        super().__init__(message or f"irreducible denominator factor: {factor}")


class NotFiniteType(CycloperError):
    exit_code = 5


class OrderMismatch(CycloperError):
    exit_code = 5


class GroupTooLarge(CycloperError):
    exit_code = 5


class NonIntegralCoweight(CycloperError):
    exit_code = 5


class NonIntegralAfterCover(CycloperError):
    exit_code = 5


class MalformedOper(CycloperError):
    exit_code = 6


class NotRegularSingular(CycloperError):
    exit_code = 6


class NotOfForm(CycloperError):
    """A Miura connection does not have the declared residue structure."""

    exit_code = 6

    def __init__(self, message, residue=None, where=None):
        self.residue = residue
        self.where = where
        super().__init__(message)


class NotInOpenCell(CycloperError):
    """The element is not in the big cell N B_-, or its factor failed the
    certificate."""

    exit_code = 7


class RiccatiViolated(CycloperError):
    exit_code = 8


class SeedNotSolution(RiccatiViolated):
    pass


class CyclotomyObstruction(CycloperError):
    """The requested reproduction exists but is not Gamma-equivariant."""

    exit_code = 9

    def __init__(self, message, condition=None):
        self.condition = condition
        super().__init__(message)


class NoRationalSolution(CycloperError):
    exit_code = 10

    def __init__(self, message, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class FixedPointViolation(CycloperError):
    exit_code = 11


class NoDominantRepresentative(CycloperError):
    exit_code = 12


class LimitUndefined(CycloperError):
    """Bug trap: a flag-variety limit failed to stabilise."""

    exit_code = 13


class ModulusError(CycloperError):
    """Bug trap in Q(zeta_T): Phi_d did not divide x^n - 1 exactly, or a
    nonzero element had a non-unit gcd with the modulus."""


class PartialFractionError(CycloperError):
    """Bug trap in Hermite reduction: factors that must be coprime had a
    non-unit extended gcd.  Exit code 15."""

    exit_code = 15


class MonodromyObstruction(CycloperError):
    """Nonzero residues met while integrating; a value as much as an error.

    Attributes:
        residues: list of (pole, residue) pairs, every residue nonzero.
        unresolved: list of denominator factors whose roots lie outside the
            working field but which carry nonzero logarithmic parts.
        level: in solve_fundamental, 0 for the torus part and k for the
            height -k piece of Z in Y = D e^Z (None for scalars).
    """

    exit_code = 14

    def __init__(self, residues, unresolved=(), level=None):
        self.residues = list(residues)
        self.unresolved = list(unresolved)
        self.level = level
        parts = ", ".join(f"res_{{{p}}} = {r}" for p, r in self.residues)
        extra = f"; unresolved factors: {list(unresolved)}" if unresolved else ""
        super().__init__(f"nonzero residues obstruct integration: {parts}{extra}")
