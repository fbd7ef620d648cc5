"""Exception types shared across the package."""


class CubeporosError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(CubeporosError):
    pass


class RootHasNoParent(CubeporosError):
    pass


class EmptySetError(CubeporosError):
    """An operation that needs a nonempty set model got an empty one."""


class EmptyFamilyError(CubeporosError):
    pass


class RootIsFree(CubeporosError):
    """The requested root cube does not meet the set."""

    def __init__(self, cube):
        super().__init__(f"{cube} does not meet the set")
        self.cube = cube


class AlphaOutOfRange(CubeporosError):
    pass


class NotParentClosed(CubeporosError):
    def __init__(self, cube):
        super().__init__(f"family is not parent-closed at {cube}")
        self.cube = cube


class PorosityFailure(CubeporosError):
    """No free descendant was found within the search budget below `cube`.

    Distinguishes budget exhaustion from an actual disproof of porosity:
    the named cube is where the bounded search came up empty.
    """

    def __init__(self, cube):
        super().__init__(f"no free cube within search budget below {cube}")
        self.cube = cube


class UnresolvedMeasure(CubeporosError):
    """A weighted mass needed by the caller has no finite certified upper bound."""


class DenominatorTooLarge(CubeporosError):
    """A point set's common denominator is longer than `sets.MAX_POINT_BITS` bits."""


class FamilyTooLarge(CubeporosError):
    """A family enumeration or a free-cube search passed `families.MAX_MEMBERS` cubes."""
