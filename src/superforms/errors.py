"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Mismatched variable lists, charts, tables or bidegrees."""


class UnsupportedMorphismError(ValueError):
    """Morphism data outside the invertible-monomial / odd-linear class."""


class UnsupportedSpaceError(ValueError):
    """Sheaf or picture outside what the space supports."""


class NotATopFormError(ValueError):
    """Integrand is missing part of its dgamma or delta block."""


class FormParseError(ValueError):
    """Lexical or syntax error in the expression grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position
