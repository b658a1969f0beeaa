"""Exception types shared across the package."""


class KottlerError(Exception):
    """Base class for all package-specific errors."""


class InvalidBaseError(KottlerError):
    """An incompatible base; `argument` names the make_base argument it rejects."""

    def __init__(self, message, argument):
        super().__init__(message)
        self.argument = argument


class HorizonError(KottlerError):
    """No nondegenerate horizon exists for the requested parameters."""


class ExteriorError(KottlerError):
    """A surface touches or dips below the horizon radius."""


class FlowSingularError(KottlerError):
    """Mean curvature dropped below the floor; the smooth flow cannot continue."""


class ConfigError(KottlerError):
    """Malformed or inconsistent scenario configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NoiseFloorError(KottlerError):
    """Signal is below the noise floor; a rate fit would be meaningless."""
