"""Exception hierarchy.

Exceptions are grouped by the CLI exit-code taxonomy: configuration errors
(exit 2), model errors (exit 3) and verification failures (exit 4).
"""


class MdlabError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(MdlabError):
    """Invalid configuration, parameters or user input."""

    exit_code = 2


class ModelError(MdlabError):
    """A model cannot be built or does not support the requested operation."""

    exit_code = 3


class VerificationError(MdlabError):
    """A hard validity assertion failed during verification."""

    exit_code = 4


# -- model construction ------------------------------------------------------

class NonStochasticRow(ModelError):
    pass


class ReducibleChain(ModelError):
    pass


class PeriodicChain(ModelError):
    pass


class DegeneratePayoff(ModelError):
    pass


class UnknownBuiltin(ConfigError):
    pass


class ParamOutOfRange(ConfigError):
    pass


# -- tier / capability -------------------------------------------------------

class SampledTierUnsupported(ModelError):
    """Operation needs exact finite-state structure the model does not have."""


class NoDecayCertificate(ModelError):
    """No finite summable decay certificate could be established."""


# -- numerics ----------------------------------------------------------------

class DegenerateVariance(ModelError):
    pass


class BudgetExceeded(ConfigError):
    """A run would pass the memory budget or, by estimate, the time cap (`models._check_cost`)."""


class OutOfRange(ConfigError):
    pass


class BetaOutOfRange(ConfigError):
    pass


class NegativeX(ConfigError):
    pass


class GammaTooLarge(ConfigError):
    pass


class MissingNorms(ConfigError):
    pass


class TooFewSamples(ConfigError):
    pass


class ZeroDenominator(ConfigError):
    pass


class ExponentOutOfRange(ConfigError):
    pass


class DegenerateGap(ConfigError):
    pass
