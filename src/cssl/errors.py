"""The package's exception types: one per way a caller reacts.

Every input the package rejects raises :class:`CsslError` or one of its
three subclasses, with a message that names what failed. The message, not
the class, tells checks apart; the subclasses exist because callers handle
them differently: the CLI reports a :class:`ConfigError` as a config error
and exits 2 on a :class:`CorruptFile`, and a caller that tries another
learning rate catches :class:`DivergenceDetected`.
"""


class CsslError(ValueError):
    """An input the package rejects."""


class ConfigError(CsslError):
    """A configuration field failed validation; the message names the field."""


class CorruptFile(CsslError):
    """A dataset or checkpoint file failed its magic, version, length,
    checksum or parameter check; the message names the file and the check."""


class DivergenceDetected(CsslError):
    """Training loss, or a linear probe's fitted weights, became NaN or
    Inf."""
