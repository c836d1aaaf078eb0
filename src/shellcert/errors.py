"""Exception hierarchy shared across the package, and the rule by which
messages quote integers that came from outside."""

from math import log10

# integers written out in full in messages: every 64-bit value
_WRITTEN_OUT = 10 ** 20


def quoted(value) -> str:
    """An integer as a message quotes it: written out up to 20 digits,
    else as "a number of D digits" ("a negative number of D digits"), so
    that a huge integer from a document or the command line keeps its
    message short. Other values are quoted by repr()."""
    if not isinstance(value, int):
        return repr(value)
    if -_WRITTEN_OUT < value < _WRITTEN_OUT:
        return str(value)
    # str() refuses integers of more than 4300 digits; log10 can be one
    # off next to a power of ten, which the two comparisons mend
    size = abs(value)
    digits = int(log10(size)) + 1
    digits += (size >= 10 ** digits) - (size < 10 ** (digits - 1))
    return f"a {'negative ' if value < 0 else ''}number of {digits} digits"


class ShellcertError(Exception):
    """Base class for all package-specific errors."""


class StructureError(ShellcertError):
    """A Drawing was assembled from inconsistent combinatorial data."""


class DocumentError(ShellcertError):
    """An interchange document is malformed or geometrically degenerate."""


class EmbeddingError(ShellcertError):
    """The rotation system does not describe a sphere embedding, or a
    side classification became inconsistent (corrupted input)."""


class CertificateMismatchError(ShellcertError):
    """A certificate references vertices or faces that do not exist in
    the drawing it is checked against."""


class GenerationError(ShellcertError):
    """A generator could not realize the requested drawing (bad scale,
    degenerate sampling, or a construction that failed its own checks)."""


class CapabilityError(ShellcertError):
    """The operation needs data the input does not carry, e.g. rendering
    or point location on a drawing without geometry."""
