"""Exception hierarchy shared across the package, and the rule by which
messages quote values that came from outside."""

from math import log10

# integers written out in full in messages: every 64-bit value
_WRITTEN_OUT = 10 ** 20


def quoted(value) -> str:
    """A value from a document, a certificate or the command line as a
    message quotes it, so that no such value makes a message long.

    An integer is written out up to 20 digits, else as "a number of D
    digits" ("a negative number of D digits"). A list holding no list
    (keys, vertex ids) names its items, each quoted, while they fill at
    most 60 characters, and then how many it holds: "[0, 1, … (5000
    items)]". Any other value is quoted by repr() up to 40 characters,
    else by its type and size: "a string of 100000 characters", "a list
    of 2 items". So quoting never goes deeper than the items of one list,
    however deeply a document nests."""
    if isinstance(value, int):
        if -_WRITTEN_OUT < value < _WRITTEN_OUT:
            return str(value)
        # str() refuses integers of more than 4300 digits; log10 can be one
        # off next to a power of ten, which the two comparisons mend
        size = abs(value)
        digits = int(log10(size)) + 1
        digits += (size >= 10 ** digits) - (size < 10 ** (digits - 1))
        return f"a {'negative ' if value < 0 else ''}number of {digits} digits"
    if isinstance(value, list) and not any(isinstance(x, list) for x in value):
        shown, width = [], 0
        for item in value:
            text = quoted(item)
            width += len(text) + 2
            if width > 60:
                return f"[{', '.join(shown)}, … ({len(value)} items)]"
            shown.append(text)
        return f"[{', '.join(shown)}]"
    sized = isinstance(value, (str, list, tuple, dict))
    if not sized or len(value) <= 40:
        text = repr(value)
        if len(text) <= 40:
            return text
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    if not sized:
        return f"a {type(value).__name__}"
    return f"a {type(value).__name__} of {len(value)} item{'' if len(value) == 1 else 's'}"


class ShellcertError(Exception):
    """Base class for all package-specific errors."""


class StructureError(ShellcertError):
    """A Drawing was assembled from inconsistent combinatorial data."""


class DocumentError(ShellcertError):
    """An interchange document is malformed or geometrically degenerate."""


class EmbeddingError(ShellcertError):
    """The rotation system does not describe a sphere embedding."""


class CertificateMismatchError(ShellcertError):
    """A certificate references vertices or faces that do not exist in
    the drawing it is checked against."""


class GenerationError(ShellcertError):
    """A generator could not realize the requested drawing (bad scale,
    degenerate sampling, or a construction that failed its own checks)."""


class CapabilityError(ShellcertError):
    """The operation needs data the input does not carry, e.g. rendering
    or point location on a drawing without geometry."""
