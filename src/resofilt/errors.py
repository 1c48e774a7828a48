"""Exception types shared across the toolkit, plus CLI exit codes."""

# CLI exit codes
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class ResofiltError(Exception):
    """Base class for all toolkit errors.

    Each class carries the CLI's ``exit_code`` for it and the ``label``
    that precedes its message on stderr (empty, or ending in ": ").
    """

    exit_code = EXIT_NUMERIC
    label = ""


class ConfigError(ResofiltError):
    """Invalid configuration value; the message names the offending field."""

    exit_code = EXIT_USAGE
    label = "configuration error: "


class ImageFormatError(ResofiltError):
    """Unreadable or unsupported image data."""

    exit_code = EXIT_INPUT
    label = "input error: "

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(ResofiltError):
    """Singular system, rank deficiency, or another numeric failure."""

    label = "numeric failure: "


class ModelError(NumericError):
    """Ill-posed resonance model (coincident roots, empty spectrum, ...)."""
