"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from SeqtagError so the CLI can map
failures to exit codes without matching on builtin exception types.
"""


class SeqtagError(Exception):
    pass


class ShapeError(SeqtagError, ValueError):
    """Operands have incompatible shapes."""


class ConfigError(SeqtagError, ValueError):
    """Invalid configuration value."""


class UsageError(SeqtagError, ValueError):
    """API called with arguments that violate its contract."""


class ParseError(SeqtagError, ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(SeqtagError, ValueError):
    """Tag sequence violates the BIO2 scheme."""


class AlignmentError(SeqtagError, ValueError):
    """Subword pieces do not partition the word sequence."""


class ArtifactError(SeqtagError, ValueError):
    """Model artifact is missing, corrupt, or of an unsupported version."""


class DivergenceError(SeqtagError, ArithmeticError):
    """Training produced a non-finite loss."""
