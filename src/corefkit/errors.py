"""The errors of malformed or mismatched input, which the CLI maps to its
exit codes 2 and 3 without loading the modules that raise them."""


class ConlluError(ValueError):
    """Malformed CoNLL-U input, reported with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class PlaintextError(ValueError):
    """Malformed plaintext input, reported with a 0-based token index."""

    def __init__(self, message: str, token_index: int | None = None):
        self.token_index = token_index
        if token_index is not None:
            message = f"token {token_index}: {message}"
        super().__init__(message)


class JsonFormatError(ValueError):
    """Malformed JSON interchange input."""


class CleanRefusedError(ValueError):
    """The noisy output is too far from the reference to repair safely."""


class TokenMismatchError(ValueError):
    """Gold and predicted files disagree on the surface token sequence."""
