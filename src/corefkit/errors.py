"""The errors of malformed or mismatched input, which the CLI maps to its
exit codes 2 and 3 without loading the modules that raise them, and the
order in which a streamed command reports them."""


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


def apply_each(work, items) -> None:
    """Call ``work`` on each of ``items``, as a command handles a streamed
    input one document at a time.  The first input error (a ValueError)
    ``work`` raises is held and no later item is worked on, but the items
    are read to their end: an error in reading them, such as a malformed
    later document, comes first.  The held error is raised once they end."""
    held = None
    for item in items:
        if held is None:
            try:
                work(item)
            except ValueError as exc:
                held = exc
        del item  # so the next item is read without this one alive
    if held is not None:
        raise held
