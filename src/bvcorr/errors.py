"""The failure types the command line maps to exit codes, kept apart from
the layers that raise them so that `cli` can catch them without loading those."""


class RetractError(RuntimeError):
    """A retract identity failed verification."""


class MasterEquationError(RuntimeError):
    """A defining identity of a master equation failed after solving."""
