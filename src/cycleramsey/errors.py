"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """An exact search ran out of its node-expansion budget.

    Distinct from "absent": the question was not decided.
    """

    def __init__(self, message: str = "work budget exceeded", nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


class PreconditionViolated(ValueError):
    """An operation was called on inputs outside its stated precondition.

    May carry a witness object (e.g. the matching that is too large).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NoQualifyingComponent(PreconditionViolated):
    """No component satisfies the requested restriction."""


class UndefinedTarget(ValueError):
    """A parity-floored target length does not exist (e.g. odd floor of 2)."""


class HypothesisViolation(ValueError):
    """Harness parameters do not satisfy the property's stated hypotheses."""
