"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """An exact search ran out of its node-expansion budget.

    Distinct from "absent": the question was not decided.
    """

    def __init__(self, message: str = "work budget exceeded", nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


class TableCapExceeded(BudgetExceededError):
    """An exact method refused an input larger than its table cap.

    "Too large for this method", not "ran out of budget"; a subclass so that
    every handler of BudgetExceededError still treats it as undecided.
    """

    def __init__(self, size: int, cap: int, nodes: int = 0):
        super().__init__(
            f"component slice of {size} vertices exceeds the exact-search "
            f"table cap of {cap}",
            nodes=nodes,
        )
        self.size = size
        self.cap = cap


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
