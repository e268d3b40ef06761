"""Exception types shared across the toolkit."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(AlgebraError):
    """A file, table or literal could not be parsed."""


class IndexOutOfRangeError(AlgebraError):
    """A Cayley table entry lies outside 0..n-1."""


class NotAssociativeError(AlgebraError):
    """A Cayley table fails associativity; carries one witness triple."""

    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(f"({i}*{j})*{k} != {i}*({j}*{k})")


class DegreeMismatchError(AlgebraError):
    """A permutation's degree does not match the structure it acts on."""


class NotAGroupError(AlgebraError):
    """An operation that needs a group table was handed a plain semigroup."""


class NoEdgesError(AlgebraError):
    """The graph-to-semigroup construction needs at least one edge."""


class ContextMismatchError(AlgebraError):
    """Two trace words live over different commutation contexts."""


class NotGraphAutomorphismError(AlgebraError):
    """The supplied permutation does not preserve the commutation graph."""


class NotAnInvolutionError(AlgebraError):
    """The supplied permutation is not an involution of the semigroup."""


class BudgetExceededError(AlgebraError):
    """Base class for the configurable resource caps."""

    def __init__(self, limit, what: str, message: str | None = None):
        self.limit = limit
        super().__init__(message or f"{what} exceeded the configured cap of {limit}")


class SearchBudgetExceededError(BudgetExceededError):
    """Past a node budget; ``layer`` names the search that ran out."""

    def __init__(self, limit, *, layer: str = "morphism"):
        super().__init__(limit, layer, f"{layer} search exceeded the node budget of {limit}")


class OrderBudgetExceededError(BudgetExceededError):
    """Past a size cap; ``layer`` names what was refused, with its ``order``."""

    def __init__(self, limit, *, layer: str | None = None, order: int | None = None):
        self.order = order
        message = None if layer is None else f"{layer} has order {order}, past the cap of {limit}"
        super().__init__(limit, "group or table size", message)


class LengthBudgetExceededError(BudgetExceededError):
    def __init__(self, limit):
        super().__init__(limit, "trace word length")
