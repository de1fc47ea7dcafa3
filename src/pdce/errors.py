"""Exception types shared across the package."""

__all__ = [
    "BoundExceeded", "CollinearTriple", "CoordinateRange", "DuplicateX", "DuplicateY",
    "FourDirectional", "GenerationFailed", "InternalCaseError", "InvalidEmbedding",
    "NotConvexPosition", "NotFoundWithinBudget", "PdceError", "PreconditionViolated",
    "SizeMismatch",
]


class PdceError(Exception):
    """Base class for all library-specific errors."""


class PreconditionViolated(PdceError, ValueError):
    """An operation was called on input outside its documented domain."""


class CoordinateRange(PdceError, ValueError):
    """A coordinate exceeds the permitted magnitude."""


class DuplicateX(PdceError, ValueError):
    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} share an x-coordinate")
        self.indices = (i, j)


class DuplicateY(PdceError, ValueError):
    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} share a y-coordinate")
        self.indices = (i, j)


class CollinearTriple(PdceError, ValueError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"points {i}, {j} and {k} are collinear")
        self.indices = (i, j, k)


class NotConvexPosition(PdceError, ValueError):
    def __init__(self, index: int):
        super().__init__(f"point {index} is not a vertex of the convex hull")
        self.index = index


class GenerationFailed(PdceError, RuntimeError):
    def __init__(self, attempts: int, detail: str = ""):
        msg = f"could not generate a valid instance within {attempts} attempts"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.attempts = attempts


class SizeMismatch(PdceError, ValueError):
    """Path vertex count and point count differ."""


class FourDirectional(PdceError, ValueError):
    """The path uses all four edge labels where at most three are supported."""


class InternalCaseError(PdceError, AssertionError):
    """A constructive embedding step produced an inconsistent result.

    This always indicates a bug in the construction, never bad user input.
    """


class BoundExceeded(PdceError, ValueError):
    def __init__(self, n: int, bound: int):
        super().__init__(f"exhaustive enumeration refused for n={n} (bound {bound})")
        self.n = n
        self.bound = bound


class NotFoundWithinBudget(PdceError, RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"no counterexample found within {budget} sampled candidates")
        self.budget = budget


class InvalidEmbedding(PdceError, ValueError):
    """An embedding is malformed or fails validation where validity is required."""
