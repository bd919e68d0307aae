"""Exception hierarchy shared by all sparsifier modules."""


class SparsifyError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(SparsifyError):
    """Matrix has non-finite entries or is otherwise unusable."""


class NotPsd(SparsifyError):
    """Matrix failed a positive-semidefiniteness requirement."""


class DimMismatch(SparsifyError):
    """Operands have incompatible dimensions."""


class EmptyProblem(SparsifyError):
    """The summed input matrix is zero; there is nothing to sparsify."""


class ExpOverflow(SparsifyError):
    """A matrix exponential would overflow double precision."""


class NegativeWeight(SparsifyError):
    """A weight vector has a negative or non-finite entry."""


class BarrierViolated(SparsifyError):
    """An eigenvalue crossed a barrier the potential assumes it cannot."""


class PotentialTooLarge(SparsifyError):
    """Lower potential exceeds the bound required for a safe step."""


class StepNotFound(SparsifyError):
    """No admissible (index, step size) pair exists; carries diagnostics."""

    def __init__(self, message, sum_upper=None, sum_lower=None):
        super().__init__(message)
        self.sum_upper = sum_upper
        self.sum_lower = sum_lower


class OracleInfeasible(SparsifyError):
    """The update oracle found no feasible index (parameter corruption)."""


class EquivalenceBroken(SparsifyError):
    """The two potential formulations disagreed beyond tolerance."""


class RankTooSmall(SparsifyError):
    """The whitened rank is below what the algorithm needs."""


class SamplesMissed(SparsifyError):
    """Every draw of a randomized solver missed its window."""


class TimeBudgetExceeded(SparsifyError):
    """The configured wall-clock guard expired mid-run."""


class DegenerateCertificate(SparsifyError):
    """A solver's certificate has a non-finite or non-positive lambda_min."""


class ParseError(SparsifyError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidCost(SparsifyError):
    """A cost vector has a negative entry or wrong length."""


class InvalidColoring(SparsifyError):
    """An edge coloring does not partition the edge set."""


class InvalidFamily(SparsifyError):
    """A subgraph family member is empty or not a subgraph of the host graph."""


class InvalidSimplexPoint(SparsifyError):
    """Weights are not a probability vector."""


class InfeasibleInput(SparsifyError):
    """An SDP instance violates its feasibility invariant."""
