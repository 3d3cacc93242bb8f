"""Exception hierarchy.

Two families matter to callers:

* ``VerificationError`` and its subclasses signal a mathematical rejection:
  the input parsed fine but fails a defining identity or a structural
  precondition of the theory (exit code 1 in the CLI).
* Everything else under ``QuadmorphError`` is a usage or format problem
  (exit code 2 in the CLI).

Indices carried by errors are 1-based, matching the usual math notation for
tuples (P_1, ..., P_n).
"""


class QuadmorphError(Exception):
    """Base class for everything raised deliberately by this package."""


class ShapeMismatch(QuadmorphError):
    """Matrices in a candidate tuple disagree in shape, or are not square."""


class ArityMismatch(QuadmorphError):
    """Direct-sum operands have a different number of members."""


class DimensionMismatch(QuadmorphError):
    """A vector argument has the wrong length."""


class BadIndices(QuadmorphError):
    """Subsystem selection indices are empty, repeated, or out of range."""


class NotSquare(QuadmorphError):
    """Slices of an orthogonal multiplication are not square."""


class UnsupportedDimension(QuadmorphError):
    """Requested a standard multiplication outside {1, 2, 4, 8}."""


class DocumentFormatError(QuadmorphError):
    """A JSON document does not match the interchange schema."""


class NoConvergence(QuadmorphError):
    """The eigensolver failed to converge."""


class SampleDisagreement(QuadmorphError):
    """Matrix criteria and the independent sampled check disagree.

    This is an internal-consistency failure, not a property of the input.
    """


class VerificationError(QuadmorphError):
    """Base class for mathematical rejections."""


class NotSymmetric(VerificationError):
    def __init__(self, index, residual=None):
        self.index = index
        self.residual = residual
        msg = f"matrix {index} is not symmetric"
        if residual is not None:
            msg += f" (relative residual {residual:.3e})"
        super().__init__(msg)


class OddDimension(VerificationError):
    def __init__(self, size):
        self.size = size
        super().__init__(f"ambient dimension {size} is odd; these systems live in even dimension")


class _PairViolation(VerificationError):
    """Members i and j (equal for a diagonal term) fail a pairwise relation;
    subclasses name the members and the relation in ``template``."""

    def __init__(self, i, j, residual, note=""):
        self.i = i
        self.j = j
        self.residual = residual
        msg = self.template.format(i=i, j=j) + f" (residual {residual:.3e})"
        if note:
            msg += "; " + note
        super().__init__(msg)


class AnticommutationViolated(_PairViolation):
    template = "members {i} and {j} violate the anticommutation relation"


class NotOrthogonal(VerificationError):
    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__(f"member {index} is not orthogonal (residual {residual:.3e})")


class NotNormPreserving(_PairViolation):
    template = "slices {i} and {j} break norm preservation"


class NotHarmonic(VerificationError):
    def __init__(self, alpha, trace):
        self.alpha = alpha
        self.trace = trace
        super().__init__(f"component {alpha} has nonzero trace {trace}; the map is not harmonic")


class NotHorizontallyConformal(_PairViolation):
    template = "components {i} and {j} break horizontal conformality"
    alpha = property(lambda self: self.i)
    beta = property(lambda self: self.j)


class ZeroMap(VerificationError):
    """All component matrices vanish; the zero map has no dilation."""


class RankMismatch(VerificationError):
    """Component ranks or spectra disagree; the input was not a valid map."""


class UnbalancedEigenspaces(RankMismatch):
    """The positive and negative eigenspaces of the leading member differ in
    dimension."""


class OddRank(VerificationError):
    def __init__(self, rank):
        self.rank = rank
        super().__init__(f"component rank {rank} is odd; valid maps have even rank")


class QSingular(VerificationError):
    """Operation requires full-rank components; project the kernel away first."""


class SharedKernelViolated(VerificationError):
    """The kernel of the first component is not annihilated by all components."""


class NotUmbilical(VerificationError):
    """Operation requires all positive eigenvalues equal."""


class NotDomainMinimal(VerificationError):
    """Range extension requires a domain-minimal map (full rank, umbilical, unsplittable)."""


class AlreadyRangeMaximal(VerificationError):
    """The map already has the maximal number of components for its domain."""


class NotExtendable(VerificationError):
    """Alignment with the canonical maximal family failed; refusing to guess."""
