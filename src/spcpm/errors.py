"""Exception types raised across the package.

Every rejection the package makes is a :class:`SpcpmError`, which itself is
a ``ValueError``: malformed arrays (``linalg.checked_array``: ragged, not
numbers, empty, misshapen or non-finite), bad dimensions and tolerances,
malformed files and invalid block triples all raise it directly, with a
message that names what was wrong.  Four subclasses mark the outcomes a
caller acts on differently:

* :class:`NotSPError` -- the channel is not subspace preserving;
* :class:`NotTracePreservingError` -- the operation needs a trace-preserving
  channel;
* :class:`SourceTargetMismatchError` -- the dilation needs one
  decomposition on both sides;
* :class:`SingularMatrixError` -- a matrix that must be positive definite
  is not (the random sampler raises it, before drawing, for a shape whose
  normalizer is singular on every draw).
"""


class SpcpmError(ValueError):
    """Base class for all errors raised by this package."""


class NotSPError(SpcpmError):
    """The channel is not subspace preserving."""


class NotTracePreservingError(SpcpmError):
    """The channel is not trace preserving."""


class SourceTargetMismatchError(SpcpmError):
    """Source and target decompositions must coincide."""


class SingularMatrixError(SpcpmError):
    """A positive definite matrix was required."""
