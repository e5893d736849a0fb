"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one type at an API boundary::

    try:
        index.query(q, k=30)
    except repro.ReproError as exc:
        ...
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad edges, shapes, ids)."""


class GeometryError(ReproError):
    """Raised for invalid geometric inputs (degenerate polygons, bounds)."""


class QueryError(ReproError):
    """Raised for invalid DAIM queries (bad k, location outside support)."""


class IndexError_(ReproError):
    """Raised when an index is used before it is built, or is inconsistent.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``IndexNotReadyError`` alias below.
    """


IndexNotReadyError = IndexError_


class SamplingError(ReproError):
    """Raised when RIS sampling parameters are infeasible (e.g. lb <= 0)."""


class DataFormatError(ReproError):
    """Raised when an input file cannot be parsed."""


class CorpusFormatError(DataFormatError, SamplingError):
    """Raised when a stored RR corpus is out of shape or range.

    A loader reports a corrupt file as a :class:`DataFormatError`; it
    stays a :class:`SamplingError`, the type the corpus itself raises.
    """


class ServeError(ReproError):
    """Raised by the online serving layer (bad engine config, kind
    mismatches between an engine and the index file it is pointed at)."""

