"""Exception hierarchy shared by all quivhom modules."""

from __future__ import annotations


class QuivhomError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QuivhomError):
    pass


class CycleFound(QuivhomError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("directed cycle through vertices: " + " -> ".join(map(str, self.cycle)))


class DuplicateVertexId(QuivhomError):
    pass


class DuplicateArrowId(QuivhomError):
    pass


class UnknownVertex(QuivhomError):
    pass


class NotAPath(QuivhomError):
    pass


class NotAdmissible(QuivhomError):
    pass


class RelationNotParallel(QuivhomError):
    pass


class AlgebraMismatch(QuivhomError):
    pass


class CharPNotSupported(QuivhomError):
    pass


class NotSplit(QuivhomError):
    pass


class CompositionInconsistent(QuivhomError):
    pass


class IsoCheckFailed(QuivhomError):
    pass


class NotGenCogen(QuivhomError):
    pass


class NotSemisimple(QuivhomError):
    pass


class CertificateBrokenByFunctor(QuivhomError):
    pass


class TensorNotExactOnCertificates(QuivhomError):
    pass
