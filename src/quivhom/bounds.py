"""Homological dimension values that may be cut off by an iteration cap.

``Dim.finite(d)`` means the dimension is exactly ``d``.  ``Dim.at_least(c)``
means the computation was stopped with the value known to be ``>= c`` (it may
be infinite).  Comparisons against a bound are three-valued: True, False, or
None when the cap makes the question undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import QuivhomError


@dataclass(frozen=True, order=False)
class Dim:
    exact: bool
    value: int

    @staticmethod
    def finite(d: int) -> "Dim":
        return Dim(True, d)

    @staticmethod
    def at_least(c: int) -> "Dim":
        return Dim(False, c)

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">={self.value}"

    def add_const(self, k: int) -> "Dim":
        return Dim(self.exact, self.value + k)

    def add(self, other: "Dim") -> "Dim":
        return Dim(self.exact and other.exact, self.value + other.value)

    def max(self, other: "Dim") -> "Dim":
        # Interval semantics: finite(v) is [v, v], at_least(c) is [c, oo].
        if self.exact and other.exact:
            return Dim.finite(max(self.value, other.value))
        return Dim.at_least(max(self.value, other.value))

    def le(self, other: "Dim"):
        """Is self <= other?  Returns True/False/None (None = undecidable)."""
        if self.exact and other.exact:
            return self.value <= other.value
        if self.exact:  # other = [c, oo]
            return True if self.value <= other.value else None
        if other.exact:  # self = [c, oo]
            return None if self.value <= other.value else False
        return None

    def le_const(self, bound: int):
        return self.le(Dim.finite(bound))


def syzygy_pd(m, cap: int, cover, kernel) -> Dim:
    """Projective dimension of ``m`` by minimal syzygies, capped at ``cap``.

    Each step takes one cover ``(P, pi) = cover(current)`` and its kernel
    ``(K, incl) = kernel(pi)``; the module is projective when it is zero or
    its kernel is.  A negative cap raises ``QuivhomError``.  Shared by the
    SC modules and the triples; modules over a BQA keep their steps for
    ``ext_dims`` too (``algebra.pd``).
    """
    if cap < 0:
        raise QuivhomError(f"cap must be at least 0, got {cap}")
    if m.is_zero():
        return Dim.finite(0)
    current = m
    for i in range(cap + 1):
        _, pi = cover(current)
        current, _ = kernel(pi)
        if current.is_zero():
            return Dim.finite(i)
    return Dim.at_least(cap)


def dim_max(values) -> Dim:
    out = Dim.finite(0)
    got = False
    for v in values:
        out = v if not got else out.max(v)
        got = True
    if not got:
        return Dim.finite(0)
    return out
