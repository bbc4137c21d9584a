"""Homological dimension values that may be cut off by an iteration cap.

``Dim.finite(d)`` means the dimension is exactly ``d``.  ``Dim.at_least(c)``
means the computation was stopped with the value known to be ``>= c`` (it may
be infinite).  Comparisons against a bound are three-valued: True, False, or
None when the cap makes the question undecidable.

Every projective dimension in the library is read off one syzygy loop,
``syzygy_steps``, which takes the minimal cover and the kernel of its
module kind as functions: the modules over a BQA (``algebra.pd``, which
keeps its steps for ``ext_dims``, and the oracle ``algebra.pd_via_ext``)
and over a structure-constant algebra (``scmodule.pd_sc``), which includes
the triples, the modules over a triangular ring (``trimat.triple_pd``).

The loop stops building once the resolution turns periodic.  A cover and
its kernel depend only on the content of their argument (the algebra
object, the dimensions and the matrices), so a kernel K_j equal to an
earlier K_i (the module's own ``==``) makes step j + 1 equal to step i + 1
entry for entry, and by induction the rest of the resolution repeats with
period j - i.  Over a self-injective base every non-projective module has
infinite pd, and over a Nakayama algebra the syzygies of a module are
eventually periodic up to isomorphism (Gustafson 1985); when the computed
kernels repeat as matrices, a capped pd costs the covers up to the first
repeat instead of cap + 1, whatever the cap.  A module of finite pd has no
repeated nonzero kernel, so there the comparisons are all it costs.
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


def check_natural(name: str, value) -> None:
    """``QuivhomError`` unless ``value``, a cap or a length, is an int >= 0."""
    if not isinstance(value, int) or value < 0:
        raise QuivhomError(f"{name} must be an int >= 0, not {value!r}")


def syzygy_steps(m, steps: list, n: int, cover, kernel) -> list:
    """Extend the syzygy steps of ``m`` in place to n steps, or up to the
    first zero kernel, and return them.  Step i is (P_i, pi_i, K_i, incl_i):
    (P_i, pi_i) = cover(K_(i-1)), or cover(m) for i = 0, is a minimal cover
    and (K_i, incl_i) = kernel(pi_i) its kernel.

    Before covering the last kernel K_j, it is compared with the earlier
    kernels; when it equals some K_i, the steps i + 1, i + 2, ... are
    appended again, the same tuples, until n are held, and no further cover
    or kernel is built (see the module docstring).  Such a tail step's pi
    has the equal earlier kernel as its target.  A list extended by a later
    call finds its period again from its last kernel."""
    while len(steps) < n and not (steps and steps[-1][2].is_zero()):
        if steps:
            last = steps[-1][2]
            i = next((i for i, step in enumerate(steps[:-1]) if step[2] == last), None)
            if i is not None:
                period = len(steps) - 1 - i
                while len(steps) < n:
                    steps.append(steps[-period])
                return steps
        p, pi = cover(steps[-1][2] if steps else m)
        k, incl = kernel(pi)
        steps.append((p, pi, k, incl))
    return steps


def syzygy_pd(m, cap: int, steps) -> Dim:
    """Projective dimension of ``m`` by minimal syzygies, capped at ``cap``:
    the index of the first zero kernel among the first cap + 1 steps that
    ``steps(cap + 1)`` returns (``syzygy_steps`` of m; later steps are not
    read), ``Dim.at_least(cap)`` when none is zero.  A cap that is no int
    >= 0 raises ``QuivhomError``; the zero module has pd 0, and no step is
    asked for."""
    check_natural("cap", cap)
    if m.is_zero():
        return Dim.finite(0)
    got = steps(cap + 1)[:cap + 1]
    if got[-1][2].is_zero():
        return Dim.finite(len(got) - 1)
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
