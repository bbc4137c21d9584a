"""Left modules over structure-constant algebras, with minimal covers.

This is the engine shared by the endomorphism-ring and triangular-matrix-ring
layers.  A module is a plain vector space with one action matrix per algebra
basis element.  Minimal projective covers are driven by the radical the
algebra carries (``sc_of_bqa`` and ``endo.end_algebra`` attach one, in every
characteristic); the characteristic-zero trace-form radical ``radical_sc`` is
only the fallback for algebras built without one.

Column projectives are read off the Peirce grading, so the basis must be
adapted to the idempotents: b*e_i and e_j*b are b or 0 for every basis
element b (the bases of ``sc_of_bqa``, ``endo.end_algebra`` and its corners
are).  Gamma*e_i is then spanned by the basis elements starting at i, acted
on by a sub-table of the structure constants, and is grouped into an
isomorphism class with the other columns so that duplicated idempotents are
handled correctly.

Over a split algebra e_i kills every simple but the top S_i of Gamma*e_i, and
e_i S_i is k, so the copies of S_i in M/JM are counted by dim e_i (M/JM) and
a cover's generators are pivot columns: the columns of e_i acting on M that
are independent modulo JM and of each other.  A module is projective exactly
when that minimal cover is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .algebra import (SCAlgebra, _column_basis, _null_space, _pivot_columns, _read_off_units,
                      column_space, eval_path, quotient_by_rows, radical_sc, sc_of_bqa)
from .bounds import Dim, dim_max, syzygy_pd
from .errors import CompositionInconsistent, DimensionMismatch, NotSplit, QuivhomError
from .exactlin import Mat, _commuting_rows, _kernel_blocks, rank


@dataclass
class SCModule:
    sc: SCAlgebra
    dim: int
    action: list  # one Mat per algebra basis element

    def __post_init__(self):
        if len(self.action) != self.sc.dim:
            raise DimensionMismatch("one action matrix per basis element required")
        for m in self.action:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise DimensionMismatch("action matrices must be square of the module dimension")

    def act_vector(self, coeffs) -> Mat:
        """Matrix of the action of an algebra element given by coefficients."""
        return _combination(self.sc.field, self.dim, self.action, coeffs)

    def is_zero(self) -> bool:
        return self.dim == 0

    def check(self) -> bool:
        """Unit acts as identity; action respects the structure constants."""
        f = self.sc.field
        if not self.act_vector(self.sc.unit).is_identity() and self.dim > 0:
            return False
        for i in range(self.sc.dim):
            ai = self.action[i]
            for j in range(self.sc.dim):
                lhs = ai.mul(self.action[j])
                rhs = self.act_vector(self.sc.mult[i][j])
                if lhs != rhs:
                    return False
        return True


@dataclass
class SCMap:
    source: SCModule
    target: SCModule
    mat: Mat

    def is_valid(self) -> bool:
        for i in range(self.source.sc.dim):
            if self.mat.mul(self.source.action[i]) != self.target.action[i].mul(self.mat):
                return False
        return True


def _combination(field, dim, mats, coeffs) -> Mat:
    """sum c_i mats[i] over the coefficients c_i, a dim x dim matrix, summed
    from its first nonzero term on; coefficients equal to one scale nothing."""
    out = None
    for i, c in enumerate(coeffs):
        if c:
            term = mats[i] if c == field.one() else mats[i].scale(c)
            out = term if out is None else out.add(term)
    return Mat.zeros(field, dim, dim) if out is None else out


def zero_sc_module(sc: SCAlgebra) -> SCModule:
    return SCModule(sc, 0, [Mat.zeros(sc.field, 0, 0) for _ in range(sc.dim)])


def regular_module(sc: SCAlgebra) -> SCModule:
    return SCModule(sc, sc.dim, table_actions(sc, range(sc.dim), range(sc.dim)))


def sc_module_of_algmod(m, sc: SCAlgebra = None) -> SCModule:
    """Flatten a BQA module to a raw module over the structure-constant view."""
    a = m.algebra
    if sc is None:
        sc = sc_of_bqa(a)
    f = a.field
    verts = list(a.quiver.vertices)
    offs, total = {}, 0
    for v in verts:
        offs[v] = total
        total += m.dims[v]
    action = []
    for p in a.basis:
        big = Mat.zeros(f, total, total)
        mat = eval_path(m, p)
        rows = big.row_list()
        for i in range(mat.rows):
            for j in range(mat.cols):
                rows[offs[p.target] + i][offs[p.source] + j] = mat.at(i, j)
        action.append(Mat.from_rows(f, rows) if total else Mat.zeros(f, 0, 0))
    return SCModule(sc, total, action)


def sum_sc(sc: SCAlgebra, mods) -> SCModule:
    """The direct sum of modules, summand after summand."""
    mods = list(mods)
    f = sc.field
    action = [Mat.block_diag(f, [m.action[i] for m in mods]) if mods else Mat.zeros(f, 0, 0)
              for i in range(sc.dim)]
    return SCModule(sc, sum(m.dim for m in mods), action)


def hom_basis_sc(m: SCModule, n: SCModule):
    """Basis of module maps m -> n (matrices commuting with every action)."""
    f = m.sc.field
    shapes = [(n.dim, m.dim)]
    rows = _commuting_rows(f, shapes, [(0, ma, 0, na) for ma, na in zip(m.action, n.action)])
    return [SCMap(m, n, blocks[0]) for blocks in _kernel_blocks(f, rows, shapes)]


def radical_of(sc: SCAlgebra):
    if sc.known_radical is not None:
        return list(sc.known_radical)
    return radical_sc(sc)


def submodule_from_columns(m: SCModule, cols: Mat):
    """Restrict the module structure to the span of the given columns.

    The span's basis is ``algebra.column_space``'s, the identity at its pivot
    rows, so the restricted actions are those rows of [a_1 basis | ... |
    a_d basis], and one product checks the other rows
    (``algebra._read_off_units``)."""
    sub, incl, _ = _submodule_sc(m, cols)
    return sub, incl


def _submodule_sc(m: SCModule, cols: Mat):
    """``submodule_from_columns`` with the pivot rows where the inclusion is
    the identity."""
    f = m.sc.field
    basis, units = _column_basis(f, [cols])
    x = _read_off_units(basis, units, Mat.hstack(f, [a.mul(basis) for a in m.action]))
    if x is None:
        raise QuivhomError("span is not action-stable")
    r, w = basis.cols, x.cols
    action = [Mat(f, r, r, tuple(chain.from_iterable(x.entries[i * w + t * r:i * w + t * r + r]
                                                     for i in range(r))))
              for t in range(len(m.action))]
    sub = SCModule(m.sc, r, action)
    return sub, SCMap(sub, m, basis), units


def quotient_sc(m: SCModule, cols: Mat):
    """(M / span(cols), the projection onto it, a linear section of the
    projection), in ``algebra.quotient_by_rows``'s complement; span(cols)
    must be a submodule, and the columns need not be independent."""
    proj, sect, _ = quotient_by_rows(cols.transpose())
    return SCModule(m.sc, proj.rows, [proj.mul(a).mul(sect) for a in m.action]), proj, sect


def radical_submodule_sc(m: SCModule):
    """J*M as an inclusion, J the algebra radical."""
    f = m.sc.field
    rad = radical_of(m.sc)
    images = [m.act_vector(r) for r in rad]
    cols = column_space(f, images) if images else Mat.zeros(f, m.dim, 0)
    return cols


def kernel_of_sc(f_map: SCMap):
    """Kernel submodule with its inclusion: the span of the kernel basis
    (``algebra._null_space``) restricted by ``submodule_from_columns``."""
    return submodule_from_columns(f_map.source, _null_space(f_map.mat)[0])


class ColumnData:
    """Projectives Gamma*e_i with their isomorphism classes (split case),
    read off the Peirce grading; :func:`column_data` keeps one per algebra.

    The basis must be adapted to the idempotents (else :class:`NotSplit`):
    b*e_i and e_j*b are b or 0 for every basis element b, so b lies in one
    block e_j Gamma e_i.  Column i, Gamma*e_i, is spanned by the basis
    elements with b*e_i = b; its action is the sub-table a*b = mult[a][b] on
    them and its inclusion into Gamma their 0/1 position matrix.  J*Gamma*e_i
    = J*e_i is spanned by the radical vectors restricted to those positions,
    so the simple top is the quotient by them, and dim e_j J e_i is the rank
    of their restriction to the block.  Split: dim e_i Gamma e_i / e_i J e_i
    is 1.  Classes: Gamma*e_i and Gamma*e_j are isomorphic iff
    e_i Gamma e_j != e_i J e_j.
    """

    def __init__(self, sc: SCAlgebra):
        if sc.idempotents is None:
            raise NotSplit("algebra carries no idempotent list")
        self.sc = sc
        f = sc.field
        n = len(sc.idempotents)
        starts, ends = [None] * sc.dim, [None] * sc.dim
        for b, vec in enumerate(Mat.identity(f, sc.dim).row_list()):
            vec = tuple(vec)
            for i, e in enumerate(sc.idempotents):
                for grade, prod in ((starts, sc.multiply(vec, e)), (ends, sc.multiply(e, vec))):
                    if prod == vec:
                        grade[b] = i
                    elif any(prod):
                        raise NotSplit(f"basis element {b} is not adapted to idempotent {i}")
        self._positions = [[b for b in range(sc.dim) if starts[b] == i] for i in range(n)]
        self.idem_mats = list(sc.idempotents)
        self.radical = radical_of(sc)
        self.columns = []
        for pos in self._positions:
            incl = Mat(f, sc.dim, len(pos), tuple(f.one() if b == c else f.zero()
                                                  for b in range(sc.dim) for c in pos))
            self.columns.append((SCModule(sc, len(pos), table_actions(sc, range(sc.dim), pos)), incl))

        def over_radical(i, j):  # dim e_i Gamma e_j - dim e_i J e_j
            block = [b for b in self._positions[j] if ends[b] == i]
            vecs = [v for v in ([r[b] for b in block] for r in self.radical) if any(v)]
            return len(block) - (rank(Mat.from_rows(f, vecs)) if vecs else 0)

        for i in range(n):
            top = over_radical(i, i)
            if top != 1:
                raise NotSplit(f"idempotent {i}: corner has dimension {top} over the radical")
        self.class_of = list(range(n))
        for i in range(n):
            for j in range(i):
                if over_radical(i, j) > 0:
                    self.class_of[i] = self.class_of[j]
                    break
        self.classes = {}
        for i, c in enumerate(self.class_of):
            self.classes.setdefault(c, []).append(i)
        self._tops = {}

    def simple_top(self, i):
        """Top of the i-th column projective as an SCModule.

        Computed once per column; the result is shared, so callers must not
        mutate it."""
        top = self._tops.get(i)
        if top is None:
            pos = self._positions[i]
            rad = Mat(self.sc.field, len(pos), len(self.radical),
                      tuple(r[b] for b in pos for r in self.radical))
            top = self._tops[i] = quotient_sc(self.columns[i][0], rad)[0]
        return top


def table_actions(sc: SCAlgebra, acting, basis, left: bool = True):
    """One matrix per basis index g in ``acting`` on the span of the basis
    elements at ``basis``: g*h = mult[g][h] if ``left``, else h*g = mult[h][g].
    The span must be closed under these products; no other coordinate is read."""
    mult = sc.mult
    d = len(basis)
    out = []
    for g in acting:
        cols = [mult[g][h] for h in basis] if left else [mult[h][g] for h in basis]
        out.append(Mat(sc.field, d, d, tuple(col[r] for r in basis for col in cols)))
    return out


def column_data(sc: SCAlgebra) -> ColumnData:
    """The :class:`ColumnData` of ``sc``, built once per algebra; the result
    is shared, so callers must not mutate it."""
    if sc._coldata is None:
        sc._coldata = ColumnData(sc)
    return sc._coldata


def projective_cover_sc(m: SCModule):
    """Minimal projective cover over a split structure-constant algebra."""
    _, total, pi = column_cover_sc(m)
    return total, pi


def column_cover_sc(m: SCModule):
    """The minimal cover as (pieces, P, pi): P is the sum of the column
    projectives Gamma*e_i, i in ``pieces``, in that order."""
    pieces, gens = _cover_generators(m, radical_submodule_sc(m))
    if not pieces:
        z = zero_sc_module(m.sc)
        return [], z, SCMap(z, m, Mat.zeros(m.sc.field, m.dim, 0))
    total, pi = _map_from_columns(m, pieces, gens)
    if rank(pi.mat) != m.dim:
        raise CompositionInconsistent("projective cover is not surjective")
    return pieces, total, pi


def _cover_generators(m: SCModule, sub: Mat):
    """Generators of a minimal cover of M / span(sub): column indices
    ``pieces`` and vectors ``gens``, gens[k] in e_i M for i = pieces[k].
    ``sub`` has full column rank and spans a submodule containing JM, so
    the quotient is semisimple.  Both lists are empty when it is zero.

    Gamma is split, so e_i S is k for S the top of Gamma*e_i and zero for
    every other simple: dim e_i (M / sub) is the multiplicity of that top.
    The generators of a class are the columns of e_i acting on M that are
    independent modulo sub and of each other, i.e. the pivots beyond sub of
    rref([sub | e_i M]); each spans one copy of the simple, and together
    they reach the whole isotypic part."""
    if sub.cols == m.dim:
        return [], []
    coldata = column_data(m.sc)
    pieces, gens = [], []
    reached = sub.cols
    for members in coldata.classes.values():
        i = members[0]
        e_act = m.act_vector(coldata.idem_mats[i])
        chosen = _pivot_columns(m.sc.field, sub, e_act)
        pieces.extend([i] * len(chosen))
        gens.extend(e_act.col(j) for j in chosen)
        reached += len(chosen) * coldata.simple_top(i).dim
    if reached != m.dim:
        raise CompositionInconsistent("cover generators do not span the top")
    return pieces, gens


def _map_from_columns(m: SCModule, pieces, gens):
    """(P, pi): P the sum of the column projectives Gamma*e_i, i in
    ``pieces``, and pi sending gamma in the k-th summand to gamma*gens[k]:
    column b of the summand, a basis element of Gamma*e_i, goes to b*gens[k]."""
    f = m.sc.field
    coldata = column_data(m.sc)
    total = sum_sc(m.sc, [coldata.columns[i][0] for i in pieces])
    piece_mats = [Mat.hstack(f, [m.action[b].mul(gen) for b in coldata._positions[i]])
                  for i, gen in zip(pieces, gens)]
    pi_mat = Mat.hstack(f, piece_mats) if piece_mats else Mat.zeros(f, m.dim, 0)
    return total, SCMap(total, m, pi_mat)


def is_projective_sc(m: SCModule) -> bool:
    """M is projective iff its minimal cover P -> M is an isomorphism: a
    projective M splits the cover, so its kernel K is a direct summand of P
    inside rad P, hence K = rad K and K = 0 by Nakayama."""
    p, _ = projective_cover_sc(m)
    return p.dim == m.dim


def pd_sc(m: SCModule, cap: int = 20) -> Dim:
    return syzygy_pd(m, cap, projective_cover_sc, kernel_of_sc)


def gldim_sc(sc: SCAlgebra, cap: int = 20) -> Dim:
    """Max projective dimension over the simple tops of the column projectives."""
    cd = column_data(sc)
    return dim_max(pd_sc(cd.simple_top(members[0]), cap) for members in cd.classes.values())
