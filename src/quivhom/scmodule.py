"""Left modules over structure-constant algebras, with minimal covers.

This is the engine shared by the endomorphism-ring and triangular-matrix-ring
layers.  A module is a plain vector space with one action matrix per algebra
basis element.  Minimal projective covers are driven by the radical the
algebra carries (``sc_of_bqa`` and ``endo.end_algebra`` attach one, in every
characteristic); the characteristic-zero trace-form radical ``radical_sc`` is
only the fallback for algebras built without one.  Column projectives
Gamma*e_i are grouped into isomorphism classes so that duplicated idempotents
are handled correctly.

Over a split algebra e_i kills every simple but the top S_i of Gamma*e_i, and
e_i S_i is k, so the copies of S_i in M/JM are counted by dim e_i (M/JM) and
a cover's generators are pivot columns: the columns of e_i acting on M that
are independent modulo JM and of each other.  A module is projective exactly
when that minimal cover is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import SCAlgebra, _pivot_columns, column_space, complement_projection, radical_sc
from .bounds import Dim, dim_max, syzygy_pd
from .errors import CompositionInconsistent, DimensionMismatch, NotSplit, QuivhomError
from .exactlin import Mat, _commuting_rows, _kernel_blocks, kernel_basis, rank, solve_matrix


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
    """sum c_i mats[i] over the coefficients c_i, a dim x dim matrix."""
    out = Mat.zeros(field, dim, dim)
    for i, c in enumerate(coeffs):
        if c != field.zero():
            out = out.add(mats[i].scale(c))
    return out


def zero_sc_module(sc: SCAlgebra) -> SCModule:
    return SCModule(sc, 0, [Mat.zeros(sc.field, 0, 0) for _ in range(sc.dim)])


def regular_module(sc: SCAlgebra) -> SCModule:
    return SCModule(sc, sc.dim, [sc.left_mult_matrix(_unit_vec(sc, i)) for i in range(sc.dim)])


def _unit_vec(sc, i):
    f = sc.field
    return tuple(f.one() if j == i else f.zero() for j in range(sc.dim))


def sc_module_of_algmod(m, sc: SCAlgebra = None) -> SCModule:
    """Flatten a BQA module to a raw module over the structure-constant view."""
    from .algebra import eval_path, sc_of_bqa

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


def direct_sum_sc(sc: SCAlgebra, mods):
    mods = list(mods)
    f = sc.field
    dim = sum(m.dim for m in mods)
    action = [Mat.block_diag(f, [m.action[i] for m in mods]) if mods else Mat.zeros(f, 0, 0)
              for i in range(sc.dim)]
    total = SCModule(sc, dim, action)
    injs, projs = [], []
    at = 0
    for m in mods:
        rows = []
        for r in range(m.dim):
            row = [f.zero()] * dim
            row[at + r] = f.one()
            rows.append(row)
        p = Mat.from_rows(f, rows) if rows else Mat.zeros(f, 0, dim)
        projs.append(SCMap(total, m, p))
        injs.append(SCMap(m, total, p.transpose()))
        at += m.dim
    return total, injs, projs


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
    """Restrict the module structure to the span of the given columns."""
    f = m.sc.field
    basis = column_space(f, [cols]) if cols.cols else Mat.zeros(f, m.dim, 0)
    action = []
    for a in m.action:
        moved = a.mul(basis)
        x = solve_matrix(basis, moved)
        if x is None:
            raise QuivhomError("span is not action-stable")
        action.append(x)
    sub = SCModule(m.sc, basis.cols, action)
    return sub, SCMap(sub, m, basis)


def quotient_sc(m: SCModule, cols: Mat):
    """(M / span(cols), the projection onto it, a linear section of the
    projection); span(cols) must be a submodule."""
    f = m.sc.field
    proj, sect = complement_projection(f, column_space(f, [cols]))
    return SCModule(m.sc, proj.rows, [proj.mul(a).mul(sect) for a in m.action]), proj, sect


def radical_submodule_sc(m: SCModule):
    """J*M as an inclusion, J the algebra radical."""
    f = m.sc.field
    rad = radical_of(m.sc)
    images = [m.act_vector(r) for r in rad]
    cols = column_space(f, images) if images else Mat.zeros(f, m.dim, 0)
    return cols


def kernel_of_sc(f_map: SCMap):
    f = f_map.source.sc.field
    kb = kernel_basis(f_map.mat)
    cols = Mat.hstack(f, kb) if kb else Mat.zeros(f, f_map.source.dim, 0)
    return submodule_from_columns(f_map.source, cols)


class ColumnData:
    """Projectives Gamma*e_i with their isomorphism classes (split case);
    :func:`column_data` keeps one per algebra."""

    def __init__(self, sc: SCAlgebra):
        if sc.idempotents is None:
            raise NotSplit("algebra carries no idempotent list")
        self.sc = sc
        f = sc.field
        reg = regular_module(sc)
        self.columns = []
        self.idem_mats = []
        rad = radical_of(sc)
        self.radical = rad
        for e in sc.idempotents:
            right_e = _right_mult_matrix(sc, e)
            col, incl = submodule_from_columns(reg, column_space(f, [right_e]))
            self.columns.append((col, incl))
            self.idem_mats.append(e)
        # split condition: dim e_i Gamma e_i / e_i J e_i == 1
        for i, e in enumerate(sc.idempotents):
            g = self._corner_dim(e, e, radical=False)
            j = self._corner_dim(e, e, radical=True)
            if g - j != 1:
                raise NotSplit(f"idempotent {i}: corner has dimension {g - j} over the radical")
        # isomorphism classes: e_i T_j != 0  <=>  dim e_i G e_j > dim e_i J e_j
        n = len(sc.idempotents)
        self.class_of = list(range(n))
        for i in range(n):
            for j in range(i):
                if self._linked(i, j):
                    self.class_of[i] = self.class_of[j]
                    break
        self.classes = {}
        for i, c in enumerate(self.class_of):
            self.classes.setdefault(c, []).append(i)
        self._tops = {}

    def _corner_vectors(self, e_left, e_right, radical: bool):
        sc = self.sc
        f = sc.field
        gens = self.radical if radical else [_unit_vec(sc, i) for i in range(sc.dim)]
        vecs = []
        for g in gens:
            v = sc.multiply(sc.multiply(e_left, g), e_right)
            if any(c != f.zero() for c in v):
                vecs.append(list(v))
        return vecs

    def _corner_dim(self, e_left, e_right, radical: bool):
        vecs = self._corner_vectors(e_left, e_right, radical)
        if not vecs:
            return 0
        return rank(Mat.from_rows(self.sc.field, vecs))

    def _linked(self, i, j):
        ei, ej = self.sc.idempotents[i], self.sc.idempotents[j]
        return self._corner_dim(ei, ej, False) > self._corner_dim(ei, ej, True)

    def simple_top(self, i):
        """Top of the i-th column projective as an SCModule.

        Computed once per column; the result is shared, so callers must not
        mutate it."""
        top = self._tops.get(i)
        if top is None:
            col, _ = self.columns[i]
            top = self._tops[i] = quotient_sc(col, radical_submodule_sc(col))[0]
        return top


def _right_mult_matrix(sc: SCAlgebra, x) -> Mat:
    f = sc.field
    cols = []
    for j in range(sc.dim):
        ej = _unit_vec(sc, j)
        cols.append(Mat.column(f, list(sc.multiply(ej, x))))
    return Mat.hstack(f, cols) if cols else Mat.zeros(f, 0, 0)


def column_data(sc: SCAlgebra) -> ColumnData:
    """The :class:`ColumnData` of ``sc``, built once per algebra; the result
    is shared, so callers must not mutate it."""
    if sc._coldata is None:
        sc._coldata = ColumnData(sc)
    return sc._coldata


def projective_cover_sc(m: SCModule):
    """Minimal projective cover over a split structure-constant algebra."""
    pieces, gens = _cover_generators(m, radical_submodule_sc(m))
    if not pieces:
        z = zero_sc_module(m.sc)
        return z, SCMap(z, m, Mat.zeros(m.sc.field, m.dim, 0))
    total, pi = _map_from_columns(m, pieces, gens)
    if rank(pi.mat) != m.dim:
        raise CompositionInconsistent("projective cover is not surjective")
    return total, pi


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
    the orbit [a_t gens[k]]_t times the column's inclusion into Gamma."""
    f = m.sc.field
    columns = column_data(m.sc).columns
    total, _, _ = direct_sum_sc(m.sc, [columns[i][0] for i in pieces])
    piece_mats = [Mat.hstack(f, [a.mul(gen) for a in m.action]).mul(columns[i][1].mat)
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
