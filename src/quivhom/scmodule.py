"""Left modules over structure-constant algebras, with minimal covers.

This is the engine shared by the endomorphism-ring and triangular-matrix-ring
layers.  Minimal projective covers are driven by the radical the algebra
carries (``sc_of_bqa`` and ``endo.end_algebra`` attach one, in every
characteristic); the trace-form radical ``radical_sc`` is only the fallback
for algebras built without one, computed once per algebra (``radical_of``).

A module is stored by its Peirce grading (Assem-Simson-Skowronski, I-III).
Each coordinate keeps its place and has a grade: the idempotent e_i of the
algebra that fixes it, so e_i M is spanned by the coordinates of grade i and
e_i acts as the projection onto them.  A basis element b in e_j Gamma e_i
maps e_i M into e_j M and kills the other grades, so it is kept only as its
block, the rows of grade j by the columns of grade i (``blocks[b]``, at
``at[b] = (j, i)``).  ``action[b]`` places the block into a full matrix when
it is read (``_place``, the one placement) and keeps nothing.  So sums,
kernels, J*M, quotients, covers and hom bases work one grade at a time: a
module map sends grade i to grade i, a submodule is the sum of its grades,
and the reduced bases read grade by grade are those of the whole space,
entry for entry, since a reduced basis depends only on the subspace and the
order of the coordinates.

A module given by full action matrices is graded when every idempotent acts
as a coordinate projection and every basis element acts only in its block.
A module that is not, or one over an algebra that lists no idempotents or
whose basis is not adapted to them, has a single grade: each basis element
acts by one full block, and the same code runs on it.  Modules of different
gradings meet (in sums, maps and hom bases) with one grade each.

The graded bases (those of ``sc_of_bqa``, ``endo.end_algebra`` and its
corners, and the triangular rings of ``trimat``) are adapted to the
idempotents: b*e_i and e_j*b are b or 0 for every basis element b.  Column
projectives are read off that grading: Gamma*e_i is spanned by the basis
elements starting at i, acted on by a sub-table of the structure constants,
and is grouped into an isomorphism class with the other columns so that
duplicated idempotents are handled correctly.

A submodule is read off the rows where its basis is the identity
(``_submodule``), one ``algebra._read_off_units`` per grade: a kernel
takes the basis of ``exactlin._null_space`` of each grade as it is, one
elimination per grade.  Projective dimensions read the syzygy steps of
``bounds.syzygy_steps``.

Over a split algebra e_i kills every simple but the top S_i of Gamma*e_i, and
e_i S_i is k, so the copies of S_i in M/JM are counted by dim e_i (M/JM) and
a cover's generators are pivot columns: the columns of e_i acting on M (unit
vectors of grade i) that are independent modulo JM and of each other.  A
module is projective exactly when that minimal cover is an isomorphism.

The simple tops are read off the Peirce blocks of their columns, one
coordinate per grade of the class, with no quotient module built
(``ColumnData.simple_top``).  A global dimension is one resolution: gl.dim
Gamma = pd(Gamma/J) (Auslander 1955), and Gamma/J is, up to multiplicities,
the sum of one simple top per isomorphism class (``gldim_sc``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .algebra import (SCAlgebra, _column_basis, _pivot_columns, _read_off_units, eval_path,
                      quotient_by_rows, radical_sc, sc_of_bqa)
from .bounds import Dim, syzygy_pd, syzygy_steps
from .errors import (AlgebraMismatch, CompositionInconsistent, DimensionMismatch, NotSplit,
                     QuivhomError)
from .exactlin import Mat, _commuting_rows, _null_space, rank


def _gradings(sc: SCAlgebra):
    """(peirce, one, n) for ``sc``, built once per algebra.  ``peirce[b]`` is
    the block (j, i) of basis element b, b in e_j Gamma e_i, and n the number
    of idempotents; ``peirce`` is None when the algebra lists no idempotents
    or its basis is not adapted to them (b*e_i or e_j*b neither b nor 0).
    ``one`` puts every basis element at (0, 0), the grading with one grade;
    with one idempotent the two are the same object."""
    if sc._gradings is None:
        one = ((0, 0),) * sc.dim
        peirce, n = None, 1
        if sc.idempotents is not None:
            n = len(sc.idempotents)
            starts, ends = [None] * sc.dim, [None] * sc.dim
            adapted = True
            for b, vec in enumerate(Mat.identity(sc.field, sc.dim).row_list()):
                vec = tuple(vec)
                for i, e in enumerate(sc.idempotents):
                    for grade, prod in ((starts, sc.multiply(vec, e)), (ends, sc.multiply(e, vec))):
                        if prod == vec:
                            grade[b] = i
                        elif any(prod):
                            adapted = False
            if adapted:
                peirce = one if n == 1 else tuple(zip(ends, starts))
        sc._gradings = (peirce, one, n)
    return sc._gradings


def _take(m: Mat, rows, cols) -> Mat:
    """The submatrix of m on the increasing rows ``rows`` and columns
    ``cols``: m itself when they are all of its rows and columns."""
    if len(rows) == m.rows and len(cols) == m.cols:
        return m
    e, w = m.entries, m.cols
    return Mat(m.field, len(rows), len(cols), tuple([e[r * w + c] for r in rows for c in cols]))


def _nonzeros(m: Mat) -> int:
    return len(m.entries) - m.entries.count(0)


class SCModule:
    """A module over ``sc`` by its Peirce grading: ``grade[c]`` is the grade
    of coordinate c, and basis element b acts by ``blocks[b]`` from the
    grade at[b][1] to the grade at[b][0] (see the module docstring).
    ``SCModule(sc, dim, action)`` reads the grading off full action
    matrices, and refuses a module with one grade on which the unit does
    not act as the identity (a Peirce grading already sums the idempotents
    to it); ``action`` places the blocks back when read."""

    def __init__(self, sc: SCAlgebra, dim: int, action):
        action = list(action)
        if len(action) != sc.dim:
            raise DimensionMismatch("one action matrix per basis element required")
        for m in action:
            if (m.rows, m.cols) != (dim, dim):
                raise DimensionMismatch("action matrices must be square of the module dimension")
        grade, at, blocks = _grading_of(sc, dim, action)
        if at is _gradings(sc)[1] and not _combination(sc.field, dim, action, sc.unit).is_identity():
            raise QuivhomError("the unit of the algebra does not act as the identity")
        self._set(sc, grade, at, blocks)

    def _set(self, sc: SCAlgebra, grade, at, blocks) -> "SCModule":
        """Hold the grading and the blocks; ``coords`` lists the coordinates
        of each grade in order."""
        self.sc, self.grade, self.at, self.blocks = sc, tuple(grade), at, list(blocks)
        self.dim = len(self.grade)
        peirce, _, n = sc._gradings or _gradings(sc)
        if at is peirce and n > 1:
            self.coords = [[] for _ in range(n)]
            for c, g in enumerate(self.grade):
                self.coords[g].append(c)
        else:
            self.coords = [list(range(self.dim))]
        return self

    @classmethod
    def _of_blocks(cls, sc: SCAlgebra, grade, at, blocks) -> "SCModule":
        return cls.__new__(cls)._set(sc, grade, at, blocks)

    @property
    def action(self):
        """One full matrix per algebra basis element, placed when read."""
        return _Placed(self)

    def act_vector(self, coeffs) -> Mat:
        """Matrix of the action of an algebra element given by coefficients."""
        return _place(self, _act_blocks(self, coeffs))

    def is_zero(self) -> bool:
        return self.dim == 0

    def check(self) -> bool:
        """Unit acts as identity; action respects the structure constants.
        Checked block by block: a_b a_c is the product of the blocks when
        the grades meet and zero when they do not."""
        f, sc = self.sc.field, self.sc
        unit = _act_blocks(self, sc.unit)
        want = {(g, g): Mat.identity(f, len(cs)) for g, cs in enumerate(self.coords) if cs}
        if not _same_blocks(unit, want):
            return False
        for b, (jb, ib) in enumerate(self.at):
            for c, (jc, ic) in enumerate(self.at):
                lhs = {(jb, ic): self.blocks[b].mul(self.blocks[c])} if ib == jc else {}
                if not _same_blocks(lhs, _act_blocks(self, sc.mult[b][c])):
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, SCModule):
            return NotImplemented
        if self.sc is not other.sc or self.dim != other.dim:
            return False
        if self.at is other.at:
            return self.grade == other.grade and self.blocks == other.blocks
        return list(self.action) == list(other.action)

    __hash__ = None

    def __repr__(self):
        return f"SCModule(dim={self.dim}, grades={[len(cs) for cs in self.coords]})"


class _Placed(Sequence):
    """A module's action matrices, each placed from its block when read."""

    def __init__(self, m: SCModule):
        self.m = m

    def __len__(self):
        return len(self.m.blocks)

    def __getitem__(self, b):
        m = self.m
        return _place(m, {m.at[b]: m.blocks[b]})

    def __eq__(self, other):
        return list(self) == list(other)

    def __repr__(self):
        return repr(list(self))


def _place(m: SCModule, parts) -> Mat:
    """The dim x dim matrix with each block of ``parts`` ({(j, i): block})
    at the rows of grade j and the columns of grade i, zero elsewhere: the
    one place where blocks become a full action matrix."""
    n, f = m.dim, m.sc.field
    if len(parts) == 1:
        ((j, i), blk), = parts.items()
        if blk.rows == blk.cols == n:  # one grade: the block is the matrix
            return blk
    ent = [f.zero()] * (n * n)
    for (j, i), blk in parts.items():
        cols, w, e = m.coords[i], blk.cols, blk.entries
        for p, r in enumerate(m.coords[j]):
            for q, c in enumerate(cols):
                ent[r * n + c] = e[p * w + q]
    return Mat(f, n, n, tuple(ent))


def _act_blocks(m: SCModule, coeffs):
    """The action of the algebra element with coefficients ``coeffs`` as
    blocks: {(j, i): sum of c_b blocks[b] over the b at (j, i)}, summed from
    the first nonzero term on; coefficients equal to one scale nothing."""
    one, out = m.sc.field.one(), {}
    for b, c in enumerate(coeffs):
        if c:
            blk, key = m.blocks[b], m.at[b]
            term = blk if c == one else blk.scale(c)
            out[key] = out[key].add(term) if key in out else term
    return out


def _same_blocks(a: dict, b: dict) -> bool:
    """Whether two block dicts place to the same matrix (absent is zero)."""
    return all((a[k] == b[k]) if k in a and k in b else (a.get(k) or b.get(k)).is_zero()
               for k in a.keys() | b.keys())


def _grading_of(sc: SCAlgebra, dim: int, action):
    """(grade, at, blocks) of the module with the full action matrices
    ``action``: the Peirce grading when each idempotent acts as the
    projection onto coordinates of its grade and each basis element only in
    its block, else one grade with the matrices as blocks."""
    peirce, one, _ = _gradings(sc)
    if peirce is not None and peirce is not one:
        grade = [None] * dim
        graded = True
        for g, e in enumerate(sc.idempotents):
            act = _combination(sc.field, dim, action, e).entries
            for r in range(dim):
                for c in range(dim):
                    v = act[r * dim + c]
                    if r == c and v == sc.field.one() and grade[r] is None:
                        grade[r] = g
                    elif v:
                        graded = False
        if graded and None not in grade:
            coords = [[c for c in range(dim) if grade[c] == g] for g in range(len(sc.idempotents))]
            blocks = [_take(a, coords[j], coords[i]) for a, (j, i) in zip(action, peirce)]
            if all(_nonzeros(blk) == _nonzeros(a) for blk, a in zip(blocks, action)):
                return grade, peirce, blocks
    return (0,) * dim, one, action


def _one_grade(mods):
    """The modules with one grading: as they are when they share one, else
    each with one grade, its action matrices placed as its blocks."""
    if all(m.at is mods[0].at for m in mods):
        return mods
    return [SCModule._of_blocks(m.sc, (0,) * m.dim, _gradings(m.sc)[1], list(m.action))
            for m in mods]


@dataclass
class SCMap:
    source: SCModule
    target: SCModule
    mat: Mat

    def is_valid(self) -> bool:
        """g . a_b = a'_b . h for every basis element b at (j, i), g and h
        the map's blocks at grades j and i; a map with an entry between
        different grades is none.  Both sides of the equation of b are
        b.rows x a.cols matrices, so it holds, unchecked, when either is 0."""
        m, n = self.source, self.target
        if m.at is not n.at:
            m, n = _one_grade([m, n])
        blocks = self._blocks(n, m)
        if blocks is None:
            return False
        for a, b, (j, i) in zip(m.blocks, n.blocks, m.at):
            if b.rows and a.cols and blocks[j].mul(a) != b.mul(blocks[i]):
                return False
        return True

    def _blocks(self, target: SCModule, source: SCModule):
        """The map between ``source`` and ``target`` (its ends, or their one
        grade copies) grade by grade, from each grade of the source to the
        same grade of the target, or None when it has an entry between
        different grades.  A matrix of the wrong shape raises
        ``DimensionMismatch``."""
        if (self.mat.rows, self.mat.cols) != (target.dim, source.dim):
            raise DimensionMismatch(f"a {self.mat.rows}x{self.mat.cols} matrix is no map "
                                    f"from dimension {source.dim} to {target.dim}")
        blocks = [_take(self.mat, tc, sc) for tc, sc in zip(target.coords, source.coords)]
        return blocks if sum(map(_nonzeros, blocks)) == _nonzeros(self.mat) else None


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
    return sum_sc(sc, [])


def regular_module(sc: SCAlgebra) -> SCModule:
    return _table_module(sc, sc, range(sc.dim), range(sc.dim))


def _table_module(over: SCAlgebra, table: SCAlgebra, acting, basis, ends=None) -> SCModule:
    """The span of ``table``'s basis elements at ``basis`` (closed under the
    products used) as a module over ``over``, whose t-th basis element acts
    as table's element acting[t] by left multiplication, g*h = mult[g][h].
    Graded by over's idempotents, ``ends[k]`` the one that fixes basis[k]
    (by default its end in table's own grading, for table = over); the
    blocks are read off the table and no other coordinate is read."""
    peirce, one, _ = _gradings(over)
    basis = list(basis)
    if peirce is None:
        at, grade = one, (0,) * len(basis)
    else:
        at = peirce
        grade = ends if ends is not None else [peirce[h][0] for h in basis]
    m = SCModule._of_blocks(over, grade, at, [])
    for g, (j, i) in zip(acting, at):
        m.blocks.append(_sub_table(table, g, [basis[k] for k in m.coords[j]],
                                   [basis[k] for k in m.coords[i]]))
    return m


def _sub_table(sc: SCAlgebra, g, rows, cols, left: bool = True) -> Mat:
    """The matrix whose column t is the product g*h (h*g if not ``left``),
    h = cols[t], read at the coordinates ``rows``: the one reader of
    sub-tables of the structure constants."""
    mult = sc.mult
    prods = [mult[g][h] for h in cols] if left else [mult[h][g] for h in cols]
    return Mat(sc.field, len(rows), len(cols), tuple(p[r] for r in rows for p in prods))


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
    """The direct sum of modules over ``sc``, summand after summand: each
    block is the summands' blocks placed diagonally.  A summand over
    another algebra (compared by identity) raises ``AlgebraMismatch``."""
    mods = list(mods)
    if any(m.sc is not sc for m in mods):
        raise AlgebraMismatch("a summand is over another algebra")
    mods = _one_grade(mods)
    f = sc.field
    peirce, one, _ = _gradings(sc)
    at = mods[0].at if mods else (one if peirce is None else peirce)
    return SCModule._of_blocks(sc, [g for m in mods for g in m.grade], at,
                               [Mat.block_diag(f, [m.blocks[b] for m in mods]) for b in range(sc.dim)])


def hom_basis_sc(m: SCModule, n: SCModule):
    """Basis of module maps m -> n (matrices commuting with every action).

    A module map sends grade i to grade i, so the unknowns are the entries
    of equal grades, in the order of the full matrix, and basis element b at
    (j, i) gives the equations g_j . a_b = a'_b . g_i of its blocks.  The
    modules must be over one algebra, compared by identity (else
    ``AlgebraMismatch``)."""
    if m.sc is not n.sc:
        raise AlgebraMismatch("modules over different algebras")
    f = m.sc.field
    mg, ng = _one_grade([m, n])
    shapes = [(len(r), len(c)) for r, c in zip(ng.coords, mg.coords)]
    rows = _commuting_rows(f, shapes, [(j, a, i, b) for a, b, (j, i)
                                       in zip(mg.blocks, ng.blocks, mg.at)])
    # the unknowns in the block layout, by their entries of the full matrix,
    # put in the order of the full matrix
    full = [r * m.dim + c for rows_g, cols_g in zip(ng.coords, mg.coords) for r in rows_g for c in cols_g]
    order = sorted(range(len(full)), key=full.__getitem__)
    if order != list(range(len(full))):
        rows, full = [[row[k] for k in order] for row in rows], [full[k] for k in order]
    basis, free = _null_space(Mat(f, len(rows), len(full), tuple(chain.from_iterable(rows))))
    out = []
    for t in range(len(free)):
        ent = [f.zero()] * (n.dim * m.dim)
        for e, v in zip(full, basis.entries[t::len(free)]):
            ent[e] = v
        out.append(SCMap(m, n, Mat(f, n.dim, m.dim, tuple(ent))))
    return out


def radical_of(sc: SCAlgebra):
    """A spanning list of the radical of ``sc``: the one it carries, else the
    trace-form radical ``radical_sc``, computed once per algebra and kept on
    it, as ``column_data`` is."""
    if sc.known_radical is not None:
        return list(sc.known_radical)
    if sc._radical is None:
        sc._radical = tuple(radical_sc(sc))
    return list(sc._radical)


def _join(m: SCModule, of, blocks) -> Mat:
    """The matrix whose column t is the next column of blocks[of[t]],
    placed at the rows of its grade."""
    f, w = m.sc.field, len(of)
    ent, nxt = [f.zero()] * (m.dim * w), [0] * len(blocks)
    for t, g in enumerate(of):
        blk, q = blocks[g], nxt[g]
        nxt[g] += 1
        for p, r in enumerate(m.coords[g]):
            ent[r * w + t] = blk.entries[p * blk.cols + q]
    return Mat(f, m.dim, w, tuple(ent))


def _submodule(m: SCModule, of, parts) -> SCModule:
    """The submodule whose grade-g part has the basis parts[g][0], the
    identity at its rows parts[g][1], its coordinates of grades ``of``.
    Basis element b at (j, i) acts by the X with basis_j . X = a_b . basis_i,
    and the images that land in grade j are read off its unit rows by one
    ``algebra._read_off_units``, which checks the other rows."""
    f = m.sc.field
    landing = [[] for _ in parts]
    blocks = [None] * len(m.at)
    for b, (j, i) in enumerate(m.at):
        if parts[j][0].rows and parts[i][0].cols:
            landing[j].append(b)
        else:  # nothing to read: no rows in grade j, or no columns in grade i
            blocks[b] = Mat.zeros(f, parts[j][0].cols, parts[i][0].cols)
    for j, (basis, units) in enumerate(parts):
        if not landing[j]:
            continue
        images = [m.blocks[b].mul(parts[m.at[b][1]][0]) for b in landing[j]]
        x = _read_off_units(basis, units, Mat.hstack(f, images))
        if x is None:
            raise QuivhomError("span is not action-stable")
        at = 0
        for b, img in zip(landing[j], images):
            blocks[b] = x.col_block(at, at + img.cols)
            at += img.cols
    return SCModule._of_blocks(m.sc, of, m.at, blocks)


def quotient_sc(m: SCModule, cols: Mat):
    """(M / span(cols), the projection onto it, a linear section of the
    projection), in ``algebra.quotient_by_rows``'s complement, grade by
    grade; the columns need not be independent.

    span(cols) must be a submodule: the sum of its grades (clear when each
    column lies in one grade, else its rank is the sum of theirs) and stable
    under every block (proj_j . a_b kills the grade-i rows of the columns).
    Else ``QuivhomError``.  A zero span gives (M, I, I), as the general code would."""
    if not any(cols.entries):
        one = Mat.identity(m.sc.field, m.dim)
        return m, one, one
    spans = [_take(cols, cs, range(cols.cols)) for cs in m.coords]
    parts = [quotient_by_rows(span.transpose()) for span in spans]
    kept = sum(len(free) for _, _, free in parts)
    mixed = any(sum(1 for span in spans if any(span.entries[c::span.cols])) > 1
                for c in range(cols.cols))
    if mixed and rank(cols) != m.dim - kept:
        raise QuivhomError("span is not a submodule: it is not the sum of its grades")
    blocks = []
    for a, (j, i) in zip(m.blocks, m.at):
        p = parts[j][0].mul(a)
        if not p.mul(spans[i]).is_zero():
            raise QuivhomError("span is not a submodule: it is not action-stable")
        blocks.append(p.mul(parts[i][1]))
    of = [g for _, g in sorted((cs[c], g) for g, (cs, (_, _, free)) in enumerate(zip(m.coords, parts))
                               for c in free)]
    proj = _join(m, of, [p.transpose() for p, _, _ in parts]).transpose()
    return SCModule._of_blocks(m.sc, of, m.at, blocks), proj, _join(m, of, [s for _, s, _ in parts])


def _radical_parts(m: SCModule):
    """(grades, bases) of J*M, J the algebra radical, read grade by grade:
    per grade g the reduced basis of e_g J*M (``algebra._column_basis``),
    spanned by the columns of the blocks at (g, i) of the Peirce components
    of the radical vectors, and the grade of each column of the whole basis
    (``_join``), whose columns are ordered by their pivot rows."""
    f = m.sc.field
    images = [[] for _ in m.coords]
    for r in radical_of(m.sc):
        for (j, _), blk in _act_blocks(m, r).items():
            images[j].append(blk)
    bases, pivots = [], []
    for g, (cs, mats) in enumerate(zip(m.coords, images)):
        basis, piv = _column_basis(f, mats) if mats and cs else (Mat.zeros(f, len(cs), 0), ())
        bases.append(basis)
        pivots.extend((cs[p], g) for p in piv)
    return [g for _, g in sorted(pivots)], bases


def kernel_of_sc(f_map: SCMap):
    """Kernel submodule with its inclusion: per grade the null space of the
    map's block (``exactlin._null_space``, the identity at its free rows),
    one elimination per grade, is that grade of the kernel (``_submodule``)."""
    m, n = _one_grade([f_map.source, f_map.target])
    blocks = f_map._blocks(n, m)
    if blocks is None:
        raise QuivhomError("the map has an entry between different grades: no module map")
    parts = [_null_space(blk) for blk in blocks]
    of = [m.grade[u] for u in sorted(cs[c] for cs, (_, free) in zip(m.coords, parts) for c in free)]
    sub = _submodule(m, of, parts)
    return sub, SCMap(sub, f_map.source, _join(m, of, [b for b, _ in parts]))


class ColumnData:
    """Projectives Gamma*e_i with their isomorphism classes (split case),
    read off the Peirce grading; :func:`column_data` keeps one per algebra.

    The basis must be adapted to the idempotents, read off ``sc`` and not
    copied (else :class:`NotSplit`): b*e_i and e_j*b are b or 0, so each
    basis element b lies in one block e_j Gamma e_i.  Gamma*e_i is spanned
    by the b with b*e_i = b, graded by their ends; its action is the
    sub-table a*b = mult[a][b] on them and its inclusion into Gamma their
    0/1 position matrix.  J*Gamma*e_i = J*e_i is spanned by the radical
    vectors restricted to those positions, and dim e_j J e_i is the rank of
    their restriction to the block.
    Split: dim e_i Gamma e_i / e_i J e_i is 1.  Classes: Gamma*e_i and
    Gamma*e_j are isomorphic iff e_i Gamma e_j != e_i J e_j.

    The simple top Gamma*e_i / J*e_i is read off the blocks (``simple_top``):
    e_j of it is e_j Gamma e_i / e_j J e_i, which is k for j in i's class
    and zero for every other j.  A grade j of the class keeps the coordinate
    that ``algebra.quotient_by_rows`` leaves of J's restriction to the
    block, with its projection proj_j, and a basis element b at (j, h) acts
    by the scalar proj_j . (b . u_h), u_h the unit vector at h's kept
    coordinate: ``quotient_sc`` of the column by J*e_i, entry for entry,
    with its check that proj_j . b kills e_h J e_i.
    The sum of the columns that a cover maps from is kept per list of
    pieces (``_column_sum``), as the tops are per column.
    """

    def __init__(self, sc: SCAlgebra):
        if sc.idempotents is None:
            raise NotSplit("algebra carries no idempotent list")
        peirce, _, n = _gradings(sc)
        if peirce is None:
            raise NotSplit("basis is not adapted to the idempotents")
        self.sc = sc
        f = sc.field
        self._positions = [[b for b in range(sc.dim) if peirce[b][1] == i] for i in range(n)]
        self.radical = radical_of(sc)
        self.columns = []
        for pos in self._positions:
            incl = Mat(f, sc.dim, len(pos), tuple(f.one() if b == c else f.zero()
                                                  for b in range(sc.dim) for c in pos))
            self.columns.append((_table_module(sc, sc, range(sc.dim), pos), incl))

        def over_radical(i, j):  # dim e_i Gamma e_j - dim e_i J e_j
            block = [b for b in self._positions[j] if peirce[b][0] == i]
            rows = self._radical_rows(block)
            return len(block) - (rank(rows) if rows.rows else 0)

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
        self._sums = {}

    def _radical_rows(self, block) -> Mat:
        """The radical vectors restricted to the basis elements ``block``
        (those zero there left out), as the rows of a matrix: they span J's
        part of the span of ``block``."""
        f = self.sc.field
        vecs = [v for v in ([r[b] for b in block] for r in self.radical) if any(v)]
        return Mat.from_rows(f, vecs) if vecs else Mat.zeros(f, 0, len(block))

    def _column_sum(self, pieces) -> SCModule:
        """The sum of the column projectives Gamma*e_i, i in ``pieces``, in
        that order.  Built once per list of pieces; the result is shared, so
        callers must not mutate it."""
        key = tuple(pieces)
        total = self._sums.get(key)
        if total is None:
            total = self._sums[key] = sum_sc(self.sc, [self.columns[i][0] for i in key])
        return total

    def simple_top(self, i):
        """Top of the i-th column projective as an SCModule, read off the
        Peirce blocks (see the class docstring); its dimension is the size
        of i's class.  Computed once per column; the result is shared, so
        callers must not mutate it."""
        top = self._tops.get(i)
        if top is None:
            top = self._tops[i] = self._top(i)
        return top

    def _top(self, i) -> SCModule:
        f, col, pos = self.sc.field, self.columns[i][0], self._positions[i]
        spans = [self._radical_rows([pos[c] for c in cs]) for cs in col.coords]  # e_h J e_i
        proj, free = {}, [()] * len(spans)
        for j in self.classes[self.class_of[i]]:
            proj[j], _, free[j] = quotient_by_rows(spans[j])
        blocks = []
        for b, (j, h) in enumerate(col.at):
            if j not in proj:  # grade j of the top is zero
                blocks.append(Mat.zeros(f, 0, len(free[h])))
                continue
            row = proj[j].mul(col.blocks[b])
            if spans[h].rows and not row.is_zero() and not row.mul(spans[h].transpose()).is_zero():
                raise QuivhomError("span is not a submodule: it is not action-stable")
            blocks.append(_take(row, range(row.rows), free[h]))
        of = [g for _, g in sorted((col.coords[g][c], g) for g in proj for c in free[g])]
        return SCModule._of_blocks(self.sc, of, col.at, blocks)


def table_actions(sc: SCAlgebra, acting, basis, left: bool = True):
    """One matrix per basis index g in ``acting`` on the span of the basis
    elements at ``basis``: g*h = mult[g][h] if ``left``, else h*g = mult[h][g].
    The span must be closed under these products; no other coordinate is read."""
    return [_sub_table(sc, g, basis, basis, left) for g in acting]


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
    pieces, gens = _cover_generators(m, *_radical_parts(m))
    if not pieces:
        z = zero_sc_module(m.sc)
        return [], z, SCMap(z, m, Mat.zeros(m.sc.field, m.dim, 0))
    return (pieces,) + _map_from_columns(m, pieces, gens)


def _cover_generators(m: SCModule, of, subs):
    """Generators of a minimal cover of M / sub: column indices ``pieces``
    and coordinates ``gens`` of M, the k-th generator being e_i applied to
    the unit vector at gens[k], i = pieces[k].  sub is given grade by grade,
    as ``_radical_parts`` gives J*M: bases ``subs`` of its grades, and the
    grades ``of`` of its basis; it contains JM, so the quotient is
    semisimple.  Both lists are empty when it is zero.

    Gamma is split, so e_i S is k for S the top of Gamma*e_i and zero for
    every other simple: dim e_i (M / sub) is the multiplicity of that top.
    The generators of a class are the columns of e_i acting on M that are
    independent modulo sub and of each other, i.e. the pivots beyond sub of
    rref([sub | e_i M]), read in e_i's block: with the Peirce grading e_i is
    the identity on grade i, so they are unit vectors of grade i, taken
    modulo the grade-i part of sub.  Each spans one copy of the simple, and
    together they reach the whole isotypic part."""
    if len(of) == m.dim:
        return [], []
    coldata = column_data(m.sc)
    pieces, gens = [], []
    reached = len(of)
    for members in coldata.classes.values():
        i = members[0]
        ((g, _), e_blk), = _act_blocks(m, m.sc.idempotents[i]).items()
        # no generator where sub fills the grade (or the grade is empty)
        chosen = _pivot_columns(m.sc.field, subs[g], e_blk) if subs[g].cols < e_blk.rows else []
        pieces.extend([i] * len(chosen))
        gens.extend(m.coords[g][q] for q in chosen)
        reached += len(chosen) * coldata.simple_top(i).dim
    if reached != m.dim:
        raise CompositionInconsistent("cover generators do not span the top")
    return pieces, gens


def _map_from_columns(m: SCModule, pieces, gens):
    """(P, pi): P the sum of the column projectives Gamma*e_i, i in
    ``pieces``, and pi sending gamma in the k-th summand to gamma*e_i*u,
    u the unit vector at gens[k]: column b of the summand, a basis element
    of Gamma*e_i at (j, i), goes to a_b*e_i*u = a_b*u, the column of b's
    block at u, in grade j.  pi is onto when each of its blocks, grade to
    grade, has full row rank."""
    f = m.sc.field
    coldata = column_data(m.sc)
    total = coldata._column_sum(pieces)
    of, cols = [], [[] for _ in m.coords]
    place = {c: p for cs in m.coords for p, c in enumerate(cs)}  # c's place in its grade
    for i, c in zip(pieces, gens):
        for b in coldata._positions[i]:
            of.append(m.at[b][0])
            cols[of[-1]].append(m.blocks[b].col(place[c]))
    blocks = [Mat.hstack(f, cs) if cs else Mat.zeros(f, len(rows), 0)
              for cs, rows in zip(cols, m.coords)]
    if any(blk.rows and rank(blk) != blk.rows for blk in blocks):
        raise CompositionInconsistent("projective cover is not surjective")
    return total, SCMap(total, m, _join(m, of, blocks))


def is_projective_sc(m: SCModule) -> bool:
    """M is projective iff its minimal cover P -> M is an isomorphism: a
    projective M splits the cover, so its kernel K is a direct summand of P
    inside rad P, hence K = rad K and K = 0 by Nakayama."""
    p, _ = projective_cover_sc(m)
    return p.dim == m.dim


def pd_sc(m: SCModule, cap: int = 20) -> Dim:
    """Projective dimension by minimal syzygies, capped (``bounds.syzygy_pd``),
    off the steps of ``bounds.syzygy_steps``: built up to the first zero
    kernel, or up to the first kernel equal to an earlier one."""
    return syzygy_pd(m, cap, lambda n: syzygy_steps(m, [], n, projective_cover_sc, kernel_of_sc))


def gldim_sc(sc: SCAlgebra, cap: int = 20) -> Dim:
    """Global dimension, capped: pd of the top Gamma/J, the sum of one simple
    top per isomorphism class, in one resolution.  gl.dim Gamma = pd(Gamma/J)
    (Auslander 1955), and the minimal resolution of a sum is the sum of the
    minimal resolutions, so this is the largest pd of a simple top, capped
    answers included."""
    cd = column_data(sc)
    return pd_sc(sum_sc(sc, [cd.simple_top(members[0]) for members in cd.classes.values()]), cap)
