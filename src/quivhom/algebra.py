"""Finite-dimensional base algebras presented by quivers with admissible relations.

A :class:`BQA` carries a basis of path normal forms obtained by row-reducing
the relation-ideal spanning set over paths of bounded length; the bound ``N``
must kill every path of length ``N`` (checked, error otherwise).  Left modules
are stored as representations of the base quiver: a dimension per vertex and a
matrix per arrow.  Minimal projective covers, syzygies, projective dimension
and global dimension all live here, together with the raw structure-constant
algebras used for endomorphism rings.

Every quotient of a vector space in the library -- quotient modules, the
tops that pick cover generators, simple tops, cohomology and the tensor
products M (x)_R X -- is ``quotient_by_rows``: one rref of a spanning set,
the non-pivot columns as the complement.

A submodule's structure is read off the rows where its RREF basis is the
identity (``_read_off_units``): a kernel basis (``exactlin._null_space``)
is the identity at the non-pivot rows, and a column-space basis (the
reduced rows of ``exactlin._reduced_span`` transposed, ``_column_basis``)
at its pivot rows, so basis * X = image has X = those rows of the image,
and one product checks the other rows.  No system is solved to restrict a
module to a kernel or a span.  Syzygies, pd, Ext and minimal resolutions
read the steps of ``bounds.syzygy_steps``; a cover's P is kept per tuple of
pieces, and Ext reads Hom(P_i, N) off those pieces with no hom basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

from .bounds import Dim, check_natural, syzygy_pd, syzygy_steps
from .errors import (
    AlgebraMismatch,
    CharPNotSupported,
    CompositionInconsistent,
    DimensionMismatch,
    NotAdmissible,
    NotSplit,
    QuivhomError,
    RelationNotParallel,
    UnknownVertex,
)
from .exactlin import (Field, Mat, _commuting_rows, _kernel_blocks, _null_space, _reduced_span,
                       _scalar_of, rank, rref)
from .quiver import (Path, Quiver, arrow_path, check_path, concat, longest_path, make_quiver,
                     single_vertex, trivial_path)


def _paths_up_to(q: Quiver, n: int):
    """All paths of length <= n (works with cycles), grouped by length."""
    by_len = [[trivial_path(v) for v in q.vertices]]
    for _ in range(n):
        nxt = []
        for p in by_len[-1]:
            for a in sorted(q.arrows_from(p.target), key=lambda a: a.name):
                nxt.append(concat(p, arrow_path(a)))
        by_len.append(nxt)
    return by_len


def _path_key(p: Path):
    return (p.length, p.source, p.target, p.arrows)


class BQA:
    """Bound quiver algebra over a field; basis = path normal forms.  A relation
    lists (coefficient: an int, or over QQ a Fraction; path of the quiver) terms."""

    def __init__(self, field: Field, quiver: Quiver, relations, nbound: int, name: str = ""):
        if not isinstance(nbound, int) or nbound < 1:
            raise QuivhomError(f"nilpotency bound must be an int >= 1, not {nbound!r}")
        self.field = field
        self.quiver = quiver
        self.nbound = nbound
        self.name = name
        self.relations = []
        for rel in relations:
            terms = [(field.of_int(c) if isinstance(c, int) else _scalar_of(field, c),
                      check_path(quiver, p)) for c, p in rel]
            if not terms:
                continue
            src = {p.source for _, p in terms}
            tgt = {p.target for _, p in terms}
            if len(src) != 1 or len(tgt) != 1 or any(p.length < 2 for _, p in terms):
                raise RelationNotParallel(f"relation terms must be parallel paths of length >= 2: {rel}")
            self.relations.append(tuple(terms))
        self._build()

    # -- construction -----------------------------------------------------
    def _build(self):
        by_len = _paths_up_to(self.quiver, self.nbound)
        paths = [p for level in by_len for p in level]
        paths.sort(key=_path_key)
        index = {p: i for i, p in enumerate(paths)}
        npaths = len(paths)
        f = self.field

        span_rows = []
        # spanning set of the relation ideal inside the length <= N window:
        # y * r * x in traversal order (y, relation term, x), overlong terms drop
        for rel in self.relations:
            a = rel[0][1].source
            b = rel[0][1].target
            min_len = min(p.length for _, p in rel)
            lefts = [p for p in paths if p.target == a]
            rights = [p for p in paths if p.source == b]
            for y in lefts:
                for x in rights:
                    if y.length + x.length + min_len > self.nbound:
                        continue
                    row = [f.zero()] * npaths
                    nonzero = False
                    for c, p in rel:
                        if y.length + p.length + x.length > self.nbound:
                            continue
                        full = concat(concat(y, p), x)
                        row[index[full]] = f.add(row[index[full]], c)
                        nonzero = True
                    if nonzero:
                        span_rows.append(row)

        if span_rows:
            red, rk, pivots = rref(Mat.from_rows(f, span_rows))
            self._rows = red.row_list()[:rk]
            self._pivots = list(pivots)
        else:
            self._rows = []
            self._pivots = []
        pivot_of = {c: i for i, c in enumerate(self._pivots)}
        pivset = set(self._pivots)

        # normal form of every enumerated path
        basis_paths = [p for p in paths if index[p] not in pivset and p.length < self.nbound]
        self.basis = tuple(basis_paths)
        self._bindex = {p: i for i, p in enumerate(self.basis)}
        dim = len(self.basis)
        self.dim = dim
        zero = f.zero()

        nf = {}
        for p in paths:
            col = index[p]
            if col in pivot_of:
                row = self._rows[pivot_of[col]]
                vec = [zero] * dim
                for q, j in self._bindex.items():
                    c = row[index[q]]
                    if c != zero:
                        vec[j] = f.neg(c)
                nf[p] = tuple(vec)
            elif p.length >= self.nbound:
                # non-pivot long path: only admissible if it never occurs
                nf[p] = None
            else:
                vec = [zero] * dim
                vec[self._bindex[p]] = f.one()
                nf[p] = tuple(vec)
        # admissibility: every path of length N must reduce to zero
        for p in by_len[self.nbound]:
            v = nf[p]
            if v is None or any(c != zero for c in v):
                raise NotAdmissible(
                    f"path {p} of length {self.nbound} is nonzero modulo the relations")
        self._nf = nf
        self._projectives = {}
        self._projective_sums = {}  # _projective_sum, by tuple of piece vertices
        self._path_algebras = {}  # repcat.path_algebra_over, by quiver
        self._sc = None  # sc_of_bqa, built once
        self._vertex_paths = {v: [p for p in self.basis if p.source == v] for v in self.quiver.vertices}

    # -- structure ---------------------------------------------------------
    def path_nf(self, p: Path):
        """Normal-form coefficient vector of a path (zero if length > bound)."""
        got = self._nf.get(p)
        if got is not None:
            return got
        return (self.field.zero(),) * self.dim

    def product(self, i: int, j: int):
        """b_i * b_j in function-composition order (b_j acts first)."""
        p, q = self.basis[i], self.basis[j]
        if p.source != q.target or p.length + q.length > self.nbound:
            return (self.field.zero(),) * self.dim
        return self.path_nf(concat(q, p))

    def unit_vector(self):
        f = self.field
        vec = [f.zero()] * self.dim
        for v in self.quiver.vertices:
            vec[self._bindex[trivial_path(v)]] = f.one()
        return tuple(vec)

    def idempotent_vector(self, v: str):
        at = self._bindex.get(trivial_path(str(v)))
        if at is None:
            raise UnknownVertex(f"unknown vertex {v}")
        f = self.field
        vec = [f.zero()] * self.dim
        vec[at] = f.one()
        return tuple(vec)

    def radical_indices(self):
        return [i for i, p in enumerate(self.basis) if p.length >= 1]

    def is_semisimple(self) -> bool:
        return not self.radical_indices()

    def opposite(self) -> "BQA":
        qop = make_quiver(self.quiver.vertices,
                          [(a.name, a.target, a.source) for a in self.quiver.arrows],
                          require_acyclic=False)
        rels = []
        for rel in self.relations:
            rels.append([(c, Path(p.target, p.source, tuple(reversed(p.arrows)))) for c, p in rel])
        return BQA(self.field, qop, rels, self.nbound, name=self.name + "^op")

    def __repr__(self):
        return f"BQA({self.name or 'algebra'}, dim={self.dim})"


def build_bqa(field: Field, quiver: Quiver, relations, nbound: int, name: str = "") -> BQA:
    return BQA(field, quiver, relations, nbound, name=name)


def path_algebra(field: Field, quiver: Quiver, name: str = "") -> BQA:
    """Hereditary path algebra of an acyclic quiver (no relations)."""
    if not quiver.acyclic:
        raise QuivhomError("path_algebra requires an acyclic quiver; use build_bqa with relations")
    return BQA(field, quiver, [], longest_path(quiver) + 1, name=name)


def ground_field_algebra(field: Field, name: str = "k") -> BQA:
    return BQA(field, single_vertex(), [], 1, name=name)


# ---------------------------------------------------------------------------
# modules


@dataclass
class AlgMod:
    """Left module over a BQA, stored vertexwise: a natural number per
    vertex, and per arrow a matrix of the matching shape over the algebra's
    field (else ``DimensionMismatch`` or ``AlgebraMismatch``)."""

    algebra: BQA
    dims: dict
    mats: dict

    def __post_init__(self):
        q = self.algebra.quiver
        f = self.algebra.field
        dims = {v: self.dims.get(v, 0) for v in q.vertices}
        if not self.dims.keys() <= dims.keys():
            raise UnknownVertex(f"unknown vertices {sorted(self.dims.keys() - dims.keys(), key=str)}")
        for v, d in dims.items():
            if not isinstance(d, int) or d < 0:
                raise DimensionMismatch(f"vertex {v}: dimension {d!r} is not a natural number")
        self.dims = dims
        mats, missing = {}, 0
        for a in q.arrows:
            m = self.mats.get(a.name)
            if m is None:
                m = Mat.zeros(f, dims[a.target], dims[a.source])
                missing += 1
            try:
                shape = (m.rows, m.cols)
            except AttributeError:
                raise DimensionMismatch(f"arrow {a.name}: a {type(m).__name__} is no Mat") from None
            if shape != (dims[a.target], dims[a.source]):
                raise DimensionMismatch(f"arrow {a.name}: matrix shape {m.rows}x{m.cols}")
            if m.field is not f and m.field != f:
                raise AlgebraMismatch(f"arrow {a.name}: matrix over {m.field}, not the algebra's {f}")
            mats[a.name] = m
        # every key is known when they number the entries found; otherwise (an
        # unknown key, or one mapped to None) the keys themselves are tested
        if len(self.mats) + missing != len(mats) and not self.mats.keys() <= mats.keys():
            raise QuivhomError(f"unknown arrows {sorted(self.mats.keys() - mats.keys(), key=str)}")
        self.mats = mats

    def dim_total(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.dim_total() == 0

    def check_relations(self) -> bool:
        A = self.algebra
        for rel in A.relations:
            src = rel[0][1].source
            tgt = rel[0][1].target
            acc = Mat.zeros(A.field, self.dims[tgt], self.dims[src])
            for c, p in rel:
                acc = acc.add(eval_path(self, p).scale(c))
            if not acc.is_zero():
                return False
        # the truncation bound must also act as zero
        for p in _paths_up_to(A.quiver, A.nbound)[A.nbound]:
            if not eval_path(self, p).is_zero():
                return False
        return True


def eval_path(m: AlgMod, p: Path) -> Mat:
    f = m.algebra.field
    out = Mat.identity(f, m.dims[p.source])
    for a in p.arrows:
        out = m.mats[a].mul(out)
    return out


@dataclass
class ModMap:
    source: AlgMod
    target: AlgMod
    mats: dict

    def __post_init__(self):
        q = self.source.algebra.quiver
        f = self.source.algebra.field
        mats, missing = {}, 0
        for v in q.vertices:
            m = self.mats.get(v)
            if m is None:
                m = Mat.zeros(f, self.target.dims[v], self.source.dims[v])
                missing += 1
            try:
                shape = (m.rows, m.cols)
            except AttributeError:
                raise DimensionMismatch(f"vertex {v}: a {type(m).__name__} is no Mat") from None
            if shape != (self.target.dims[v], self.source.dims[v]):
                raise DimensionMismatch(f"vertex {v}: map shape {m.rows}x{m.cols}")
            if m.field is not f and m.field != f:
                raise AlgebraMismatch(f"vertex {v}: block over {m.field}, not the algebra's {f}")
            mats[v] = m
        # every key is known when they number the entries found; otherwise (an
        # unknown key, or one mapped to None) the keys themselves are tested
        if len(self.mats) + missing != len(mats) and not self.mats.keys() <= mats.keys():
            raise UnknownVertex(f"unknown vertices {sorted(self.mats.keys() - mats.keys(), key=str)}")
        self.mats = mats

    def is_valid(self) -> bool:
        return _is_linear(self.source, self.target, self.mats)

    def compose(self, other: "ModMap") -> "ModMap":
        """self o other."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise AlgebraMismatch("composition shape mismatch")
        return ModMap(other.source, self.target,
                      {v: self.mats[v].mul(other.mats[v]) for v in self.mats})

    def add(self, other: "ModMap") -> "ModMap":
        return ModMap(self.source, self.target,
                      {v: self.mats[v].add(other.mats[v]) for v in self.mats})

    def scale(self, c) -> "ModMap":
        return ModMap(self.source, self.target, {v: m.scale(c) for v, m in self.mats.items()})

    def flatten(self):
        out = []
        for v in self.source.algebra.quiver.vertices:
            out.extend(self.mats[v].entries)
        return out

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())


def _is_linear(s: AlgMod, t: AlgMod, mats) -> bool:
    """The blocks ``mats``, one per vertex, commute with every arrow: the
    equations of a module map s -> t.  Both sides of the equation of an
    arrow a are t_{t(a)} x s_{s(a)} matrices, so it holds, unchecked, when
    t_{t(a)} or s_{s(a)} is zero."""
    sd, td = s.dims, t.dims
    for a in s.algebra.quiver.arrows:
        if td[a.target] and sd[a.source] and \
                mats[a.target].mul(s.mats[a.name]) != t.mats[a.name].mul(mats[a.source]):
            return False
    return True


def identity_map(m: AlgMod) -> ModMap:
    f = m.algebra.field
    return ModMap(m, m, {v: Mat.identity(f, d) for v, d in m.dims.items()})


def zero_map(src: AlgMod, dst: AlgMod) -> ModMap:
    return ModMap(src, dst, {})


def zero_module(a: BQA) -> AlgMod:
    return AlgMod(a, {}, {})


def sum_mods(a: BQA, mods) -> AlgMod:
    """The direct sum of modules, summand after summand at every vertex."""
    mods = list(mods)
    if not mods:
        return zero_module(a)
    f = a.field
    dims = {v: sum(m.dims[v] for m in mods) for v in a.quiver.vertices}
    mats = {arr.name: Mat.block_diag(f, [m.mats[arr.name] for m in mods]) for arr in a.quiver.arrows}
    return AlgMod(a, dims, mats)


def summand_maps(total: AlgMod, mods):
    """(injs, projs) of ``total``, the direct sum of ``mods``: unit blocks
    at every vertex."""
    units = {v: Mat.summand_units(total.algebra.field, [m.dims[v] for m in mods])
             for v in total.dims}
    injs = [ModMap(m, total, {v: u[k][0] for v, u in units.items()}) for k, m in enumerate(mods)]
    projs = [ModMap(total, m, {v: u[k][1] for v, u in units.items()}) for k, m in enumerate(mods)]
    return injs, projs


def direct_sum_mods(a: BQA, mods):
    """``sum_mods`` with its injections and projections: read only by the
    benchmark's input builder, and kept until it calls ``sum_mods``."""
    mods = list(mods)
    total = sum_mods(a, mods)
    return (total, *summand_maps(total, mods))


def hom_basis(m: AlgMod, n: AlgMod):
    """Basis of Hom over the common algebra, as a list of ModMaps."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules over different algebras")
    a = m.algebra
    verts = a.quiver.vertices
    index = {v: i for i, v in enumerate(verts)}
    shapes = [(n.dims[v], m.dims[v]) for v in verts]
    # phi_w . m_a = n_a . phi_u for every arrow a: u -> w
    rows = _commuting_rows(a.field, shapes, [
        (index[arr.target], m.mats[arr.name], index[arr.source], n.mats[arr.name])
        for arr in a.quiver.arrows])
    return [ModMap(m, n, dict(zip(verts, blocks)))
            for blocks in _kernel_blocks(a.field, rows, shapes)]


def hom_dim(m: AlgMod, n: AlgMod) -> int:
    return len(hom_basis(m, n))


# -- distinguished modules ---------------------------------------------------

def simple_module(a: BQA, v: str) -> AlgMod:
    return AlgMod(a, {str(v): 1}, {})


def projective_module(a: BQA, v: str) -> AlgMod:
    """Indecomposable projective at v: basis paths leaving v.

    Built once per algebra and vertex; the result is shared, so callers must
    not mutate it."""
    v = str(v)
    got = a._projectives.get(v)
    if got is not None:
        return got
    if v not in a._vertex_paths:
        raise UnknownVertex(f"unknown vertex {v}")
    plists = {w: [p for p in a._vertex_paths[v] if p.target == w] for w in a.quiver.vertices}
    dims = {w: len(plists[w]) for w in a.quiver.vertices}
    f = a.field
    mats = {}
    for arr in a.quiver.arrows:
        src_list = plists[arr.source]
        dst_list = plists[arr.target]
        dst_index = {p: i for i, p in enumerate(dst_list)}
        cols = []
        for p in src_list:
            vec = a.path_nf(concat(p, arrow_path(arr))) if p.length + 1 <= a.nbound else None
            col = [f.zero()] * len(dst_list)
            if vec is not None:
                for q, bi in a._bindex.items():
                    c = vec[bi]
                    if c != f.zero():
                        col[dst_index[q]] = c
            cols.append(col)
        mats[arr.name] = Mat.from_rows(f, [[cols[j][i] for j in range(len(src_list))]
                                           for i in range(len(dst_list))]) \
            if dst_list else Mat.zeros(f, 0, len(src_list))
    mod = AlgMod(a, dims, mats)
    mod._proj_vertex = v
    mod._proj_paths = plists
    a._projectives[v] = mod
    return mod


def _projective_sum(a: BQA, pieces) -> AlgMod:
    """P = P_(v_1) + ... + P_(v_r), the sum of the indecomposable
    projectives at the vertices ``pieces``, in that order, recording them as
    ``P._pieces``.

    Built once per algebra and tuple of pieces; the result is shared, so
    callers must not mutate it."""
    pieces = tuple(pieces)
    got = a._projective_sums.get(pieces)
    if got is None:
        got = sum_mods(a, [projective_module(a, v) for v in pieces])
        got._pieces = pieces
        a._projective_sums[pieces] = got
    return got


def map_from_projective(p: AlgMod, target: AlgMod, gen_image: Mat) -> ModMap:
    """Unique module map P_v -> target sending the generator e_v to gen_image,
    pushed along P_v's paths (``_push_along_paths``)."""
    v = p._proj_vertex
    if gen_image.cols != 1 or gen_image.rows != target.dims[v]:
        raise DimensionMismatch("generator image must be a column at the generating vertex")
    return ModMap(p, target, _push_along_paths(target, p, gen_image))


def _push_along_paths(m: AlgMod, p: AlgMod, start: Mat):
    """Images of the columns of ``start``, vectors of m at the generating
    vertex of the projective p = P_v, under the basis paths of P_v acting on
    m: per vertex w one matrix, column t * k + i holding path i of the k
    paths ending at w applied to column t.  A path's image is its last arrow
    applied to the image of the path before it, so each prefix is pushed
    once, and only the given columns are.  No image is formed at, or
    through, a vertex where m is zero: such a path's image is zero (None
    in ``pushed``), and so is the block at such a w."""
    f, c, dims = m.algebra.field, start.cols, m.dims
    pushed = {(): start if start.entries else None}
    out = {}
    for w, paths in p._proj_paths.items():
        n = dims[w]
        if not (n and c and paths):
            out[w] = Mat.zeros(f, n, len(paths) * c)
            continue
        zero = (f.zero(),) * (n * c)
        images = [zero if img is None else img.entries
                  for img in (_pushed(m, pushed, q.arrows) for q in paths)]
        cols = [img[t::c] for t in range(c) for img in images]
        out[w] = Mat(f, n, len(cols), tuple(chain.from_iterable(zip(*cols))))
    return out


def _pushed(m: AlgMod, pushed: dict, arrows: tuple):
    """The image under the path ``arrows`` kept in ``pushed`` (see
    ``_push_along_paths``), pushing its prefixes first where they are not
    kept yet; None where it is zero."""
    if arrows in pushed:
        return pushed[arrows]
    before, arr = _pushed(m, pushed, arrows[:-1]), m.mats[arrows[-1]]
    got = pushed[arrows] = arr.mul(before) if before is not None and arr.rows else None
    return got


def injective_indecomposables(a: BQA):
    """One injective per vertex, dual of the opposite projective."""
    aop = a.opposite()
    out = []
    for v in a.quiver.vertices:
        pop = projective_module(aop, v)
        dims = {w: pop.dims[w] for w in a.quiver.vertices}
        mats = {}
        for arr in a.quiver.arrows:
            # arr in Q is reversed in Q^op; dualizing transposes its action
            mats[arr.name] = pop.mats[arr.name].transpose()
        out.append(AlgMod(a, dims, mats))
    return out


# -- submodule machinery ------------------------------------------------------

def column_space(field: Field, mats):
    """Basis matrix (columns) of the joint column space of the given matrices."""
    return _column_basis(field, mats)[0]


def _column_basis(field: Field, mats):
    """(basis, pivots): ``column_space``'s basis, the reduced rows of the
    stacked columns transposed, which is the identity at the rows
    ``pivots``."""
    mats = list(mats)
    n = mats[-1].rows if mats else 0
    red, pivots, _ = _reduced_span(_columns_as_rows(field, n, mats))
    return Mat(field, len(pivots), n, red[:len(pivots) * n]).transpose(), pivots


def _columns_as_rows(field: Field, n: int, mats) -> Mat:
    """The columns of ``mats``, n rows each, as the rows of one matrix."""
    cols = [m.entries[j::m.cols] for m in mats for j in range(m.cols)]
    return Mat(field, len(cols), n, tuple(chain.from_iterable(cols)))


def quotient_by_rows(span: Mat):
    """k^n modulo the row space of ``span`` (r x n, the rows need not be
    independent), read off one rref of ``span``: (proj, lift, free).

    ``free`` lists the non-pivot columns, the coordinates the quotient keeps.
    ``proj`` (len(free) x n) subtracts from v its pivot coordinates times the
    reduced rows and reads the result at ``free``, so proj * span^T = 0: its
    rows are the kernel basis of ``exactlin._null_space``.  ``lift``
    (n x len(free)) holds the unit vectors at ``free``, so proj * lift = I."""
    basis, free = _null_space(span)
    f, n, d = span.field, span.cols, len(free)
    lift = [f.zero()] * (n * d)
    for t, c in enumerate(free):
        lift[c * d + t] = f.one()
    return basis.transpose(), Mat(f, n, d, tuple(lift)), free


def _read_off_units(basis: Mat, units, image: Mat):
    """The X with basis * X = image, for a ``basis`` that is the identity at
    the rows ``units`` (as ``_null_space`` and ``_column_basis`` return
    them): X is those rows of ``image``, unique since basis has full column
    rank.  One product checks the other rows (with no unit rows, a zero
    test of image); None when they disagree, i.e. when image does not lie
    in the span of basis."""
    x = _rows(image, units)
    if not units:
        # basis has no columns: image lies in its span iff it is zero
        return x if image.is_zero() else None
    unit = set(units)
    rest = [i for i in range(basis.rows) if i not in unit]
    if rest and _rows(basis, rest).mul(x) != _rows(image, rest):
        return None
    return x


def _rows(m: Mat, idx) -> Mat:
    """The rows ``idx`` of m."""
    e, w = m.entries, m.cols
    return Mat(m.field, len(idx), w, tuple(chain.from_iterable(e[i * w:(i + 1) * w] for i in idx)))


def _pivot_columns(field: Field, sub: Mat, cand: Mat):
    """Indices j of the columns of ``cand`` independent modulo the span of a
    full-column-rank ``sub`` and of the columns of ``cand`` before j: the
    pivots beyond ``sub`` of rref([sub | cand])."""
    r = sub.cols
    _, _, pivots = rref(Mat.hstack(field, [sub, cand]))
    return [c - r for c in pivots if c >= r]


def radical_submodule(m: AlgMod):
    """Inclusion matrices of rad M = sum of arrow images, per vertex."""
    a = m.algebra
    incl = {}
    for v in a.quiver.vertices:
        images = [m.mats[arr.name] for arr in a.quiver.arrows_into(v)]
        incl[v] = column_space(a.field, images) if images else Mat.zeros(a.field, m.dims[v], 0)
    return incl


def kernel_of(f: ModMap):
    """Kernel submodule with its inclusion map.

    At each vertex the kernel basis (``_null_space``, one rref of f_v) is
    the identity at the non-pivot rows, so each arrow's restriction is read
    off those rows of the arrow applied to the basis (``_read_off_units``).
    Where there is nothing to compute, nothing is: at a vertex where the
    source is zero the kernel is the empty basis, with no null space
    formed, and an arrow whose kernel is zero at its source, or whose
    source module is zero at its target, restricts to the zero block, with
    no product or read-off."""
    a = f.source.algebra
    fld = a.field
    sdims = f.source.dims
    kbases, units = {}, {}
    for v in a.quiver.vertices:
        if sdims[v]:
            kbases[v], units[v] = _null_space(f.mats[v])
        else:
            kbases[v], units[v] = Mat.zeros(fld, 0, 0), []
    dims = {v: kbases[v].cols for v in a.quiver.vertices}
    mats = {}
    for arr in a.quiver.arrows:
        if not (dims[arr.source] and sdims[arr.target]):
            mats[arr.name] = Mat.zeros(fld, dims[arr.target], dims[arr.source])
            continue
        moved = f.source.mats[arr.name].mul(kbases[arr.source])
        x = _read_off_units(kbases[arr.target], units[arr.target], moved)
        if x is None:
            raise QuivhomError("kernel is not arrow-stable; invalid module map")
        mats[arr.name] = x
    k = AlgMod(a, dims, mats)
    incl = ModMap(k, f.source, kbases)
    return k, incl


def quotient_module(m: AlgMod, incl: dict):
    """Quotient of m by the submodule spanned by the columns of per-vertex
    matrices (not necessarily independent), in ``quotient_by_rows``'s
    complement: (M / N, the projection, a linear section of it per vertex).
    The span must be a submodule: proj_t . M_a kills span_s for every arrow
    a: s -> t, else ``QuivhomError``."""
    a = m.algebra
    projs, sects = {}, {}
    for v in a.quiver.vertices:
        projs[v], sects[v], _ = quotient_by_rows(incl[v].transpose())
    dims = {v: projs[v].rows for v in a.quiver.vertices}
    mats = {}
    for arr in a.quiver.arrows:
        p = projs[arr.target].mul(m.mats[arr.name])
        if not p.mul(incl[arr.source]).is_zero():
            raise QuivhomError(f"span is not a submodule: arrow {arr.name} leaves it")
        mats[arr.name] = p.mul(sects[arr.source])
    qm = AlgMod(a, dims, mats)
    qmap = ModMap(m, qm, projs)
    return qm, qmap, sects


def projective_cover(m: AlgMod):
    """Minimal projective cover (P, pi).

    One copy of P_v per unit vector e_j that lifts a basis vector of
    (M/rad M)_v: j runs over the non-pivot columns of one rref of the arrow
    images into v stacked as rows (their row space is rad_v; the complement
    of ``quotient_by_rows``, no radical basis or projection is built).  P_v
    -> M sends e_v to e_j: pi's columns are those unit vectors pushed along
    P_v's paths (``_push_along_paths``, as in ``map_from_projective``).
    P is the algebra's shared ``_projective_sum`` of these pieces."""
    a = m.algebra
    f = a.field
    verts = a.quiver.vertices
    pieces = []
    blocks = {w: [] for w in verts}  # of pi at w, in P's basis order
    for v in verts:
        n = m.dims[v]
        if not n:
            continue
        images = [m.mats[arr.name] for arr in a.quiver.arrows_into(v)]
        chosen = _reduced_span(_columns_as_rows(f, n, images))[2]
        if not chosen:
            continue
        pieces.extend([v] * len(chosen))
        units = [f.zero()] * (n * len(chosen))
        for t, j in enumerate(chosen):
            units[j * len(chosen) + t] = f.one()
        for w, block in _push_along_paths(m, projective_module(a, v),
                                          Mat(f, n, len(chosen), tuple(units))).items():
            blocks[w].append(block)
    total = _projective_sum(a, pieces)
    if not pieces:
        return total, zero_map(total, m)
    return total, ModMap(total, m, {w: Mat.hstack(f, blocks[w]) for w in verts})


def cover_is_minimal(p: AlgMod, pi: ModMap) -> bool:
    """ker pi contained in rad P, checked by column-space ranks."""
    a = p.algebra
    rad = radical_submodule(p)
    k, incl = kernel_of(pi)
    for v in a.quiver.vertices:
        if incl.mats[v].cols == 0:
            continue
        joint = Mat.hstack(a.field, [rad[v], incl.mats[v]])
        if rank(joint) != rank(rad[v]):
            return False
    return True


# -- minimal resolutions -------------------------------------------------------
#
# pd, ext_dims and minimal_resolution read one sequence of syzygy steps
# (P_i, pi_i, K_i, incl_i), ``bounds.syzygy_steps`` with ``projective_cover``
# and ``kernel_of``.  The steps of the most recent module are kept
# in ``_kept``, keyed by content: the algebra object, the dims and copies of
# the arrow matrices, compared with ``==`` (which short-circuits on identical
# Mat objects).  The key holds its own matrices, so a reused id cannot hit,
# a module whose matrix is replaced misses, and equal modules built
# separately hit.  The slot is replaced, never mutated, so a caller that is
# interrupted or races another keeps a consistent list of steps.  Once a
# kernel repeats an earlier one, the later steps are the earlier tuples
# again (``bounds.syzygy_steps``): a tail step is shared with the step one
# period before it, and its pi targets the equal earlier kernel.

_kept = None  # (algebra, dims, mats, steps) of the most recent module


def _kept_steps(m: AlgMod, n: int) -> list:
    """The first n syzygy steps of m (fewer when a kernel is zero before),
    extending the kept steps when they are of a module equal to m, and
    otherwise starting afresh; the result replaces the slot."""
    global _kept
    got, steps = _kept, []
    if got is not None and got[0] is m.algebra and got[1] == m.dims and got[2] == m.mats:
        steps = got[3]
        if len(steps) >= n or steps[-1][2].is_zero():
            return steps
    steps = syzygy_steps(m, list(steps), n, projective_cover, kernel_of)
    _kept = (m.algebra, dict(m.dims), dict(m.mats), steps)
    return steps


def _differentials(steps, n: int):
    """(P_i, d_i, incl_i) for the first n steps: d_0 = pi_0 and
    d_i = incl_{i-1} o pi_i: P_i -> P_{i-1}."""
    return [(p, steps[i - 1][3].compose(pi) if i else pi, incl)
            for i, (p, pi, _, incl) in enumerate(steps[:n])]


def pd(m: AlgMod, cap: int = 20) -> Dim:
    """Projective dimension by minimal syzygies, capped (``bounds.syzygy_pd``).

    Reads and extends the kept syzygy steps (see ``_kept``), so a later
    ``ext_dims`` or ``minimal_resolution`` of an equal module builds no
    cover again; one module's steps stay in memory until the next call.
    A periodic resolution is built up to its first repeated kernel only,
    whatever the cap."""
    return syzygy_pd(m, cap, lambda n: _kept_steps(m, n))


def gldim(a: BQA, cap: int = 20) -> Dim:
    """Global dimension, capped: the projective dimension of A/J, the sum of
    the simples (one at each vertex, every arrow acting by zero), in one
    resolution.  gl.dim A = pd(A/J) (Auslander 1955), and the minimal
    resolution of a sum is the sum of the minimal resolutions, so this is
    the largest pd of a simple, capped answers included."""
    return pd(AlgMod(a, {v: 1 for v in a.quiver.vertices}, {}), cap)


def minimal_resolution(m: AlgMod, length: int):
    """[(P_0, d_0), (P_1, d_1), ...] with d_0: P_0 -> M, d_i: P_i -> P_{i-1},
    up to length + 1 terms, ending at the first zero kernel.  A length that
    is no int >= 0 raises ``QuivhomError``.

    The terms are read off the kept syzygy steps shared with ``pd`` and
    ``ext_dims`` (see ``_kept``): the P_i and d_0 may be the objects an
    earlier call returned, and d_0's target may be an equal module built
    earlier, so they must not be mutated.  In a periodic tail a term is the
    P_i of one period before, and d_i is incl_(i-1) composed with that
    step's pi, which targets a kernel equal to K_(i-1)."""
    check_natural("length", length)
    return [(p, d) for p, d, _ in _resolution(m, length)]


def _resolution(m: AlgMod, length: int):
    """Up to length + 1 steps (P_i, d_i, K_i -> P_i) off the kept syzygy
    steps; stops at the first zero kernel K_i."""
    return _differentials(_kept_steps(m, length + 1), length + 1)


def ext_dims(m: AlgMod, s: AlgMod, upto: int):
    """dim Ext^i(M, S) for 0 <= i <= upto, from Hom(P_., S) cochain ranks.

    S must be a module over M's algebra (``AlgebraMismatch``) and upto an
    int >= 0 (``QuivhomError``); both are checked before anything is built.
    The resolution is read off the kept syzygy steps shared with ``pd`` and
    ``minimal_resolution`` (see ``_kept``)."""
    if s.algebra is not m.algebra:
        raise AlgebraMismatch("modules over different algebras")
    check_natural("upto", upto)
    return _ext_dims(_resolution(m, upto + 1), s, upto)


def _ext_dims(res, n: AlgMod, upto: int):
    """``ext_dims`` over a given resolution: steps (P_i, d_i, ...) of M, at
    least upto + 2 of them unless it stops at a zero kernel.

    No hom basis is solved: Hom(P_i, N) is read off the pieces of P_i
    (``_pieces``, see ``_projective_sum``) as the sum of e_(v_k) N over its
    pieces P_(v_k), the basis map (k, x) sending the generator of piece k
    to the basis vector x of N at v_k.  delta_i(b) = b o d_(i+1) is
    computed from d_(i+1), never assumed zero.  b o d_(i+1) sends a
    generator of P_(i+1) at u to b applied to d_(i+1)'s column there, whose
    entries in piece k are coefficients of the paths of P_(v_k) ending at u,
    and b sends the path q to q acting on x.  So at each u one product, of
    the paths acting on N (``_push_along_paths``, once per vertex v_k) by
    the generator columns of d_(i+1) at u, holds every basis map's values
    on those generators.  Only ranks are read, so the rows and columns of
    each delta_i may come in any fixed order."""
    a, f = n.algebra, n.algebra.field
    verts = a.quiver.vertices
    acting = {}

    def paths_on(v):
        """Per vertex u the paths of P_v ending at u acting on N_v: row
        x * dim N_u + z, column i holds coordinate z of path i applied to
        the basis vector x of N_v."""
        got = acting.get(v)
        if got is None:
            nv, pv = n.dims[v], projective_module(a, v)
            got = acting[v] = {}
            for u, blk in _push_along_paths(n, pv, Mat.identity(f, nv)).items():
                # blk has column x * k + i for path i of the k ending at u
                e, k = blk.entries, pv.dims[u]
                got[u] = Mat(f, nv * n.dims[u], k, tuple(chain.from_iterable(
                    e[(z * nv + x) * k:(z * nv + x + 1) * k]
                    for x in range(nv) for z in range(n.dims[u]))))
        return got

    def generators(p):
        """Per vertex u the coordinates of P's generators at u."""
        at, off = {u: [] for u in verts}, dict.fromkeys(verts, 0)
        for v in p._pieces:
            pv = projective_module(a, v)
            at[v].append(off[v] + pv._proj_paths[v].index(trivial_path(v)))
            for u in verts:
                off[u] += pv.dims[u]
        return at

    homs = [sum(n.dims[v] for v in res[i][0]._pieces) if i < len(res) else 0
            for i in range(upto + 2)]
    ranks = []
    for i in range(upto + 1):
        if not (homs[i] and homs[i + 1]):
            ranks.append(0)
            continue
        p, d = res[i][0], res[i + 1][1]
        parts = []
        for u, gens in generators(res[i + 1][0]).items():
            if not (gens and n.dims[u]):
                continue
            dm = d.mats[u]
            g = Mat(f, dm.rows, len(gens), tuple(dm.entries[r * dm.cols + c]
                                                 for r in range(dm.rows) for c in gens))
            w = Mat.block_diag(f, [paths_on(v)[u] for v in p._pieces]).mul(g)
            # rows (k, x, z), the values of basis map (k, x): one row each
            parts.append(Mat(f, homs[i], n.dims[u] * len(gens), w.entries))
        ranks.append(rank(Mat.hstack(f, parts)) if parts else 0)
    return [homs[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(upto + 1)]


def pd_via_ext(m: AlgMod, cap: int = 20) -> Dim:
    """Independent oracle: pd = max { i : Ext^i(M, S) != 0 for some simple }.

    Builds its own syzygy steps in a fresh list: it neither reads nor
    replaces the steps ``pd`` keeps, so it checks ``pd`` against a
    resolution of its own.  The Ext dimensions are cochain ranks of
    Hom(P_., S), each delta computed from its differential (``_ext_dims``)."""
    check_natural("cap", cap)
    if m.is_zero():
        return Dim.finite(0)
    a = m.algebra
    res = _differentials(syzygy_steps(m, [], cap + 1, projective_cover, kernel_of), cap + 1)
    # finite within the cap iff a kernel came out zero by step cap; a
    # finite resolution ends there, so no later step is needed for Ext
    if not res[-1][2].source.is_zero():
        return Dim.at_least(cap)
    best = 0
    for v in a.quiver.vertices:
        s = simple_module(a, v)
        exts = _ext_dims(res, s, min(cap, len(res)))
        for i, e in enumerate(exts):
            if e != 0:
                best = max(best, i)
    return Dim.finite(best)


# ---------------------------------------------------------------------------
# structure-constant algebras


class SCAlgebra:
    """Associative algebra given by structure constants on an explicit basis.

    The table is kept in one form, its sparse terms: ``_terms[i][j]`` lists
    the pairs (k, c), c != 0 and k increasing, with b_i * b_j = sum of
    c b_k.  ``SCAlgebra(field, mult, unit, idempotents, radical)`` takes a
    dense table mult[i][j][k] and converts it once; the library's own
    tables (``sc_of_bqa``, ``endo.end_algebra`` and its sub-tables, the
    triangular rings of ``trimat``) are handed their terms (``_of_terms``).
    The dense ``mult`` is a view, built from the terms when first read and
    kept; only the checks read it (``validate``, ``SCModule.check``,
    ``Bimodule.check``).  Neither form is ever mutated.

    Construction checks the shape: a dim x dim x dim table, or terms whose
    indices lie in range(dim), and a unit and idempotents of dim coordinates
    (else ``DimensionMismatch``).  Given idempotents must be orthogonal
    idempotents summing to the unit (n^2 products).  A table handed its
    Peirce grading (``_of_terms`` with ``peirce``: E, its corners and Sigma)
    is checked against it, b*e_i = b and e_j*b = b for b at (j, i), 2 dim
    products (``_grade_by``, ``NotSplit`` when a grade is wrong); with the
    idempotent axioms and the associativity of the library's tables these
    give 1*b = b*1 = b, so the unit axiom is not checked again.  Every other
    table has its unit checked on each basis element (2 dim products).
    Associativity is checked only by :meth:`validate` (dim^3 products), for
    tables built by hand: the library's own are associative by construction.

    Products run over the nonzero coordinates of their operands and the
    nonzero terms they meet (``_product``).
    """

    def __init__(self, field: Field, mult, unit, idempotents=None, radical=None):
        rows = [[tuple(v) for v in row] for row in mult]
        n = len(rows)
        if any(len(row) != n or any(len(v) != n for v in row) for row in rows):
            raise DimensionMismatch(f"structure constants of dimension {n} need a {n}x{n}x{n} table")
        self._set(field, [[tuple((k, c) for k, c in enumerate(v) if c) for v in row] for row in rows],
                  unit, idempotents, radical, None)

    @classmethod
    def _of_terms(cls, field: Field, terms, unit, idempotents=None, radical=None,
                  peirce=None) -> "SCAlgebra":
        """The algebra of the sparse ``terms`` (rows of dim tuples of pairs
        (k, c), c != 0, k increasing), checked as the class docstring says;
        with ``peirce``, the grade (j, i) of each basis element, it is
        checked against that grading in place of the unit axiom."""
        return cls.__new__(cls)._set(field, terms, unit, idempotents, radical, peirce)

    def _set(self, field: Field, terms, unit, idempotents, radical, peirce) -> "SCAlgebra":
        self.field = field
        self._terms = tuple(tuple(row) for row in terms)
        n = self.dim = len(self._terms)
        self.unit = tuple(unit)
        self.idempotents = tuple(tuple(e) for e in idempotents) if idempotents is not None else None
        if any(len(row) != n for row in self._terms) or \
                any(not 0 <= k < n for row in self._terms for t in filter(None, row) for k, _ in t):
            raise DimensionMismatch(f"structure constants of dimension {n} need indices in range({n})")
        for name, vec in (("unit", self.unit), *(("idempotent", e) for e in self.idempotents or ())):
            if len(vec) != n:
                raise DimensionMismatch(f"{name} has {len(vec)} coordinates, not the dimension {n}")
        self.known_radical = tuple(tuple(r) for r in radical) if radical is not None else None
        # one shared zero: products then compare equal by identity where zero
        self._zero = field.zero()
        self._coldata = None  # built once by scmodule.column_data
        self._radical = None  # the trace-form radical, built once by scmodule.radical_of
        self._gradings = None  # kept by _keep_gradings
        if peirce is None:
            one, unit = field.one(), self._support(self.unit)
            for b in range(n):
                unit_b = ((b, one),)
                if _nonzero(self._product(unit, unit_b)) != {b: one} or \
                        _nonzero(self._product(unit_b, unit)) != {b: one}:
                    raise CompositionInconsistent("unit axiom fails")
        if self.idempotents is not None:
            total = [field.zero()] * n
            for a, e in enumerate(self.idempotents):
                for b, e2 in enumerate(self.idempotents):
                    prod = self.multiply(e, e2)
                    if a == b and prod != e:
                        raise CompositionInconsistent("idempotent axiom fails")
                    if a != b and any(prod):
                        raise CompositionInconsistent("idempotents not orthogonal")
                total = [field.add(x, y) for x, y in zip(total, e)]
            if tuple(total) != self.unit:
                raise CompositionInconsistent("idempotents do not sum to the unit")
        if peirce is not None:
            self._grade_by(peirce)
        return self

    @cached_property
    def mult(self):
        """The dense table, mult[i][j][k]: a view of the terms, built when
        first read and kept."""
        zero, n = self._zero, self.dim
        out = []
        for row in self._terms:
            dense = []
            for t in row:
                v = [zero] * n
                for k, c in t:
                    v[k] = c
                dense.append(tuple(v))
            out.append(tuple(dense))
        return tuple(out)

    @staticmethod
    def _support(vec):
        """The pairs (i, vec[i]) with vec[i] != 0, found at C speed."""
        return [(i, vec[i]) for i in compress(range(len(vec)), vec)]

    def _product(self, xs, ys) -> dict:
        """x*y for x and y given by their nonzero pairs (i, x_i): {k: c} over
        the coordinates k that a term reaches (c may cancel to zero).  Only
        the terms of the pairs (i, j) with x_i and y_j nonzero are read."""
        terms, p, zero = self._terms, self.field.p, self._zero
        out = {}
        get = out.get
        for i, xi in xs:
            row = terms[i]
            for j, yj in ys:
                t = row[j]
                if not t:
                    continue
                c = xi * yj
                if p is None:
                    for k, m in t:
                        out[k] = get(k, zero) + c * m
                else:
                    c %= p
                    for k, m in t:
                        out[k] = (get(k, zero) + c * m) % p
        return out

    def multiply(self, x, y):
        """x*y of two coordinate vectors, over their nonzero coordinates."""
        out = [self._zero] * self.dim
        for k, c in self._product(self._support(x), self._support(y)).items():
            out[k] = c
        return tuple(out)

    def _grade_by(self, peirce):
        """Check and keep the Peirce grading the table was built with: basis
        element b lies in e_j Gamma e_i for (j, i) = peirce[b].  Two products
        per basis element are checked, b*e_i = b and e_j*b = b; the other
        2n - 2 vanish, since b*e_k = b*e_i*e_k = 0 and e_k*b = e_k*e_j*b = 0
        for k != i, resp. k != j, by the orthogonality checked at
        construction and the associativity that the library's tables
        (``endo.end_algebra`` and its sub-tables) have by construction.  A
        wrong grade raises ``NotSplit`` and keeps nothing."""
        peirce, one = tuple(peirce), self.field.one()
        idems = [self._support(e) for e in self.idempotents or ()]
        if len(peirce) != self.dim:
            raise NotSplit(f"{len(peirce)} grades for {self.dim} basis elements")
        for b, (j, i) in enumerate(peirce):
            unit_b = ((b, one),)
            if not (0 <= i < len(idems) and 0 <= j < len(idems)) or \
                    _nonzero(self._product(unit_b, idems[i])) != {b: one} or \
                    _nonzero(self._product(idems[j], unit_b)) != {b: one}:
                raise NotSplit(f"basis element {b} does not lie in e_{j} Gamma e_{i}")
        self._keep_gradings(peirce)

    def _keep_gradings(self, peirce):
        """Keep (peirce, one, n), read by ``scmodule._gradings``: ``one``
        puts every basis element at (0, 0), and with one idempotent peirce
        is one."""
        one = ((0, 0),) * self.dim
        n = 1 if self.idempotents is None else len(self.idempotents)
        self._gradings = (one if peirce is not None and n == 1 else peirce, one, n)

    def validate(self):
        """Associativity on every triple of basis elements."""
        basis = [tuple(b) for b in Mat.identity(self.field, self.dim).row_list()]
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult[i][j]
                for k in range(self.dim):
                    lhs = self.multiply(ij, basis[k])
                    rhs = self.multiply(basis[i], self.mult[j][k])
                    if lhs != rhs:
                        raise CompositionInconsistent(f"associativity fails at basis triple ({i},{j},{k})")

    def __repr__(self):
        return f"SCAlgebra(dim={self.dim})"


def _nonzero(prod: dict) -> dict:
    """The coordinates of a ``SCAlgebra._product`` that did not cancel."""
    return {k: c for k, c in prod.items() if c}


def sc_of_bqa(a: BQA) -> SCAlgebra:
    """Structure-constant view of a bound quiver algebra, built once per
    algebra (modules over it compare their algebras by identity); the
    result is shared, so callers must not mutate it."""
    if a._sc is not None:
        return a._sc
    f = a.field
    support = SCAlgebra._support
    terms = [[tuple(support(a.product(i, j))) for j in range(a.dim)] for i in range(a.dim)]
    idems = [a.idempotent_vector(v) for v in a.quiver.vertices]
    rad = []
    for i in a.radical_indices():
        vec = [f.zero()] * a.dim
        vec[i] = f.one()
        rad.append(tuple(vec))
    a._sc = SCAlgebra._of_terms(f, terms, a.unit_vector(), idempotents=idems, radical=rad)
    return a._sc


def _is_nilpotent(sc: SCAlgebra, vecs) -> bool:
    """Whether the span of ``vecs`` is nilpotent: its powers, each reduced to a
    row basis, reach zero within dim + 1 steps.  Products run over the
    nonzero coordinates of their factors."""
    n, zero = sc.dim, sc._zero
    gens = [sc._support(v) for v in vecs]
    layer = gens
    for _ in range(n + 1):
        if not layer:
            break
        nxt = []
        for xs in layer:
            for ys in gens:
                p = sc._product(xs, ys)
                if any(p.values()):
                    row = [zero] * n
                    for k, c in p.items():
                        row[k] = c
                    nxt.append(row)
        red, pivots, _ = _reduced_span(Mat(sc.field, len(nxt), n, tuple(chain.from_iterable(nxt))))
        layer = [sc._support(red[i * n:(i + 1) * n]) for i in range(len(pivots))]
    return not layer


def radical_sc(sc: SCAlgebra):
    """Jacobson radical via the trace form of the regular representation,
    in characteristic 0 or p > dim A.

    The fallback for structure-constant algebras built without a radical, and
    the independent oracle for the radicals that ``sc_of_bqa`` and
    ``endo.end_algebra`` attach.  It reads the table only, never
    ``known_radical``.  The trace form is summed over the nonzero terms:
    dim times the number of nonzero structure constants field operations.

    The kernel T of (a, b) -> tr(L_a L_b) is a two-sided ideal that holds
    rad A.  For a in T and 1 <= k <= dim A, tr(L_a^k) = tr(L_a L_(a^(k-1)))
    = 0, and Newton's identities, which divide by k, make L_a nilpotent when
    k is invertible up to dim A: in characteristic 0 or p > dim A, T is a
    nil ideal, hence rad A.  For p <= dim A the kernel can be larger (kA2
    over GF(2): dim 2 against a radical of dim 1), and the char-p radical
    algorithms (Ronyai 1990; Cohen-Ivanyos-Wales 1997) are not implemented:
    ``CharPNotSupported``.  The nilpotency check runs in every case.
    """
    f = sc.field
    n = sc.dim
    if f.p is not None and f.p <= n:
        raise CharPNotSupported(f"trace-form radical needs characteristic 0 or p > dim A: "
                                f"p = {f.p}, dim A = {n}")
    # T[i][j] = trace(L_i L_j) = sum_{l,k} mult[i][l][k] * mult[j][k][l]: the
    # sum of c * d over the terms (k, c) of (i, l) whose (j, k) has a term
    # (l, d), in the order of l, then k
    at = [{(l, k): c for l, t in enumerate(row) for k, c in t} for row in sc._terms]
    rows = []
    for i in range(n):
        pairs = [(l, k, c) for l, t in enumerate(sc._terms[i]) for k, c in t]
        row = []
        for j in range(n):
            acc, get = f.zero(), at[j].get
            for l, k, c in pairs:
                d = get((k, l))
                if d:
                    acc = f.add(acc, f.mul(c, d))
            row.append(acc)
        rows.append(row)
    t = Mat.from_rows(f, rows) if n else Mat.zeros(f, 0, 0)
    ker, free = _null_space(t)
    rad = [ker.entries[j::len(free)] for j in range(len(free))]
    if not _is_nilpotent(sc, rad):
        raise CompositionInconsistent("trace-form kernel is not nilpotent")
    return rad
