"""Representations of an acyclic quiver in the modules of a base algebra.

``Rep(Q, Lambda)`` is equivalent to the module category of the path algebra
``Lambda Q``; objects carry one base-algebra module per vertex and one module
map per arrow.  The evaluation functor at a vertex has explicit left and right
adjoints (sums of copies indexed by paths), and the canonical presentation

    0 -> sum_a e^{t(a)}_lambda(X_{s(a)}) -> sum_v e^v_lambda(X_v) -> X -> 0

is constructed with verified exactness and a vertexwise splitting of the epi.
Minimal covers, projective dimension and the global dimension of the path
algebra are computed from the radical formula
rad(X)_v = rad(X_v) + sum of incoming arrow images.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from .algebra import AlgMod, BQA, ModMap
from .bounds import Dim, dim_max, syzygy_pd
from .errors import AlgebraMismatch, QuivhomError, UnknownVertex
from .exactlin import Mat, _commuting_rows, _kernel_blocks, rank, solve_matrix
from .quiver import Path, Quiver, arrow_path, concat, paths_between, trivial_path


@dataclass
class Rep:
    quiver: Quiver
    algebra: BQA
    mods: dict
    maps: dict

    def __post_init__(self):
        if not self.quiver.acyclic:
            raise QuivhomError("representations require an acyclic quiver")
        mods = {}
        for v in self.quiver.vertices:
            m = self.mods.get(v)
            if m is None:
                m = alg.zero_module(self.algebra)
            mods[v] = m
        self.mods = mods
        maps = {}
        for a in self.quiver.arrows:
            f = self.maps.get(a.name)
            if f is None:
                f = alg.zero_map(mods[a.source], mods[a.target])
            maps[a.name] = f
        self.maps = maps

    def dim_total(self) -> int:
        return sum(m.dim_total() for m in self.mods.values())

    def dim_vector(self):
        return {v: self.mods[v].dim_total() for v in self.quiver.vertices}

    def is_zero(self) -> bool:
        return self.dim_total() == 0

    def check(self) -> bool:
        return all(self.maps[a.name].is_valid() for a in self.quiver.arrows) and \
            all(m.check_relations() for m in self.mods.values())


@dataclass
class RepMap:
    source: Rep
    target: Rep
    mats: dict  # vertex -> ModMap

    def __post_init__(self):
        mats = {}
        for v in self.source.quiver.vertices:
            f = self.mats.get(v)
            if f is None:
                f = alg.zero_map(self.source.mods[v], self.target.mods[v])
            mats[v] = f
        self.mats = mats

    def is_valid(self) -> bool:
        for a in self.source.quiver.arrows:
            lhs = self.mats[a.target].compose(self.source.maps[a.name])
            rhs = self.target.maps[a.name].compose(self.mats[a.source])
            if any(lhs.mats[u] != rhs.mats[u] for u in lhs.mats):
                return False
        return all(self.mats[v].is_valid() for v in self.mats)

    def compose(self, other: "RepMap") -> "RepMap":
        return RepMap(other.source, self.target,
                      {v: self.mats[v].compose(other.mats[v]) for v in self.mats})

    def add(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target,
                      {v: self.mats[v].add(other.mats[v]) for v in self.mats})

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target, {v: self.mats[v].scale(c) for v in self.mats})

    def flatten(self):
        out = []
        for v in self.source.quiver.vertices:
            out.extend(self.mats[v].flatten())
        return out

    def is_zero(self) -> bool:
        return all(self.mats[v].is_zero() for v in self.mats)


def identity_repmap(x: Rep) -> RepMap:
    return RepMap(x, x, {v: alg.identity_map(x.mods[v]) for v in x.quiver.vertices})


def zero_repmap(x: Rep, y: Rep) -> RepMap:
    return RepMap(x, y, {})


def rep_zero(q: Quiver, a: BQA) -> Rep:
    return Rep(q, a, {}, {})


def rep_direct_sum(q: Quiver, a: BQA, reps):
    reps = list(reps)
    mods, injm, projm = {}, {}, {}
    for v in q.vertices:
        total, injs, projs = alg.direct_sum_mods(a, [r.mods[v] for r in reps])
        mods[v] = total
        injm[v] = injs
        projm[v] = projs
    maps = {}
    for arr in q.arrows:
        f = a.field
        mats = {u: Mat.block_diag(f, [r.maps[arr.name].mats[u] for r in reps])
                for u in a.quiver.vertices}
        maps[arr.name] = ModMap(mods[arr.source], mods[arr.target], mats)
    total = Rep(q, a, mods, maps)
    injs = [RepMap(r, total, {v: injm[v][i] for v in q.vertices}) for i, r in enumerate(reps)]
    projs = [RepMap(total, r, {v: projm[v][i] for v in q.vertices}) for i, r in enumerate(reps)]
    return total, injs, projs


def path_action(x: Rep, p: Path) -> ModMap:
    """The composite module map X_p : X_{source} -> X_{target} along a path."""
    out = alg.identity_map(x.mods[p.source])
    for a in p.arrows:
        out = x.maps[a].compose(out)
    return out


# -- evaluation and its adjoints ------------------------------------------------

def evaluate(x: Rep, v: str) -> AlgMod:
    v = str(v)
    if v not in x.quiver.vertices:
        raise UnknownVertex(f"unknown vertex {v}")
    return x.mods[v]


def left_adjoint(q: Quiver, v: str, m: AlgMod) -> Rep:
    """e^v_lambda(M): vertex w carries one copy of M per path v ~> w."""
    v = str(v)
    paths = {w: paths_between(q, v, w) for w in q.vertices}
    mods = {w: _copies(m, len(paths[w])) for w in q.vertices}
    ident = alg.identity_map(m)
    maps = {}
    for arr in q.arrows:
        # copy p at the source goes to copy p.arr at the target
        dst_index = {p: j for j, p in enumerate(paths[arr.target])}
        pairs = [(i, dst_index[concat(p, arrow_path(arr))])
                 for i, p in enumerate(paths[arr.source])]
        maps[arr.name] = _copy_map(ident, mods[arr.source], mods[arr.target], pairs)
    rep = Rep(q, m.algebra, mods, maps)
    rep._adjoint = ("lambda", v, m, paths)
    return rep


def right_adjoint(q: Quiver, v: str, m: AlgMod) -> Rep:
    """e^v_rho(M): vertex w carries one copy of M per path w ~> v."""
    v = str(v)
    paths = {w: paths_between(q, w, v) for w in q.vertices}
    mods = {w: _copies(m, len(paths[w])) for w in q.vertices}
    ident = alg.identity_map(m)
    maps = {}
    for arr in q.arrows:
        # copy arr.qq at the source goes to copy qq at the target
        src_index = {p: i for i, p in enumerate(paths[arr.source])}
        pairs = [(src_index[concat(arrow_path(arr), qq)], j)
                 for j, qq in enumerate(paths[arr.target])]
        maps[arr.name] = _copy_map(ident, mods[arr.source], mods[arr.target], pairs)
    rep = Rep(q, m.algebra, mods, maps)
    rep._adjoint = ("rho", v, m, paths)
    return rep


def _copies(m: AlgMod, n: int) -> AlgMod:
    """The direct sum of n copies of m: each arrow acts by kron(I_n, M)."""
    ident = Mat.identity(m.algebra.field, n)
    return AlgMod(m.algebra, {u: n * d for u, d in m.dims.items()},
                  {name: Mat.kron(ident, mat) for name, mat in m.mats.items()})


def _copy_map(g: ModMap, src: AlgMod, dst: AlgMod, pairs) -> ModMap:
    """The map between a sum of copies of g's source and a sum of copies of
    its target that places g from copy i to copy j for each (i, j) in pairs:
    blocks, no products."""
    f = g.source.algebra.field
    mats = {}
    for u, b in g.mats.items():
        cols = src.dims[u]
        ent = [f.zero()] * (dst.dims[u] * cols)
        for i, j in pairs:
            for r in range(b.rows):
                at = (j * b.rows + r) * cols + i * b.cols
                ent[at:at + b.cols] = b.entries[r * b.cols:(r + 1) * b.cols]
        mats[u] = Mat(f, dst.dims[u], cols, tuple(ent))
    return ModMap(src, dst, mats)


def left_adjoint_map(q: Quiver, v: str, src_rep: Rep, dst_rep: Rep, f: ModMap) -> RepMap:
    """e^v_lambda on morphisms: one copy of f per path."""
    return RepMap(src_rep, dst_rep, {
        w: _copy_map(f, src_rep.mods[w], dst_rep.mods[w],
                     [(i, i) for i in range(len(src_rep._adjoint[3][w]))])
        for w in q.vertices})


def adjunction_check(q: Quiver, v: str, m: AlgMod, x: Rep):
    """Dimension equality and the explicit bijection for both adjunctions."""
    v = str(v)
    a = m.algebra
    f = a.field
    el = left_adjoint(q, v, m)
    b_rep = rep_hom_basis(el, x)
    b_mod = alg.hom_basis(m, x.mods[v])
    ident = alg.identity_map(m)
    # the copy of M indexed by the trivial path, included at v
    inj = _copy_map(ident, m, el.mods[v], [(0, el._adjoint[3][v].index(trivial_path(v)))])
    cols = [Mat.column(f, phi.mats[v].compose(inj).flatten()) for phi in b_rep]
    basis_cols = [Mat.column(f, b.flatten()) for b in b_mod]
    lam_ok = len(b_rep) == len(b_mod)
    lam_mat = None
    if lam_ok and b_rep:
        stacked = Mat.hstack(f, basis_cols)
        coords = [solve_matrix(stacked, c) for c in cols]
        if any(c is None for c in coords):
            lam_ok = False
        else:
            lam_mat = Mat.hstack(f, coords)
            lam_ok = rank(lam_mat) == len(b_rep)

    er = right_adjoint(q, v, m)
    b_rep2 = rep_hom_basis(x, er)
    b_mod2 = alg.hom_basis(x.mods[v], m)
    proj = _copy_map(ident, er.mods[v], m, [(er._adjoint[3][v].index(trivial_path(v)), 0)])
    cols2 = [Mat.column(f, proj.compose(psi.mats[v]).flatten()) for psi in b_rep2]
    rho_ok = len(b_rep2) == len(b_mod2)
    rho_mat = None
    if rho_ok and b_rep2:
        stacked2 = Mat.hstack(f, [Mat.column(f, b.flatten()) for b in b_mod2])
        coords2 = [solve_matrix(stacked2, c) for c in cols2]
        if any(c is None for c in coords2):
            rho_ok = False
        else:
            rho_mat = Mat.hstack(f, coords2)
            rho_ok = rank(rho_mat) == len(b_rep2)
    return {
        "lambda_dims": (len(b_rep), len(b_mod)),
        "rho_dims": (len(b_rep2), len(b_mod2)),
        "lambda_ok": lam_ok,
        "rho_ok": rho_ok,
        "lambda_matrix": lam_mat,
        "rho_matrix": rho_mat,
    }


# -- hom spaces -------------------------------------------------------------------

def rep_hom_basis(x: Rep, y: Rep):
    """Basis of natural transformations x -> y (maps of path-algebra modules)."""
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("representations over different base algebras")
    a = x.algebra
    qverts = x.quiver.vertices
    bverts = a.quiver.vertices
    keys = [(v, u) for v in qverts for u in bverts]
    index = {k: i for i, k in enumerate(keys)}
    shapes = [(y.mods[v].dims[u], x.mods[v].dims[u]) for v, u in keys]
    # base-algebra linearity inside each vertex
    constraints = [(index[(v, arr.target)], x.mods[v].mats[arr.name],
                    index[(v, arr.source)], y.mods[v].mats[arr.name])
                   for v in qverts for arr in a.quiver.arrows]
    # naturality across quiver arrows, per base vertex
    constraints += [(index[(arr.target, u)], x.maps[arr.name].mats[u],
                     index[(arr.source, u)], y.maps[arr.name].mats[u])
                    for arr in x.quiver.arrows for u in bverts]
    out = []
    for blocks in _kernel_blocks(a.field, _commuting_rows(a.field, shapes, constraints), shapes):
        mats = {v: ModMap(x.mods[v], y.mods[v],
                          {u: blocks[index[(v, u)]] for u in bverts}) for v in qverts}
        out.append(RepMap(x, y, mats))
    return out


def rep_hom_dim(x: Rep, y: Rep) -> int:
    return len(rep_hom_basis(x, y))


# -- the canonical presentation --------------------------------------------------

@dataclass
class StandardPresentation:
    """0 -> arrows_term -> vertices_term -> target -> 0 with its certificate.

    ``vertex_pieces`` lists e^v_lambda(X_v) per vertex v and ``arrow_pieces``
    lists e^{t(a)}_lambda(X_{s(a)}) per arrow a, in quiver order: the summands
    of ``vertices_term`` and ``arrows_term``, block by block.  A map of
    targets therefore lifts to both terms one piece at a time
    (``left_adjoint_map`` on each piece, placed as a diagonal block).
    """

    arrows_term: Rep
    vertices_term: Rep
    target: Rep
    incl: RepMap
    epi: RepMap
    section: dict  # vertex -> ModMap, a vertexwise right inverse of the epi
    exact: bool
    details: dict
    vertex_pieces: list
    arrow_pieces: list


def standard_presentation(x: Rep) -> StandardPresentation:
    q, a = x.quiver, x.algebra
    f = a.field
    vert_pieces = [left_adjoint(q, v, x.mods[v]) for v in q.vertices]
    b, b_injs, _ = rep_direct_sum(q, a, vert_pieces)
    arrow_pieces = [left_adjoint(q, arr.target, x.mods[arr.source]) for arr in q.arrows]
    asum, _, _ = rep_direct_sum(q, a, arrow_pieces)

    # counit: on the copy of X_v indexed by a path p, act by X_p
    epi = _block_repmap(b, x, vert_pieces, [x], {
        (0, vi): _adjoint_transpose(x, piece) for vi, piece in enumerate(vert_pieces)})

    # inclusion: the piece of arrow a goes by nu_a to the piece of t(a) and
    # by -mu_a to the piece of s(a)
    vindex = {v: i for i, v in enumerate(q.vertices)}
    ident = {v: alg.identity_map(x.mods[v]) for v in q.vertices}
    blocks = {}
    for ai, arr in enumerate(q.arrows):
        piece = arrow_pieces[ai]  # e^{t(a)}_lambda(X_{s(a)})
        target_t = vert_pieces[vindex[arr.target]]  # e^{t(a)}_lambda(X_{t(a)})
        target_s = vert_pieces[vindex[arr.source]]  # e^{s(a)}_lambda(X_{s(a)})
        blocks[(vindex[arr.target], ai)] = left_adjoint_map(
            q, arr.target, piece, target_t, x.maps[arr.name])
        # mu_a: the copy of a path p goes to the copy of a.p
        mu = {}
        for w in q.vertices:
            dst_index = {p: j for j, p in enumerate(target_s._adjoint[3][w])}
            pairs = [(i, dst_index[concat(arrow_path(arr), p)])
                     for i, p in enumerate(piece._adjoint[3][w])]
            mu[w] = _copy_map(ident[arr.source], piece.mods[w], target_s.mods[w], pairs)
        blocks[(vindex[arr.source], ai)] = RepMap(piece, target_s, mu).scale(f.neg(f.one()))
    incl = _block_repmap(asum, b, arrow_pieces, vert_pieces, blocks)

    # vertexwise section of the epi through the trivial-path copies
    section = {}
    for vi, v in enumerate(q.vertices):
        piece = vert_pieces[vi]
        triv = _copy_map(ident[v], x.mods[v], piece.mods[v],
                         [(0, piece._adjoint[3][v].index(trivial_path(v)))])
        section[v] = b_injs[vi].mats[v].compose(triv)

    details = {}
    exact = True
    comp = epi.compose(incl)
    details["epi_after_incl_zero"] = comp.is_zero()
    exact &= details["epi_after_incl_zero"]
    mono_ok = surj_ok = dims_ok = True
    for v in q.vertices:
        for u in a.quiver.vertices:
            mi = incl.mats[v].mats[u]
            me = epi.mats[v].mats[u]
            mono_ok &= rank(mi) == mi.cols
            surj_ok &= rank(me) == me.rows
            dims_ok &= mi.cols + me.rows == mi.rows
    details["incl_mono"] = mono_ok
    details["epi_surjective"] = surj_ok
    details["dimension_count"] = dims_ok
    exact &= mono_ok and surj_ok and dims_ok
    sec_ok = True
    for v in q.vertices:
        check = epi.mats[v].compose(section[v])
        sec_ok &= all(check.mats[u] == ident[v].mats[u] for u in check.mats)
    details["section_identity"] = sec_ok
    exact &= sec_ok
    return StandardPresentation(asum, b, x, incl, epi, section, exact, details,
                                vert_pieces, arrow_pieces)


def _adjoint_transpose(x: Rep, piece: Rep, h: ModMap = None) -> RepMap:
    """The map e^v_lambda(M) -> x adjoint to h : M -> X_v (the identity when
    h is None): the copy of M indexed by a path p acts by X_p o h."""
    a = x.algebra
    m = piece._adjoint[2]
    mats = {}
    for w in x.quiver.vertices:
        acts = [path_action(x, p) if h is None else path_action(x, p).compose(h)
                for p in piece._adjoint[3][w]]
        mats[w] = ModMap(piece.mods[w], x.mods[w], {
            u: Mat.from_blocks(a.field, [x.mods[w].dims[u]], [m.dims[u]] * len(acts),
                               {(0, k): act.mats[u] for k, act in enumerate(acts)})
            for u in a.quiver.vertices})
    return RepMap(piece, x, mats)


def _block_repmap(src: Rep, dst: Rep, src_pieces, dst_pieces, blocks) -> RepMap:
    """The map src -> dst between the direct sums of src_pieces and of
    dst_pieces whose block (i, j) is blocks[(i, j)] : src_pieces[j] ->
    dst_pieces[i]; absent blocks are zero."""
    a = src.algebra
    mats = {}
    for w in src.quiver.vertices:
        mats[w] = ModMap(src.mods[w], dst.mods[w], {
            u: Mat.from_blocks(a.field, [p.mods[w].dims[u] for p in dst_pieces],
                               [p.mods[w].dims[u] for p in src_pieces],
                               {ij: g.mats[w].mats[u] for ij, g in blocks.items()})
            for u in a.quiver.vertices})
    return RepMap(src, dst, mats)


# -- radical, covers, projective dimension ----------------------------------------

def rep_radical_inclusions(x: Rep):
    """Per (vertex, base-vertex) inclusion matrices of rad X."""
    a = x.algebra
    out = {}
    for v in x.quiver.vertices:
        base_rad = alg.radical_submodule(x.mods[v])
        for u in a.quiver.vertices:
            mats = [base_rad[u]]
            for arr in x.quiver.arrows_into(v):
                mats.append(x.maps[arr.name].mats[u])
            out[(v, u)] = alg.column_space(a.field, mats)
    return out


def rep_projective_cover(x: Rep):
    q, a = x.quiver, x.algebra
    f = a.field
    rad = rep_radical_inclusions(x)
    pieces = []
    piece_maps = []
    for v in q.vertices:
        for u in a.quiver.vertices:
            chosen = alg._complement_indices(f, rad[(v, u)])
            if not chosen:
                continue
            units = Mat.identity(f, x.mods[v].dims[u])
            pu = alg.projective_module(a, u)
            piece = left_adjoint(q, v, pu)
            for j in chosen:
                h = alg.map_from_projective(pu, x.mods[v], units.col(j))
                pieces.append(piece)
                piece_maps.append(_adjoint_transpose(x, piece, h))
    total, _, _ = rep_direct_sum(q, a, pieces)
    return total, _block_repmap(total, x, pieces, [x], {
        (0, i): g for i, g in enumerate(piece_maps)})


def rep_kernel(f_map: RepMap):
    q, a = f_map.source.quiver, f_map.source.algebra
    kmods, incls = {}, {}
    for v in q.vertices:
        k, incl = alg.kernel_of(f_map.mats[v])
        kmods[v] = k
        incls[v] = incl
    maps = {}
    for arr in q.arrows:
        moved = f_map.source.maps[arr.name].compose(incls[arr.source])
        mats = {}
        for u in a.quiver.vertices:
            sol = solve_matrix(incls[arr.target].mats[u], moved.mats[u])
            if sol is None:
                raise QuivhomError("kernel not stable under an arrow; invalid map")
            mats[u] = sol
        maps[arr.name] = ModMap(kmods[arr.source], kmods[arr.target], mats)
    k = Rep(q, a, kmods, maps)
    incl = RepMap(k, f_map.source, incls)
    return k, incl


def rep_pd(x: Rep, cap: int = 20) -> Dim:
    return syzygy_pd(x, cap, rep_projective_cover, rep_kernel)


def rep_simple(q: Quiver, a: BQA, v: str, u: str) -> Rep:
    """Simple path-algebra module: the base simple at u placed at vertex v."""
    return Rep(q, a, {str(v): alg.simple_module(a, str(u))}, {})


def gldim_pathalgebra(q: Quiver, a: BQA, cap: int = 20) -> Dim:
    """Global dimension of Lambda-Q as max pd over the simples S_(v,u)."""
    vals = []
    for v in q.vertices:
        for u in a.quiver.vertices:
            # sanity: the cover of S_(v,u) is e^v_lambda(P_u) with simple top
            s = rep_simple(q, a, v, u)
            cover, pi = rep_projective_cover(s)
            rad = rep_radical_inclusions(cover)
            top_total = sum(cover.mods[w].dims[b] - rad[(w, b)].cols
                            for w in q.vertices for b in a.quiver.vertices)
            if top_total != s.dim_total():
                raise QuivhomError("projective cover of a simple has a non-simple top")
            vals.append(rep_pd(s, cap))
    return dim_max(vals)
