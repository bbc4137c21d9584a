"""Representations of an acyclic quiver in the modules of a base algebra.

A representation X of Q in mod Lambda is a module over the path algebra
Lambda Q = Lambda (x) kQ.  ``path_algebra_over`` presents Lambda Q as a bound
quiver algebra: its vertices are the pairs (v, u) of a vertex of Q and one of
Lambda, its arrows are Lambda's arrows at each v and Q's arrows at each u, and
its relations are Lambda's relations at each v and one commutativity square
per pair of arrows.  ``as_module`` reads X as a Lambda Q-module on the same
matrices, so hom bases, kernels, projective dimension and the global
dimension of Lambda Q are the ones ``algebra`` computes for every bound quiver
algebra (its minimal covers and radicals included).  ``RepMap.is_valid``
checks the equations of a Lambda Q-module map vertex by vertex, with no
conversion.

What stays vertex by vertex are the paper's functors: evaluation at a vertex
and its left and right adjoints (sums of copies indexed by paths), and the
canonical presentation

    0 -> sum_a e^{t(a)}_lambda(X_{s(a)}) -> sum_v e^v_lambda(X_v) -> X -> 0

whose exactness ``derived.ComplexSES.verify`` checks by ranks.  Direct sums
are placed vertex by vertex too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from .algebra import AlgMod, BQA, ModMap, _is_linear
from .bounds import Dim
from .errors import AlgebraMismatch, DimensionMismatch, QuivhomError, UnknownVertex
from .exactlin import Mat, rank, solve_matrix
from .quiver import Path, Quiver, arrow_path, concat, make_quiver, paths_between, trivial_path


@dataclass
class Rep:
    quiver: Quiver
    algebra: BQA
    mods: dict
    maps: dict

    def __post_init__(self):
        q, a = self.quiver, self.algebra
        if not q.acyclic:
            raise QuivhomError("representations require an acyclic quiver")
        mods = {v: self.mods.get(v) or alg.zero_module(a) for v in q.vertices}
        if not self.mods.keys() <= mods.keys():
            raise UnknownVertex(f"unknown vertices {sorted(self.mods.keys() - mods.keys(), key=str)}")
        if any(m.algebra is not a for m in mods.values()):
            raise AlgebraMismatch("a vertex module is over another algebra")
        maps = {arr.name: self.maps.get(arr.name) or alg.zero_map(mods[arr.source], mods[arr.target])
                for arr in q.arrows}
        if not self.maps.keys() <= maps.keys():
            raise QuivhomError(f"unknown arrows {sorted(self.maps.keys() - maps.keys(), key=str)}")
        for arr in q.arrows:
            f, src, dst = maps[arr.name], mods[arr.source], mods[arr.target]
            if f.source.algebra is not a:
                raise AlgebraMismatch(f"the map of arrow {arr.name} is over another algebra")
            for u, g in f.mats.items():
                if g.rows != dst.dims[u] or g.cols != src.dims[u]:
                    raise DimensionMismatch(f"arrow {arr.name}, base vertex {u}: "
                                            f"map shape {g.rows}x{g.cols}")
        self.mods, self.maps = mods, maps

    def dim_total(self) -> int:
        return sum(m.dim_total() for m in self.mods.values())

    def dim_vector(self):
        return {v: self.mods[v].dim_total() for v in self.quiver.vertices}

    def is_zero(self) -> bool:
        return self.dim_total() == 0

    def check(self) -> bool:
        return as_module(self).check_relations()


@dataclass
class RepMap:
    source: Rep
    target: Rep
    mats: dict  # vertex -> ModMap

    def __post_init__(self):
        mats, missing = {}, 0
        for v in self.source.quiver.vertices:
            f = self.mats.get(v)
            if f is None:
                f = alg.zero_map(self.source.mods[v], self.target.mods[v])
                missing += 1
            mats[v] = f
        # every key is known when they number the entries found; otherwise (an
        # unknown key, or one mapped to None) the keys themselves are tested
        if len(self.mats) + missing != len(mats) and not self.mats.keys() <= mats.keys():
            raise UnknownVertex(f"unknown vertices {sorted(self.mats.keys() - mats.keys(), key=str)}")
        self.mats = mats

    def is_valid(self) -> bool:
        """The equations of the Lambda Q-module map ``as_module_map(self)``,
        read vertex by vertex with no conversion: each f_v is Lambda-linear
        X_v -> Y_v, and f_w X(c)_u = Y(c)_u f_v for each arrow c: v -> w of Q
        and each vertex u of Lambda."""
        x, y = self.source, self.target
        if not all(_is_linear(x.mods[v], y.mods[v], f.mats) for v, f in self.mats.items()):
            return False
        return all(self.mats[c.target].mats[u].mul(x.maps[c.name].mats[u])
                   == y.maps[c.name].mats[u].mul(self.mats[c.source].mats[u])
                   for c in x.quiver.arrows for u in x.algebra.quiver.vertices)

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


# -- the path algebra Lambda Q ------------------------------------------------------

def lq_name(*names) -> str:
    """The name of a vertex or arrow of Lambda Q, which no choice of names in
    Q and Lambda makes collide: vertex (v, u) is ``lq_name(v, u)``, Lambda's
    arrow b at v is ``lq_name("base", v, b)`` and Q's arrow c at u is
    ``lq_name("quiver", c, u)``, each the repr of its tuple of names."""
    return repr(names)


def path_algebra_over(q: Quiver, a: BQA) -> BQA:
    """Lambda Q as a bound quiver algebra, built once per quiver and base and
    kept on the base (``alg.hom_basis`` compares algebras by identity).

    Vertices (v, u) come v-major, and the arrows are Lambda's arrows at each
    v, then Q's arrows at each u, so the hom-basis system of two
    representations lists its unknown blocks in vertex order and its
    equations Lambda-linearity first, then naturality.  A path of Lambda Q
    has at most L arrows from Q (L the longest path of Q), and it is zero
    once those from Lambda reach Lambda's bound N, so N + L bounds Lambda Q."""
    got = a._path_algebras.get(q)
    if got is not None:
        return got
    if not q.acyclic:
        raise QuivhomError("representations require an acyclic quiver")
    bq = a.quiver
    verts = [lq_name(v, u) for v in q.vertices for u in bq.vertices]
    arrows = [(lq_name("base", v, b.name), lq_name(v, b.source), lq_name(v, b.target))
              for v in q.vertices for b in bq.arrows]
    arrows += [(lq_name("quiver", c.name, u), lq_name(c.source, u), lq_name(c.target, u))
               for c in q.arrows for u in bq.vertices]
    ends = {name: (src, dst) for name, src, dst in arrows}

    def path(*names):
        return Path(ends[names[0]][0], ends[names[-1]][1], names)

    rels = [[(coef, path(*(lq_name("base", v, b) for b in p.arrows))) for coef, p in rel]
            for v in q.vertices for rel in a.relations]
    # c then b equals b then c, for c: v -> w in Q and b: u -> t in Lambda
    rels += [[(1, path(lq_name("quiver", c.name, b.source), lq_name("base", c.target, b.name))),
              (-1, path(lq_name("base", c.source, b.name), lq_name("quiver", c.name, b.target)))]
             for c in q.arrows for b in bq.arrows]
    longest = {v: 0 for v in q.vertices}
    for v in q.topological:
        for c in q.arrows_from(v):
            longest[c.target] = max(longest[c.target], longest[v] + 1)
    bound = a.nbound + max(longest.values(), default=0)
    lq = BQA(a.field, make_quiver(verts, arrows, require_acyclic=bq.acyclic), rels, bound,
             name=f"({a.name or 'algebra'})Q")
    a._path_algebras[q] = lq
    return lq


def as_module(x: Rep) -> AlgMod:
    """x as a module over ``path_algebra_over(Q, Lambda)``, on x's own
    matrices; built anew on each call, not kept on x.  This and the other
    conversions walk Lambda Q's vertices and arrows in the order that
    ``path_algebra_over`` lists them, with no names to build."""
    q, bq = x.quiver, x.algebra.quiver
    lq = path_algebra_over(q, x.algebra)
    mats = [x.mods[v].mats[b.name] for v in q.vertices for b in bq.arrows]
    mats += [x.maps[c.name].mats[u] for c in q.arrows for u in bq.vertices]
    return AlgMod(lq, dict(zip(lq.quiver.vertices,
                               [x.mods[v].dims[u] for v in q.vertices for u in bq.vertices])),
                  dict(zip([arr.name for arr in lq.quiver.arrows], mats)))


def as_rep(q: Quiver, a: BQA, m: AlgMod) -> Rep:
    """The representation of Q in mod Lambda that the Lambda Q-module m is:
    the inverse of ``as_module``."""
    lq = path_algebra_over(q, a)
    if m.algebra is not lq:
        raise AlgebraMismatch("not a module over the path algebra of this quiver and base")
    bq = a.quiver
    dims = iter([m.dims[w] for w in lq.quiver.vertices])
    mats = iter([m.mats[arr.name] for arr in lq.quiver.arrows])
    mods = {v: AlgMod(a, {u: next(dims) for u in bq.vertices}, {b.name: next(mats) for b in bq.arrows})
            for v in q.vertices}
    maps = {c.name: ModMap(mods[c.source], mods[c.target], {u: next(mats) for u in bq.vertices})
            for c in q.arrows}
    return Rep(q, a, mods, maps)


def as_module_map(f: RepMap) -> ModMap:
    """f as a map of Lambda Q-modules between ``as_module`` of its ends."""
    x = f.source
    src = as_module(x)
    return ModMap(src, as_module(f.target), dict(zip(
        src.algebra.quiver.vertices,
        [f.mats[v].mats[u] for v in x.quiver.vertices for u in x.algebra.quiver.vertices])))


def as_rep_map(x: Rep, y: Rep, g: ModMap) -> RepMap:
    """The map x -> y that the Lambda Q-module map g is: the inverse of
    ``as_module_map``."""
    bverts = x.algebra.quiver.vertices
    blocks = iter([g.mats[w] for w in g.source.algebra.quiver.vertices])
    return RepMap(x, y, {v: ModMap(x.mods[v], y.mods[v], {u: next(blocks) for u in bverts})
                         for v in x.quiver.vertices})


def rep_sum(q: Quiver, a: BQA, reps) -> Rep:
    """The direct sum of representations, vertex by vertex."""
    reps = list(reps)
    f = a.field
    mods = {v: alg.sum_mods(a, [r.mods[v] for r in reps]) for v in q.vertices}
    maps = {arr.name: ModMap(mods[arr.source], mods[arr.target], {
        u: Mat.block_diag(f, [r.maps[arr.name].mats[u] for r in reps]) for u in a.quiver.vertices})
        for arr in q.arrows}
    return Rep(q, a, mods, maps)


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
    ident = alg.identity_map(m)
    el = left_adjoint(q, v, m)
    b_rep = rep_hom_basis(el, x)
    b_mod = alg.hom_basis(m, x.mods[v])
    # the copy of M indexed by the trivial path, included at v
    inj = _copy_map(ident, m, el.mods[v], [(0, el._adjoint[3][v].index(trivial_path(v)))])
    lam_ok, lam_mat = _bijection([phi.mats[v].compose(inj) for phi in b_rep], b_mod)
    er = right_adjoint(q, v, m)
    b_rep2 = rep_hom_basis(x, er)
    b_mod2 = alg.hom_basis(x.mods[v], m)
    proj = _copy_map(ident, er.mods[v], m, [(er._adjoint[3][v].index(trivial_path(v)), 0)])
    rho_ok, rho_mat = _bijection([proj.compose(psi.mats[v]) for psi in b_rep2], b_mod2)
    return {
        "lambda_dims": (len(b_rep), len(b_mod)),
        "rho_dims": (len(b_rep2), len(b_mod2)),
        "lambda_ok": lam_ok,
        "rho_ok": rho_ok,
        "lambda_matrix": lam_mat,
        "rho_matrix": rho_mat,
    }


def _bijection(images, basis):
    """(ok, coords): whether the module maps ``images`` are a basis of the
    span of ``basis`` (equally many, in the span, independent), with their
    coordinates in ``basis`` as columns (None when there are none to give)."""
    if len(images) != len(basis) or not images:
        return len(images) == len(basis), None
    f = basis[0].source.algebra.field
    stacked = Mat.hstack(f, [Mat.column(f, b.flatten()) for b in basis])
    coords = [solve_matrix(stacked, Mat.column(f, g.flatten())) for g in images]
    if any(c is None for c in coords):
        return False, None
    mat = Mat.hstack(f, coords)
    return rank(mat) == len(images), mat


# -- hom spaces -------------------------------------------------------------------

def rep_hom_basis(x: Rep, y: Rep):
    """Basis of natural transformations x -> y: the hom basis of the Lambda
    Q-modules they are."""
    return [as_rep_map(x, y, g) for g in alg.hom_basis(as_module(x), as_module(y))]


def rep_hom_dim(x: Rep, y: Rep) -> int:
    return len(rep_hom_basis(x, y))


# -- the canonical presentation --------------------------------------------------

@dataclass
class StandardPresentation:
    """0 -> arrows_term -> vertices_term -> target -> 0.  Exactness is not
    checked here: ``derived.ComplexSES.verify`` checks it by ranks, degree by
    degree, for the triangle built from these presentations.

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
    vertex_pieces: list
    arrow_pieces: list


def standard_presentation(x: Rep) -> StandardPresentation:
    q, a = x.quiver, x.algebra
    f = a.field
    vert_pieces = [left_adjoint(q, v, x.mods[v]) for v in q.vertices]
    b = rep_sum(q, a, vert_pieces)
    arrow_pieces = [left_adjoint(q, arr.target, x.mods[arr.source]) for arr in q.arrows]
    asum = rep_sum(q, a, arrow_pieces)

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
    return StandardPresentation(asum, b, x, incl, epi, vert_pieces, arrow_pieces)


def _adjoint_transpose(x: Rep, piece: Rep) -> RepMap:
    """The counit e^v_lambda(X_v) -> x, the map adjoint to the identity of
    X_v: the copy of X_v indexed by a path p acts by X_p."""
    a = x.algebra
    m = piece._adjoint[2]
    mats = {}
    for w in x.quiver.vertices:
        acts = [path_action(x, p) for p in piece._adjoint[3][w]]
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


# -- kernels and projective dimension ---------------------------------------------

def rep_kernel(f_map: RepMap):
    x = f_map.source
    k, incl = alg.kernel_of(as_module_map(f_map))
    kr = as_rep(x.quiver, x.algebra, k)
    return kr, as_rep_map(kr, x, incl)


def rep_pd(x: Rep, cap: int = 20) -> Dim:
    return alg.pd(as_module(x), cap)


def rep_simple(q: Quiver, a: BQA, v: str, u: str) -> Rep:
    """Simple path-algebra module: the base simple at u placed at vertex v."""
    return Rep(q, a, {str(v): alg.simple_module(a, str(u))}, {})


def gldim_pathalgebra(q: Quiver, a: BQA, cap: int = 20) -> Dim:
    """Global dimension of Lambda Q as max pd over the simples S_(v,u)."""
    return alg.gldim(path_algebra_over(q, a), cap)
