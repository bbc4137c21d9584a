"""Representations of an acyclic quiver in the modules of a base algebra.

A representation X of Q in mod Lambda is a module over the path algebra
Lambda Q = Lambda (x) kQ (Assem-Simson-Skowronski, *Elements*, Ch. III), and
that module is all the library stores: an ``AlgMod`` over
``path_algebra_over(Q, Lambda)``, which presents Lambda Q as a bound quiver
algebra.  Its vertices are the pairs (v, u) of a vertex of Q and one of
Lambda, its arrows are Lambda's arrows at each v and Q's arrows at each u,
and its relations are Lambda's relations at each v and one commutativity
square per pair of arrows.  So X_v is X's blocks at the vertices (v, -) and
the arrows of Lambda at v, X(c) its blocks at Q's arrow c, and a map of
representations is a ``ModMap`` over Lambda Q whose block at (v, u) is f_v
at u.  Hom bases, kernels, quotients, direct sums, projective dimension and
the global dimension of Lambda Q are the ones ``algebra`` computes for every
bound quiver algebra.  ``Rep`` builds X from vertex data, and
``quiver_and_base`` reads (Q, Lambda) back off Lambda Q, which records them.

What stays vertex by vertex are the paper's functors, and they read and
write the (v, u) blocks directly: evaluation at a vertex (``evaluate``,
``evaluate_map``, ``arrow_map``), its left and right adjoints (one copy of M
per path, each arrow b of Lambda acting by kron(I_n, M_b) and each arrow of
Q by unit-block copy maps), and the maps of the canonical presentation

    0 -> sum_a e^{t(a)}_lambda(X_{s(a)}) -> sum_v e^v_lambda(X_v) -> X -> 0

(``standard_presentation``).  Its terms are built by the caller, which in
``derived`` reads them off the functor images its witness pushes, and each
X_v is read off the ``_adjoint`` tag of its piece; ``derived.ComplexSES.verify``
checks exactness by ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from .algebra import AlgMod, BQA, ModMap
from .bounds import Dim
from .errors import AlgebraMismatch, QuivhomError, UnknownVertex
from .exactlin import Mat, rank, solve_matrix
from .quiver import (Path, Quiver, arrow_path, concat, longest_path, make_quiver, paths_between,
                     trivial_path)

# a map of representations is a map of Lambda Q-modules, and its kernel the
# module kernel; the names stay for the benchmark's input builder
RepMap = ModMap
rep_kernel = alg.kernel_of


# -- the path algebra Lambda Q ------------------------------------------------------

def lq_name(*names) -> str:
    """The name of a vertex or arrow of Lambda Q, which no choice of names in
    Q and Lambda makes collide: vertex (v, u) is ``lq_name(v, u)``, Lambda's
    arrow b at v is ``lq_name("base", v, b)`` and Q's arrow c at u is
    ``lq_name("quiver", c, u)``, each the repr of its tuple of names."""
    return repr(names)


@dataclass(frozen=True)
class _Layout:
    """Where a representation's vertex data sits in its Lambda Q-module:
    ``at[v][u]`` names the vertex (v, u), ``base_arrow[v][b]`` Lambda's arrow
    b at v and ``quiver_arrow[c][u]`` Q's arrow c at u, each inner dict in
    the order of Lambda's vertices or arrows."""

    quiver: Quiver
    base: BQA
    at: dict
    base_arrow: dict
    quiver_arrow: dict


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
    lay = _Layout(q, a, {v: {u: lq_name(v, u) for u in bq.vertices} for v in q.vertices},
                  {v: {b.name: lq_name("base", v, b.name) for b in bq.arrows} for v in q.vertices},
                  {c.name: {u: lq_name("quiver", c.name, u) for u in bq.vertices}
                   for c in q.arrows})
    verts = [n for v in q.vertices for n in lay.at[v].values()]
    arrows = [(lay.base_arrow[v][b.name], lay.at[v][b.source], lay.at[v][b.target])
              for v in q.vertices for b in bq.arrows]
    arrows += [(lay.quiver_arrow[c.name][u], lay.at[c.source][u], lay.at[c.target][u])
               for c in q.arrows for u in bq.vertices]
    ends = {name: (src, dst) for name, src, dst in arrows}

    def path(*names):
        return Path(ends[names[0]][0], ends[names[-1]][1], names)

    rels = [[(coef, path(*(lay.base_arrow[v][b] for b in p.arrows))) for coef, p in rel]
            for v in q.vertices for rel in a.relations]
    # c then b equals b then c, for c: v -> w in Q and b: u -> t in Lambda
    rels += [[(1, path(lay.quiver_arrow[c.name][b.source], lay.base_arrow[c.target][b.name])),
              (-1, path(lay.base_arrow[c.source][b.name], lay.quiver_arrow[c.name][b.target]))]
             for c in q.arrows for b in bq.arrows]
    lq = BQA(a.field, make_quiver(verts, arrows, require_acyclic=bq.acyclic), rels,
             a.nbound + longest_path(q), name=f"({a.name or 'algebra'})Q")
    lq._layout = lay
    a._path_algebras[q] = lq
    return lq


def _layout(x: AlgMod) -> _Layout:
    lay = getattr(x.algebra, "_layout", None)
    if lay is None:
        raise AlgebraMismatch("not a module over a path algebra built by path_algebra_over")
    return lay


def quiver_and_base(x: AlgMod):
    """(Q, Lambda) of a representation x, read off its algebra Lambda Q."""
    lay = _layout(x)
    return lay.quiver, lay.base


class Rep(AlgMod):
    """The representation of Q with the Lambda-module ``mods[v]`` at each
    vertex v and the module map ``maps[c]`` at each arrow c (zero where left
    out), built as the Lambda Q-module it is: ``evaluate`` at v gives back
    mods[v] and ``arrow_map`` at c gives back maps[c]."""

    def __init__(self, q: Quiver, a: BQA, mods: dict, maps: dict):
        lq = path_algebra_over(q, a)
        lay = lq._layout
        unknown = sorted(mods.keys() - lay.at.keys(), key=str)
        if unknown:
            raise UnknownVertex(f"unknown vertices {unknown}")
        if any(m.algebra is not a for m in mods.values()):
            raise AlgebraMismatch("a vertex module is over another algebra")
        unknown = sorted(maps.keys() - lay.quiver_arrow.keys(), key=str)
        if unknown:
            raise QuivhomError(f"unknown arrows {unknown}")
        if any(f.source.algebra is not a for f in maps.values()):
            raise AlgebraMismatch("an arrow map is over another algebra")
        dims, mats = {}, {}
        for v, m in mods.items():
            dims.update({lay.at[v][u]: d for u, d in m.dims.items()})
            mats.update({lay.base_arrow[v][b]: g for b, g in m.mats.items()})
        for c, f in maps.items():
            mats.update({lay.quiver_arrow[c][u]: g for u, g in f.mats.items()})
        # a map of the wrong shape raises DimensionMismatch here, naming its
        # arrow of Lambda Q
        super().__init__(lq, dims, mats)


# -- evaluation and its adjoints ------------------------------------------------

def evaluate(x: AlgMod, v: str) -> AlgMod:
    """X_v, the Lambda-module at vertex v of a representation x."""
    lay, v = _layout(x), str(v)
    if v not in lay.at:
        raise UnknownVertex(f"unknown vertex {v}")
    return AlgMod(lay.base, {u: x.dims[n] for u, n in lay.at[v].items()},
                  {b: x.mats[n] for b, n in lay.base_arrow[v].items()})


def evaluate_map(f: ModMap, v: str, src: AlgMod, dst: AlgMod) -> ModMap:
    """f_v : src -> dst, the Lambda-module map at vertex v of a map f of
    representations, between src = X_v and dst = Y_v (``evaluate`` of f's
    ends, which the caller holds)."""
    lay, v = _layout(f.source), str(v)
    if v not in lay.at:
        raise UnknownVertex(f"unknown vertex {v}")
    return ModMap(src, dst, {u: f.mats[n] for u, n in lay.at[v].items()})


def arrow_map(x: AlgMod, c: str, src: AlgMod, dst: AlgMod) -> ModMap:
    """X(c) : src -> dst for an arrow c : v -> w of Q, between src = X_v and
    dst = X_w."""
    lay = _layout(x)
    if c not in lay.quiver_arrow:
        raise QuivhomError(f"unknown arrow {c}")
    return ModMap(src, dst, {u: x.mats[n] for u, n in lay.quiver_arrow[c].items()})


def _path_blocks(x: AlgMod, p: Path) -> dict:
    """X_p : X_{source} -> X_{target} along a path p of Q, one block per
    vertex u of Lambda."""
    lay = _layout(x)
    f = lay.base.field
    out = {}
    for u, n in lay.at[p.source].items():
        m = Mat.identity(f, x.dims[n])
        for c in p.arrows:
            m = x.mats[lay.quiver_arrow[c][u]].mul(m)
        out[u] = m
    return out


def left_adjoint(q: Quiver, v: str, m: AlgMod) -> AlgMod:
    """e^v_lambda(M): vertex w carries one copy of M per path v ~> w."""
    v = str(v)
    paths = {w: paths_between(q, v, w) for w in q.vertices}
    pairs = {}
    for arr in q.arrows:
        # copy p at the source goes to copy p.arr at the target
        dst_index = {p: j for j, p in enumerate(paths[arr.target])}
        pairs[arr.name] = [(i, dst_index[concat(p, arrow_path(arr))])
                           for i, p in enumerate(paths[arr.source])]
    return _copies(q, m, ("lambda", v, m, paths), pairs)


def right_adjoint(q: Quiver, v: str, m: AlgMod) -> AlgMod:
    """e^v_rho(M): vertex w carries one copy of M per path w ~> v."""
    v = str(v)
    paths = {w: paths_between(q, w, v) for w in q.vertices}
    pairs = {}
    for arr in q.arrows:
        # copy arr.qq at the source goes to copy qq at the target
        src_index = {p: i for i, p in enumerate(paths[arr.source])}
        pairs[arr.name] = [(src_index[concat(arrow_path(arr), qq)], j)
                           for j, qq in enumerate(paths[arr.target])]
    return _copies(q, m, ("rho", v, m, paths), pairs)


def _copies(q: Quiver, m: AlgMod, tag, pairs) -> AlgMod:
    """The representation with one copy of m per path of ``tag[3][w]`` at
    each vertex w: an arrow b of Lambda acts by kron(I_n, M_b), and an arrow
    c of Q sends copy i to copy j by the identity for each (i, j) in
    pairs[c].  The tag (side, vertex, m, paths) stays on it as ``_adjoint``."""
    a = m.algebra
    lq = path_algebra_over(q, a)
    lay, f = lq._layout, a.field
    n = {w: len(p) for w, p in tag[3].items()}
    dims, mats = {}, {}
    for w in q.vertices:
        ident = Mat.identity(f, n[w])
        dims.update({lay.at[w][u]: n[w] * d for u, d in m.dims.items()})
        mats.update({lay.base_arrow[w][b]: Mat.kron(ident, g) for b, g in m.mats.items()})
    for arr in q.arrows:
        for u, name in lay.quiver_arrow[arr.name].items():
            d = m.dims[u]
            mats[name] = _copy_block(f, Mat.identity(f, d), n[arr.target] * d, n[arr.source] * d,
                                     pairs[arr.name])
    x = AlgMod(lq, dims, mats)
    x._adjoint = tag
    return x


def _copy_block(f, g: Mat, rows: int, cols: int, pairs) -> Mat:
    """The rows x cols matrix that places g from column block i to row block
    j for each (i, j) in pairs: blocks, no products."""
    ent = [f.zero()] * (rows * cols)
    for i, j in pairs:
        for r in range(g.rows):
            at = (j * g.rows + r) * cols + i * g.cols
            ent[at:at + g.cols] = g.entries[r * g.cols:(r + 1) * g.cols]
    return Mat(f, rows, cols, tuple(ent))


def _copy_map(src: AlgMod, dst: AlgMod, blocks: dict, pairs: dict) -> ModMap:
    """The map src -> dst between sums of copies (``_copies``) that places, at
    each vertex w of Q, the Lambda-module map with ``blocks`` (one per vertex
    of Lambda) from copy i to copy j for each (i, j) in pairs[w]."""
    lay = _layout(src)
    f = lay.base.field
    return ModMap(src, dst, {n: _copy_block(f, blocks[u], dst.dims[n], src.dims[n], pairs[w])
                             for w, names in lay.at.items() for u, n in names.items()})


def left_adjoint_map(src: AlgMod, dst: AlgMod, f: ModMap) -> ModMap:
    """e^v_lambda on morphisms, src = e^v_lambda(M) -> dst = e^v_lambda(N)
    for f : M -> N: one copy of f per path."""
    return _copy_map(src, dst, f.mats,
                     {w: [(i, i) for i in range(len(p))] for w, p in src._adjoint[3].items()})


def adjunction_check(q: Quiver, v: str, m: AlgMod, x: AlgMod):
    """Dimension equality and the explicit bijection for both adjunctions."""
    v = str(v)
    f = m.algebra.field
    x_v = evaluate(x, v)
    el = left_adjoint(q, v, m)
    el_v = evaluate(el, v)
    b_rep = alg.hom_basis(el, x)
    b_mod = alg.hom_basis(m, x_v)
    # the copy of M indexed by the trivial path, included at v
    k = el._adjoint[3][v].index(trivial_path(v))
    inj = ModMap(m, el_v, {u: _copy_block(f, Mat.identity(f, d), el_v.dims[u], d, [(0, k)])
                           for u, d in m.dims.items()})
    lam_ok, lam_mat = _bijection([evaluate_map(phi, v, el_v, x_v).compose(inj) for phi in b_rep],
                                 b_mod)
    er = right_adjoint(q, v, m)
    er_v = evaluate(er, v)
    b_rep2 = alg.hom_basis(x, er)
    b_mod2 = alg.hom_basis(x_v, m)
    # the copy of M indexed by the trivial path, projected out at v
    k = er._adjoint[3][v].index(trivial_path(v))
    proj = ModMap(er_v, m, {u: _copy_block(f, Mat.identity(f, d), d, er_v.dims[u], [(k, 0)])
                            for u, d in m.dims.items()})
    rho_ok, rho_mat = _bijection([proj.compose(evaluate_map(psi, v, x_v, er_v)) for psi in b_rep2],
                                 b_mod2)
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


# -- the canonical presentation --------------------------------------------------

@dataclass
class StandardPresentation:
    """0 -> arrows_term -> vertices_term -> target -> 0.  Exactness is not
    checked here: ``derived.ComplexSES.verify`` checks it by ranks, degree by
    degree, for the standard triangle glued from these presentations."""

    arrows_term: AlgMod
    vertices_term: AlgMod
    target: AlgMod
    incl: ModMap
    epi: ModMap


def standard_presentation(x: AlgMod, vertex_pieces, arrow_pieces, vertices_term: AlgMod,
                          arrows_term: AlgMod) -> StandardPresentation:
    """The canonical presentation of x on terms its caller has built:
    ``vertex_pieces`` lists e^v_lambda(X_v) per vertex v and ``arrow_pieces``
    e^{t(a)}_lambda(X_{s(a)}) per arrow a, in quiver order, and the terms are
    their direct sums.  Each X_v is read off its piece's ``_adjoint`` tag, so
    nothing is evaluated and no adjoint is built here."""
    q, a = quiver_and_base(x)
    f = a.field
    # counit: on the copy of X_v indexed by a path p, act by X_p
    epi = _block_map(vertices_term, x, vertex_pieces, [x], {
        (0, vi): _adjoint_transpose(x, piece) for vi, piece in enumerate(vertex_pieces)})

    # inclusion: the piece of arrow a goes by nu_a to the piece of t(a) and
    # by -mu_a to the piece of s(a)
    vindex = {v: i for i, v in enumerate(q.vertices)}
    blocks = {}
    for ai, arr in enumerate(q.arrows):
        piece = arrow_pieces[ai]  # e^{t(a)}_lambda(X_{s(a)})
        target_t = vertex_pieces[vindex[arr.target]]  # e^{t(a)}_lambda(X_{t(a)})
        target_s = vertex_pieces[vindex[arr.source]]  # e^{s(a)}_lambda(X_{s(a)})
        m = piece._adjoint[2]  # X_{s(a)}
        blocks[(vindex[arr.target], ai)] = left_adjoint_map(
            piece, target_t, arrow_map(x, arr.name, m, target_t._adjoint[2]))
        # mu_a: the copy of a path p goes to the copy of a.p
        pairs = {}
        for w in q.vertices:
            dst_index = {p: j for j, p in enumerate(target_s._adjoint[3][w])}
            pairs[w] = [(i, dst_index[concat(arrow_path(arr), p)])
                        for i, p in enumerate(piece._adjoint[3][w])]
        blocks[(vindex[arr.source], ai)] = _copy_map(piece, target_s, alg.identity_map(m).mats,
                                                     pairs).scale(f.neg(f.one()))
    incl = _block_map(arrows_term, vertices_term, arrow_pieces, vertex_pieces, blocks)
    return StandardPresentation(arrows_term, vertices_term, x, incl, epi)


def _adjoint_transpose(x: AlgMod, piece: AlgMod) -> ModMap:
    """The counit e^v_lambda(X_v) -> x, the map adjoint to the identity of
    X_v: the copy of X_v indexed by a path p acts by X_p."""
    lay = _layout(x)
    f = lay.base.field
    m = piece._adjoint[2]
    mats = {}
    for w, names in lay.at.items():
        acts = [_path_blocks(x, p) for p in piece._adjoint[3][w]]
        for u, n in names.items():
            mats[n] = Mat.from_blocks(f, [x.dims[n]], [m.dims[u]] * len(acts),
                                      {(0, k): act[u] for k, act in enumerate(acts)})
    return ModMap(piece, x, mats)


def _block_map(src: AlgMod, dst: AlgMod, src_pieces, dst_pieces, blocks) -> ModMap:
    """The map src -> dst between the direct sums of src_pieces and of
    dst_pieces whose block (i, j) is blocks[(i, j)] : src_pieces[j] ->
    dst_pieces[i]; absent blocks are zero."""
    f = src.algebra.field
    return ModMap(src, dst, {
        n: Mat.from_blocks(f, [p.dims[n] for p in dst_pieces], [p.dims[n] for p in src_pieces],
                           {ij: g.mats[n] for ij, g in blocks.items()})
        for n in src.dims})


# -- distinguished representations and the global dimension -------------------------

def rep_simple(q: Quiver, a: BQA, v: str, u: str) -> Rep:
    """Simple path-algebra module: the base simple at u placed at vertex v."""
    return Rep(q, a, {str(v): alg.simple_module(a, str(u))}, {})


def gldim_pathalgebra(q: Quiver, a: BQA, cap: int = 20) -> Dim:
    """Global dimension of Lambda Q as max pd over the simples S_(v,u)."""
    return alg.gldim(path_algebra_over(q, a), cap)
