"""Endomorphism algebras of explicit module lists, as structure-constant algebras.

The summands may be base-algebra modules or quiver representations; the
category adapter :class:`cats.Cat` (``cats.mod_cat`` / ``cats.rep_cat``)
hides the difference.  Products compose in the usual order
(f * g = f o g), so Hom(U, W) is a left End(W)-module by post-composition.
The explicit isomorphism End(sum_v e^v_lambda(A)) = (End A)Q is constructed
from the adjunction: the morphism attached to a path p: w ~> v and an
endomorphism gamma sends the copy at q to the copy at concat(p, q) via gamma.

Summands must be indecomposable with split local End (End(X)/rad = k), as the
summands of a basic generator-cogenerator are.  ``end_algebra`` then builds
the radical of End from the hom blocks, in every characteristic, and attaches
it; a certificate that always runs proves it is the radical, and a summand
outside the hypothesis raises :class:`NotSplit` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from . import repcat as rc
from .algebra import SCAlgebra, _is_nilpotent
from .bounds import Dim
from .cats import Cat, mod_cat
from .errors import CompositionInconsistent, IsoCheckFailed, NotSplit, QuivhomError
from .exactlin import Mat, _kernel_blocks, rank, solve_matrix
from .quiver import Quiver, concat, is_type_An, paths_between, sinks, trivial_path
from .scmodule import ColumnData, SCModule, gldim_sc, pd_sc


@dataclass
class EndAlgebra:
    sc: SCAlgebra
    summands: list
    cat: Cat
    blocks: dict      # (src, dst) -> (offset, [basis maps])
    labels: list

    @property
    def dim(self):
        return self.sc.dim


def _hom_blocks(sources, targets, cat: Cat):
    """Lay out the blocks Hom(sources[i], targets[j]) one after another.

    Returns (blocks, dim, express): ``blocks`` maps (i, j) to (offset, basis)
    in offset order, and ``express(i, j, h)`` gives the coordinates of a map
    h in block (i, j) as a vector of length dim.  Coordinates are unique
    because every hom basis is linearly independent.
    """
    f = cat.field
    blocks, dim = {}, 0
    for i, s in enumerate(sources):
        for j, t in enumerate(targets):
            basis = cat.hom_basis(s, t)
            blocks[(i, j)] = (dim, basis)
            dim += len(basis)
    stacked = {key: Mat.hstack(f, [Mat.column(f, cat.flatten_map(b)) for b in basis])
               for key, (_, basis) in blocks.items() if basis}

    def express(i, j, h):
        vec = [f.zero()] * dim
        flat = Mat.column(f, cat.flatten_map(h))
        if flat.is_zero():
            return vec
        off, basis = blocks[(i, j)]
        x = solve_matrix(stacked[(i, j)], flat) if basis else None
        if x is None:
            raise CompositionInconsistent(f"composite escapes hom block {(i, j)}")
        vec[off:off + len(basis)] = x.entries
        return vec

    return blocks, dim, express


def end_algebra(summands, cat: Cat, check: bool = True) -> EndAlgebra:
    """End(sum of summands) with structure constants from exact re-expression.

    The summands must be indecomposable with split local End (End(X)/rad = k).
    The Jacobson radical is built from the hom blocks (see :func:`_block_radical`)
    and attached; its certificate runs also with ``check=False`` and raises
    :class:`NotSplit`, naming the summand, when a summand breaks the hypothesis.
    """
    summands = list(summands)
    f = cat.field
    blocks, dim, express = _hom_blocks(summands, summands, cat)
    labels = [(i, j, t) for (i, j), (_, basis) in blocks.items() for t in range(len(basis))]
    zero_vec = tuple(f.zero() for _ in range(dim))
    mult = [[zero_vec for _ in range(dim)] for _ in range(dim)]
    for (c, d), (off_g, basis_g) in blocks.items():
        for (a, b), (off_f, basis_f) in blocks.items():
            if d != a:
                continue
            for gi, g in enumerate(basis_g):
                for fi, fmap in enumerate(basis_f):
                    mult[off_f + fi][off_g + gi] = tuple(express(c, b, cat.compose(fmap, g)))
    idems = [express(i, i, cat.identity(s)) for i, s in enumerate(summands)]
    unit = [f.zero()] * dim
    for e in idems:
        unit = [f.add(u, x) for u, x in zip(unit, e)]
    parts = _block_radical(f, blocks, mult, len(summands))
    sc = SCAlgebra(f, mult, tuple(unit), idempotents=[tuple(e) for e in idems],
                   radical=[x for _, vecs in parts.values() for x in vecs],
                   labels=labels, check=check)
    _certify_radical(sc, blocks, parts)
    return EndAlgebra(sc, summands, cat, blocks, labels)


def _residues(f, mult, off, d, i):
    """chi_i on the basis of the corner End(X_i) at offset ``off``, dimension d.

    On a split local corner, left multiplication L_b by a basis element b is
    chi_i(b).I plus a nilpotent.  In characteristic 0 read chi_i(b) from the
    trace; over GF(p) from L_b^(p^s) = chi_i(b).I with p^s >= d.
    """
    corner = range(off, off + d)
    if f.kind == "q":
        return [sum((mult[b][h][h] for h in corner), f.zero()) / d for b in corner]
    power = f.p
    while power < d:
        power *= f.p
    out = []
    for b in corner:
        lb = Mat(f, d, d, tuple(mult[b][h][r] for r in corner for h in corner))
        acc = Mat.identity(f, d)
        e = power
        while e:
            if e & 1:
                acc = acc.mul(lb)
            lb, e = lb.mul(lb), e >> 1
        if acc != Mat.identity(f, d).scale(acc.at(0, 0)):
            raise NotSplit(f"summand {i}: End is not local with residue field k")
        out.append(acc.at(0, 0))
    return out


def _block_radical(f, blocks, mult, n):
    """Candidate for rad End(X_0 + ... + X_{n-1}), one hom block at a time.

    rad(X_i, X_j) = {h : chi_i(g o h) = 0 for every basis g of Hom(X_j, X_i)},
    chi_i the residue map of End(X_i); each g o h is an entry of ``mult``.
    Returns {(i, j): (rows cutting the block out, its basis in full-length
    vectors)}.
    """
    chis = [_residues(f, mult, blocks[(i, i)][0], len(blocks[(i, i)][1]), i) for i in range(n)]
    out = {}
    for (i, j), (off, basis) in blocks.items():
        off_i = blocks[(i, i)][0]
        off_g, basis_g = blocks[(j, i)]
        rows = [[_dot(f, chis[i], mult[g][h][off_i:]) for h in range(off, off + len(basis))]
                for g in range(off_g, off_g + len(basis_g))]
        vecs = []
        for (v,) in _kernel_blocks(f, rows, [(len(basis), 1)]):
            vec = [f.zero()] * len(mult)
            vec[off:off + len(basis)] = v.entries
            vecs.append(tuple(vec))
        out[(i, j)] = (rows, vecs)
    return out


def _dot(f, u, v):
    """Sum of u[k] * v[k] over the shorter of the two."""
    acc = f.zero()
    for a, b in zip(u, v):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


def _certify_radical(sc: SCAlgebra, blocks, parts):
    """Prove that the block radical J is rad(sc), or raise :class:`NotSplit`.

    Checked: J is a two-sided ideal, J is nilpotent, and J has codimension 1
    in each diagonal corner End(X_i).  A nilpotent ideal lies in the radical.
    Conversely each corner of sc/J is k, and by construction J_ij holds every
    h with g o h in J_ii for all g (as J_ii lies in ker chi_i), so sc/J has
    no radical.  This holds in every characteristic.
    """
    f = sc.field
    for (i, j), (_, vecs) in parts.items():
        corank = len(blocks[(i, j)][1]) - len(vecs)
        if i == j and corank != 1:
            raise NotSplit(f"summand {i}: End has dimension {corank} over its radical, not 1")

    def in_radical(vec):
        for key, (off, basis) in blocks.items():
            part = vec[off:off + len(basis)]
            if any(part) and any(_dot(f, row, part) for row in parts[key][0]):
                return False
        return True

    unit_vecs = Mat.identity(sc.field, sc.dim).row_list()
    for (i, j), (_, vecs) in parts.items():
        for x in vecs:
            for e in unit_vecs:
                if not (in_radical(sc.multiply(e, x)) and in_radical(sc.multiply(x, e))):
                    raise NotSplit(f"radical of Hom(summand {i}, summand {j}) is not an ideal")
    if not _is_nilpotent(sc, sc.known_radical):
        raise NotSplit("the block radical is not nilpotent")


def sc_gldim(e, cap: int = 20) -> Dim:
    sc = e.sc if isinstance(e, EndAlgebra) else e
    return gldim_sc(sc, cap)


def _actions(end: EndAlgebra, blocks, express, cat: Cat, post: bool):
    """One matrix per basis element gamma of End, acting on the hom blocks
    by post-composition (gamma o h) or pre-composition (h o gamma)."""
    f = cat.field
    basis = [(i, j, h) for (i, j), (_, hs) in blocks.items() for h in hs]
    dim = len(basis)
    zero = [f.zero()] * dim
    out = []
    for src, dst, idx in end.labels:
        gamma = end.blocks[(src, dst)][1][idx]
        if post:
            cols = [express(i, dst, cat.compose(gamma, h)) if j == src else zero
                    for i, j, h in basis]
        else:
            cols = [express(src, j, cat.compose(h, gamma)) if i == dst else zero
                    for i, j, h in basis]
        out.append(Mat(f, dim, dim, tuple(col[r] for r in range(dim) for col in cols)))
    return out


def hom_as_end_module(from_summands, to_summands, cat: Cat,
                      end_alg: EndAlgebra = None) -> SCModule:
    """Hom(sum from, sum to) as a left End(to)-module via post-composition."""
    if end_alg is None:
        end_alg = end_algebra(to_summands, cat)
    blocks, dim, express = _hom_blocks(list(from_summands), list(to_summands), cat)
    return SCModule(end_alg.sc, dim, _actions(end_alg, blocks, express, cat, post=True))


def hom_bimodule(from_end: EndAlgebra, to_end: EndAlgebra, cat: Cat):
    """Hom(sum from, sum to) as an End(to)-End(from)-bimodule (post/pre-composition).

    Returns (dim, left action matrices, right action matrices), indexed by the
    same hom-block basis as :func:`hom_as_end_module`.
    """
    blocks, dim, express = _hom_blocks(from_end.summands, to_end.summands, cat)
    left = _actions(to_end, blocks, express, cat, post=True)
    right = _actions(from_end, blocks, express, cat, post=False)
    return dim, left, right


def pd_endmodule(n: SCModule, cap: int = 20, coldata: ColumnData = None) -> Dim:
    return pd_sc(n, cap, coldata if coldata is not None else ColumnData(n.sc))


def validate_summands(summands, cat: Cat):
    """Each summand must be nonzero and indecomposable with split local End.

    Checked in every characteristic by the radical certificate of
    :func:`end_algebra` on the summand alone.
    """
    for i, s in enumerate(summands):
        if cat.is_zero_obj(s):
            raise QuivhomError(f"summand {i} is zero")
        try:
            end_algebra([s], cat, check=False)
        except NotSplit as exc:
            raise NotSplit(f"summand {i} is not indecomposable with split local End") from exc


# -- path-block algebra and the End iso -----------------------------------------------

def path_block_algebra(gamma: SCAlgebra, q: Quiver) -> tuple:
    """(End A)Q with basis (path, gamma-basis element).

    Product ((d, r) * (g, p)) = (d * g, r then p), nonzero when r ends where
    p starts; this matches composition of the attached morphisms.
    """
    f = gamma.field
    paths = []
    for v in q.vertices:
        for w in q.vertices:
            paths.extend(paths_between(q, v, w))
    index = {}
    labels = []
    for pi, p in enumerate(paths):
        for g in range(gamma.dim):
            index[(pi, g)] = len(labels)
            labels.append((p, g))
    dim = len(labels)
    zero_vec = tuple(f.zero() for _ in range(dim))
    mult = [[zero_vec for _ in range(dim)] for _ in range(dim)]
    path_index = {p: i for i, p in enumerate(paths)}
    for i, (r, d) in enumerate(labels):
        for j, (p, g) in enumerate(labels):
            if r.target != p.source:
                continue
            newp = concat(r, p)
            pi = path_index.get(newp)
            if pi is None:
                continue
            gv = gamma.mult[d][g]
            vec = [f.zero()] * dim
            for t, c in enumerate(gv):
                if c != f.zero():
                    vec[index[(pi, t)]] = c
            mult[i][j] = tuple(vec)
    unit = [f.zero()] * dim
    for v in q.vertices:
        pi = path_index[trivial_path(v)]
        for t, c in enumerate(gamma.unit):
            unit[index[(pi, t)]] = c
    sc = SCAlgebra(f, mult, tuple(unit), labels=[(str(p), g) for p, g in labels])
    return sc, labels


@dataclass
class EndIsoReport:
    lhs_dim: int
    rhs_dim: int
    verified: bool
    side: str
    details: dict


def adjoint_end_iso(q: Quiver, a, summands, side: str = "lambda",
                    vertices=None) -> EndIsoReport:
    """Explicit algebra isomorphism End(sum_v adjoint(A)) = (End A)Q'.

    ``summands`` decompose the base module A.  ``vertices`` restricts the sum
    to a vertex subset; the right-hand side is then the path algebra of the
    full subquiver on those vertices, while the adjoints still live over the
    ambient quiver.  (Used with the non-sink vertices, where ambient paths
    between kept vertices never leave the subset.)
    """
    cat = mod_cat(a)
    gamma_alg = end_algebra(summands, cat)
    total, _, _ = alg.direct_sum_mods(a, summands)
    if vertices is None:
        use_q = q
    else:
        from .quiver import subquiver
        use_q = subquiver(q, vertices)
    rhs, rhs_labels = path_block_algebra(gamma_alg.sc, use_q)
    # LHS pieces over the ambient quiver
    if side == "lambda":
        pieces = {v: rc.left_adjoint(q, v, total) for v in use_q.vertices}
    else:
        pieces = {v: rc.right_adjoint(q, v, total) for v in use_q.vertices}
    tot_rep, injs, projs = rc.rep_direct_sum(q, a, [pieces[v] for v in use_q.vertices])
    vindex = {v: i for i, v in enumerate(use_q.vertices)}
    f = a.field
    _, sinjs, sprojs = alg.direct_sum_mods(a, summands)

    def gamma_map(g_index):
        src, dst, t = gamma_alg.labels[g_index]
        base = gamma_alg.blocks[(src, dst)][1][t]
        return sinjs[dst].compose(base).compose(sprojs[src])

    chi_maps = []
    for p, g in rhs_labels:
        gm = gamma_map(g)
        v, w = p.target, p.source  # morphism e^v -> e^w for path p: w ~> v
        src_piece, dst_piece = pieces[v], pieces[w]
        # gm placed block by block between the copies indexed by paths
        mats = {}
        for x in q.vertices:
            if side == "lambda":  # copy qq : v ~> x goes to copy p.qq
                dst_idx = {pp: i for i, pp in enumerate(dst_piece._adjoint[3][x])}
                pairs = [(i, dst_idx[concat(p, qq)])
                         for i, qq in enumerate(src_piece._adjoint[3][x])]
            else:  # copy rr.p goes to copy rr : x ~> w
                src_idx = {pp: i for i, pp in enumerate(src_piece._adjoint[3][x])}
                pairs = [(src_idx[concat(rr, p)], j)
                         for j, rr in enumerate(dst_piece._adjoint[3][x])]
            mats[x] = rc._copy_map(gm, src_piece.mods[x], dst_piece.mods[x], pairs)
        comp = rc.RepMap(src_piece, dst_piece, mats)
        chi_maps.append(injs[vindex[w]].compose(comp).compose(projs[vindex[v]]))

    details = {}
    for chi in chi_maps:
        if not chi.is_valid():
            raise IsoCheckFailed("a correspondence morphism is not natural")
    flats = [Mat.column(f, chi.flatten()) for chi in chi_maps]
    stacked = Mat.hstack(f, flats) if flats else Mat.zeros(f, 0, 0)
    lhs_dim = rc.rep_hom_dim(tot_rep, tot_rep)
    rhs_dim = rhs.dim
    details["independent"] = (rank(stacked) == len(chi_maps)) if chi_maps else True
    details["dims_match"] = lhs_dim == rhs_dim
    if not (details["independent"] and details["dims_match"]):
        raise IsoCheckFailed(f"correspondence is not bijective: {details}")
    # structure constants agree
    ok = True
    for i, ci in enumerate(chi_maps):
        for j, cj in enumerate(chi_maps):
            comp = ci.compose(cj)
            flat = Mat.column(f, comp.flatten())
            coords = solve_matrix(stacked, flat)
            if coords is None:
                raise IsoCheckFailed("composite escapes the correspondence span")
            if tuple(coords.column_vector()) != rhs.mult[i][j]:
                ok = False
    details["structure_constants"] = ok
    if not ok:
        raise IsoCheckFailed("structure constants disagree under the correspondence")
    return EndIsoReport(lhs_dim, rhs_dim, True, side, details)


# -- Hom vanishing between sink injectives and non-sink projectives ---------------------

@dataclass
class VanishingReport:
    hypothesis_ok: bool
    pairs: list  # (sink v, non-sink w, dim)
    all_zero: bool


def sink_hom_vanishing(q: Quiver, a, module) -> VanishingReport:
    """dim Hom(e^v_rho(A), e^w_lambda(A)) for sinks v and non-sinks w."""
    hyp = not is_type_An(q)
    s = sinks(q)
    non = [v for v in q.vertices if v not in s]
    pairs = []
    for v in s:
        ev = rc.right_adjoint(q, v, module)
        for w in non:
            ew = rc.left_adjoint(q, w, module)
            pairs.append((v, w, rc.rep_hom_dim(ev, ew)))
    return VanishingReport(hyp, pairs, all(d == 0 for _, _, d in pairs))
