"""Endomorphism algebras of explicit module lists, as structure-constant algebras.

The summands may be base-algebra modules or quiver representations; the
category adapter :class:`cats.Cat` (``cats.mod_cat`` / ``cats.rep_cat``)
hides the difference.  Products compose in the usual order
(f * g = f o g), so Hom(U, W) is a left End(W)-module by post-composition,
and the hom block of a basis index is read off ``blocks`` (``block_of``).
The isomorphism End(sum_v e^v_side(A)) = (End A)Q' is checked in the End
algebra of the adjoints (in the pipeline, a corner of End(X-bar)): the map
attached to a path p and a basis map g of End A places g between the copies
indexed by paths, and is re-expressed by the reader of every End table.

Summands must be indecomposable with split local End (End(X)/rad = k), as the
summands of a basic generator-cogenerator are.  ``end_algebra`` then builds
the radical of End from the hom blocks, in every characteristic, and attaches
it; a certificate that always runs proves it is the radical, and a summand
outside the hypothesis raises :class:`NotSplit` naming it.

End(X-bar) is built once.  For summands indexed by I, End(sum_I X_i) is its
corner eEe (e the sum of their idempotents), and the triangular algebra
[[End R, 0], [Hom(R, S), End S]] is E's table on the blocks of R + S without
Hom(S, R).  Both are sub-tables that take E's radical block by block
(rad(eEe) = e.rad(E).e, Anderson-Fuller; the radical of a triangular ring is
[[rad R, 0], [M, rad S]], Fossum-Griffith-Reiten), so only ``end_algebra``
builds and certifies a radical.  The actions on Hom(sum_I X_i, sum_J X_j)
are sub-tables too: gamma o h = mult[gamma][h] and h o gamma = mult[h][gamma],
read block by block: a map into the k-th target summand has the grade of
the k-th idempotent of the corner (``hom_as_end_module``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from . import repcat as rc
from .algebra import SCAlgebra, _is_nilpotent
from .cats import Cat
from .errors import CompositionInconsistent, IsoCheckFailed, NotSplit, QuivhomError
from .exactlin import Mat, _kernel_blocks, rank, solve_matrix
from .quiver import Quiver, concat, paths_between, subquiver, trivial_path
from .scmodule import SCModule, _table_module


@dataclass
class EndAlgebra:
    sc: SCAlgebra
    summands: list
    cat: Cat
    blocks: dict      # (src, dst) -> (offset, [basis maps])
    _corners: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self):
        return self.sc.dim

    def positions(self, sources, targets):
        """Basis indices of the blocks (i, j), i in sources and j in targets."""
        bad = [i for i in (*sources, *targets) if i not in range(len(self.summands))]
        if bad:
            raise QuivhomError(f"no summands {bad}: End has {len(self.summands)}")
        out = []
        for i in sources:
            for j in targets:
                off, basis = self.blocks[(i, j)]
                out.extend(range(off, off + len(basis)))
        return out

    def block_of(self, b):
        """(i, j, t): b is the t-th basis map of the first hom block ending after b."""
        (i, j), (off, _) = next((k, v) for k, v in self.blocks.items() if b < v[0] + len(v[1]))
        return i, j, b - off

    def corner(self, idx) -> "EndAlgebra":
        """End(sum of the summands at ``idx``, in summand order) as the corner
        eEe; built once per index list and shared, so not to be mutated.
        Each index may occur once."""
        idx = tuple(idx)
        got = self._corners.get(idx)
        if got is None:
            got = self._corners[idx] = self._sub_table(idx, ())
        return got

    def triangular(self, r_idx, s_idx) -> "EndAlgebra":
        """Sigma = [[End R, 0], [Hom(R, S), End S]], R and S the sums of the
        summands at ``r_idx`` and ``s_idx``: the sub-table of E on the blocks
        of R + S without Hom(S, R), kept as an empty block.  A composite of
        kept maps that runs from S to R has a factor in Hom(S, R), so no
        product of kept blocks lands in the dropped one and this is Sigma's
        multiplication table; it is End(R + S) when Hom(S, R) = 0."""
        r_idx, s_idx = tuple(r_idx), tuple(s_idx)
        return self._sub_table(r_idx + s_idx, {(i, j) for i in s_idx for j in r_idx})

    def _sub_table(self, idx, dropped) -> "EndAlgebra":
        """The sub-table of E on the blocks (i, j), i and j in ``idx``, less
        the ``dropped`` ones; associative as E is when no product of kept
        blocks lands in a dropped one.  Structure constants, idempotents and
        radical are read off E, with no second certificate: the radical is
        E's on each kept block whose reverse is kept (rad(eEe) = e.rad(E).e),
        and the whole block where the reverse is dropped (the off-diagonal
        bimodule of a triangular ring lies in its radical)."""
        repeated = sorted({i for i in idx if idx.count(i) > 1})
        if repeated:
            raise QuivhomError(f"summand indices {repeated} repeat: a sub-table takes each summand once")
        f, sc = self.cat.field, self.sc
        rad_of = {}  # E's radical vectors by hom block; each lies in one
        for x in sc.known_radical:
            rad_of.setdefault(self.block_of(next(b for b, c in enumerate(x) if c))[:2], []).append(x)
        kept = {(i, j): [] if (i, j) in dropped else self.positions((i,), (j,))
                for i in idx for j in idx}
        pos = [z for i in idx for j in idx for z in kept[(i, j)]]
        unit_rows = Mat.identity(f, len(pos)).row_list()
        blocks, radical, off = {}, [], 0
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                d = len(kept[(i, j)])
                blocks[(a, b)] = (off, self.blocks[(i, j)][1] if d else [])
                if (j, i) in dropped:
                    radical.extend(unit_rows[off:off + d])
                else:
                    radical.extend(tuple(x[z] for z in pos) for x in rad_of.get((i, j), []))
                off += d
        sub = SCAlgebra(f, [[tuple(sc.mult[x][y][z] for z in pos) for y in pos] for x in pos],
                        [sc.unit[z] for z in pos],
                        idempotents=[[sc.idempotents[i][z] for z in pos] for i in idx],
                        radical=radical)
        return EndAlgebra(sub, [self.summands[i] for i in idx], self.cat, blocks)


def end_algebra(summands, cat: Cat) -> EndAlgebra:
    """End(sum of summands) with structure constants from exact re-expression.

    The table is associative by construction: each product of basis maps is
    the exact re-expression of their composite (a composite outside the span
    raises :class:`CompositionInconsistent`), the basis maps are linearly
    independent, and composition is associative.  So no dim^3 check runs; the
    unit and idempotent axioms are checked by ``SCAlgebra``.

    The summands must be indecomposable with split local End (End(X)/rad = k).
    The Jacobson radical is built from the hom blocks (see :func:`_block_radical`)
    and attached; its certificate always runs and raises :class:`NotSplit`,
    naming the summand, when a summand breaks the hypothesis.
    """
    summands = list(summands)
    f = cat.field
    blocks, dim = {}, 0
    for i, s in enumerate(summands):
        for j, t in enumerate(summands):
            basis = cat.hom_basis(s, t)
            blocks[(i, j)] = (dim, basis)
            dim += len(basis)
    express = _block_reader(cat, blocks, dim)
    zero_vec = tuple(f.zero() for _ in range(dim))
    mult = [[zero_vec for _ in range(dim)] for _ in range(dim)]
    for (c, d), (off_g, basis_g) in blocks.items():
        for b in range(len(summands)):
            off_f, basis_f = blocks[(d, b)]
            for gi, g in enumerate(basis_g):
                for fi, fmap in enumerate(basis_f):
                    mult[off_f + fi][off_g + gi] = tuple(express(c, b, cat.compose(fmap, g)))
    idems = [express(i, i, cat.identity(s)) for i, s in enumerate(summands)]
    unit = [f.zero()] * dim
    for e in idems:
        unit = [f.add(u, x) for u, x in zip(unit, e)]
    parts = _block_radical(f, blocks, mult, len(summands))
    sc = SCAlgebra(f, mult, tuple(unit), idempotents=[tuple(e) for e in idems],
                   radical=[x for _, vecs in parts.values() for x in vecs])
    _certify_radical(sc, blocks, parts)
    return EndAlgebra(sc, summands, cat, blocks)


def _block_reader(cat: Cat, blocks, dim):
    """express(i, j, h): the coordinates of h: X_i -> X_j in the basis of the
    hom block (i, j), as a vector of length ``dim``; a map outside the block's
    span raises :class:`CompositionInconsistent`."""
    f = cat.field
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

    return express


def _residues(f, mult, off, d, i):
    """chi_i on the basis of the corner End(X_i) at offset ``off``, dimension d.

    On a split local corner, left multiplication L_b by a basis element b is
    chi_i(b).I plus a nilpotent.  In characteristic 0 read chi_i(b) from the
    trace; over GF(p) from L_b^(p^s) = chi_i(b).I with p^s >= d.
    """
    corner = range(off, off + d)
    if f.kind == "q":
        return [f.div(sum((mult[b][h][h] for h in corner), f.zero()), f.of_int(d)) for b in corner]
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

    The ideal check multiplies each x in J_ij (maps X_i -> X_j) by the basis
    maps of the blocks (j, k) on the left and (k, i) on the right, and tests
    the nonzero products.  Every other product of basis maps is a composite
    of maps whose ends do not meet, which ``end_algebra`` leaves zero in the
    table, so it lies in J trivially.
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

    unit_vecs = Mat.identity(f, sc.dim).row_list()
    out_of, into = {}, {}  # summand s -> unit vectors of the blocks (s, k), resp. (k, s)
    for (a, b), (off, basis) in blocks.items():
        out_of.setdefault(a, []).extend(unit_vecs[off:off + len(basis)])
        into.setdefault(b, []).extend(unit_vecs[off:off + len(basis)])
    for (i, j), (_, vecs) in parts.items():
        for x in vecs:
            prods = chain((sc.multiply(e, x) for e in out_of[j]), (sc.multiply(x, e) for e in into[i]))
            if not all(in_radical(v) for v in prods if any(v)):
                raise NotSplit(f"radical of Hom(summand {i}, summand {j}) is not an ideal")
    if not _is_nilpotent(sc, sc.known_radical):
        raise NotSplit("the block radical is not nilpotent")


def hom_as_end_module(e: EndAlgebra, sources, targets) -> SCModule:
    """Hom(sum of the summands at ``sources``, sum of those at ``targets``)
    as a left module over ``e.corner(targets)`` by post-composition, graded
    by the corner's idempotents: a map into the k-th target summand has
    grade k, and its blocks are sub-tables of E."""
    targets, basis, ends = list(targets), [], []
    for i in sources:
        for k, j in enumerate(targets):
            pos = e.positions((i,), (j,))
            basis.extend(pos)
            ends.extend([k] * len(pos))
    return _table_module(e.corner(targets).sc, e.sc, e.positions(targets, targets), basis, ends)


# -- path-block algebra and the End iso -----------------------------------------------

def path_block_algebra(gamma: SCAlgebra, q: Quiver) -> tuple:
    """(End A)Q with basis (path, gamma-basis element).

    Product ((d, r) * (g, p)) = (d * g, r then p), nonzero when r ends where
    p starts; this matches composition of the attached morphisms.
    """
    f, n = gamma.field, gamma.dim
    paths = [p for v in q.vertices for w in q.vertices for p in paths_between(q, v, w)]
    labels = [(p, g) for p in paths for g in range(n)]  # (paths[pi], g) sits at pi * n + g
    dim = len(labels)
    zero_vec = tuple(f.zero() for _ in range(dim))
    mult = [[zero_vec for _ in range(dim)] for _ in range(dim)]
    path_index = {p: i for i, p in enumerate(paths)}
    for i, (r, d) in enumerate(labels):
        for j, (p, g) in enumerate(labels):
            pi = path_index.get(concat(r, p)) if r.target == p.source else None
            if pi is not None:
                vec = list(zero_vec)
                vec[pi * n:(pi + 1) * n] = gamma.mult[d][g]
                mult[i][j] = tuple(vec)
    unit = list(zero_vec)
    for v in q.vertices:
        pi = path_index[trivial_path(v)]
        unit[pi * n:(pi + 1) * n] = gamma.unit
    return SCAlgebra(f, mult, tuple(unit)), labels


@dataclass
class EndIsoReport:
    lhs_dim: int
    rhs_dim: int
    verified: bool
    side: str


def adjoint_end_iso(q: Quiver, gamma: EndAlgebra, lhs: EndAlgebra) -> EndIsoReport:
    """Check the algebra isomorphism (End A)Q' = ``lhs``.

    ``gamma`` is End(A), built by :func:`end_algebra` from the summands A_i of
    A.  ``lhs`` is the End algebra (in the pipeline, a corner of End(X-bar))
    of the adjoints e^v_side(A_i) over ``q`` of one side, vertex-major in the
    order of ``q.vertices`` and over ``gamma.summands`` within a vertex; side
    and vertices are read off the summands, and other summands raise
    :class:`QuivhomError`.  Q' is the full subquiver on those vertices.

    The basis element (p, g) of :func:`path_block_algebra`, p: w ~> v and
    g: A_s -> A_t, is the map chi: e^v(A_s) -> e^w(A_t) placing g between the
    copies indexed by paths (lambda: copy r to copy p.r; rho: copy r.p to
    copy r), re-expressed in its hom block of ``lhs`` by the reader of
    :func:`end_algebra`.  Outside the block's span chi is not natural.  The
    coordinates c_i must have rank dim (End A)Q' = dim lhs, and c_i * c_j
    must be sum_k mult[i][j][k] c_k; else :class:`IsoCheckFailed` is raised.
    """
    n_a, f = len(gamma.summands), lhs.cat.field
    tags = [getattr(s, "_adjoint", None) for s in lhs.summands]
    if not tags or None in tags or len(tags) % n_a:
        raise QuivhomError("lhs is not a vertex-major sum of adjoints of gamma's summands")
    side, verts = tags[0][0], [t[1] for t in tags[::n_a]]
    if verts != [v for v in q.vertices if v in verts]:
        raise QuivhomError(f"lhs vertices {verts} are not distinct vertices in quiver order")
    for k, (s, tag) in enumerate(zip(lhs.summands, tags)):
        want = (side, verts[k // n_a], gamma.summands[k % n_a])
        if rc.quiver_and_base(s)[0] != q or tag[:3] != want:
            raise QuivhomError(f"summand {k} of lhs is not e^{verts[k // n_a]}_{side}(A_{k % n_a})")
    rhs, labels = path_block_algebra(gamma.sc, subquiver(q, verts))
    express = _block_reader(lhs.cat, lhs.blocks, lhs.dim)
    coords = []
    for p, g in labels:
        a_s, a_t, t = gamma.block_of(g)
        i, j = verts.index(p.target) * n_a + a_s, verts.index(p.source) * n_a + a_t
        src, dst = lhs.summands[i], lhs.summands[j]
        pairs = {}
        for x in q.vertices:
            if side == "lambda":
                at = dst._adjoint[3].index[x]
                pairs[x] = [(n, at[concat(p, r)]) for n, r in enumerate(src._adjoint[3].paths[x])]
            else:
                at = src._adjoint[3].index[x]
                pairs[x] = [(at[concat(r, p)], n) for n, r in enumerate(dst._adjoint[3].paths[x])]
        chi = rc._copy_map(src, dst, gamma.blocks[(a_s, a_t)][1][t].mats, pairs)
        try:
            coords.append(express(i, j, chi))
        except CompositionInconsistent as exc:
            raise IsoCheckFailed(f"the map of ({p}, {g}) is not natural") from exc
    if not lhs.dim == rhs.dim == rank(Mat.from_rows(f, coords)):
        raise IsoCheckFailed(f"not bijective: dim lhs {lhs.dim}, dim (End A)Q' {rhs.dim}")
    cols = list(zip(*coords))
    for i, ci in enumerate(coords):
        for j, cj in enumerate(coords):
            if list(lhs.sc.multiply(ci, cj)) != [_dot(f, rhs.mult[i][j], c) for c in cols]:
                raise IsoCheckFailed("structure constants disagree under the correspondence")
    return EndIsoReport(lhs.dim, rhs.dim, True, side)

