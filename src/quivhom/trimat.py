"""Module category of a formal triangular matrix ring [[R, 0], [M, S]].

Left modules are triples (X, Y)_phi with X an R-module, Y an S-module and
phi : M (x)_R X -> Y an S-linear map.  The tensor product is the quotient of
the span of pure pairs by the bilinearity relations, built by
``algebra.quotient_by_rows``: its ``free`` list names the pure pairs kept,
and its section ``lift`` holds the unit vectors at them.  The column
projectives are e^1_lambda(Re_i) = (Re_i, M(x)Re_i)_1 and
e^2_lambda(Se_j) = (0, Se_j)_0; covers in the triple category are driven by
the radical (rad X, rad Y + im phi).

By the tensor-hom adjunction phi is the same data as M's action on the
triple, psi_k = phi(m_k (x) -) : X -> Y for each basis element m_k of M:
the k-th column block of Psi = phi . proj (``TripleModule.psi``), and phi
is the ``free`` columns of Psi.  So triple maps are solved and checked
through Psi (w . psi_k = psi'_k . u), and phi . (M (x) u) is read off the
columns of [psi_k . u]_k (``TripleModule.psi_after``): kernels, quotients,
covers and split tests build no tensor map.  ``tensor_map`` is left to the
functors of ``derived``, which transport maps to M (x) X itself.

M (x)_R - is additive, so the tensor of a direct sum is never eliminated
again: ``tensor_of_sum`` places the summands' tensors, ``triple_sum``
places their phis, and a cover's X-side, a sum of column projectives Re_i,
takes M (x) Re_i from a cache kept on the ``TriRingSpec``, as is the one
M (x) 0 of every triple with X = 0.  ``tensor_basis`` is the general path
(kernels, quotients, simple tops).

The canonical sequence 0 -> (0, M(x)X)_0 -> (X, M(x)X)_1 + (0, Y)_0 ->
(X, Y)_phi -> 0 is the standard triangle of a complex of triples:
``triple_ses`` gives its two maps on terms the caller has built, which
``derived`` reads off the functor images its witness pushes.

Triples serve T2(Lambda) = [[Lambda, 0], [Lambda, Lambda]] (``t2_spec``) in
the witnesses and functors of ``derived`` and in resolutions over T2, and
general triangular rings as an oracle.  The repdim proof does not go through
them: its Sigma is a sub-table of End(X-bar) (``endo.EndAlgebra.triangular``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import SCAlgebra, _read_off_units, column_space, quotient_by_rows, sc_of_bqa
from .bounds import Dim, dim_max, syzygy_pd, syzygy_steps
from .errors import AlgebraMismatch, CompositionInconsistent, DimensionMismatch, QuivhomError
from .exactlin import Mat, _commuting_rows, _kernel_blocks, _null_space, rank, solve_matrix
from . import scmodule as scm
from .scmodule import ColumnData, SCModule, sum_sc


@dataclass
class Bimodule:
    """S-R-bimodule: left action per S basis element, right per R basis element."""

    s: SCAlgebra
    r: SCAlgebra
    dim: int
    left: list
    right: list

    def __post_init__(self):
        if len(self.left) != self.s.dim or len(self.right) != self.r.dim:
            raise DimensionMismatch("one action matrix per algebra basis element")
        for m in self.left + self.right:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise DimensionMismatch("bimodule action matrices must be square")

    def left_act(self, coeffs) -> Mat:
        return scm._combination(self.s.field, self.dim, self.left, coeffs)

    def right_act(self, coeffs) -> Mat:
        return scm._combination(self.r.field, self.dim, self.right, coeffs)

    def check(self) -> bool:
        f = self.s.field
        if self.dim and (not self.left_act(self.s.unit).is_identity()
                         or not self.right_act(self.r.unit).is_identity()):
            return False
        sdim, rdim = self.s.dim, self.r.dim
        for i in range(sdim):
            for j in range(sdim):
                if self.left[i].mul(self.left[j]) != self.left_act(self.s.mult[i][j]):
                    return False
        for i in range(rdim):
            for j in range(rdim):
                # right action reverses products
                if self.right[i].mul(self.right[j]) != self.right_act(self.r.mult[j][i]):
                    return False
        for i in range(sdim):
            for j in range(rdim):
                if self.left[i].mul(self.right[j]) != self.right[j].mul(self.left[i]):
                    return False
        return True


@dataclass
class TriRingSpec:
    r: SCAlgebra
    s: SCAlgebra
    m: Bimodule
    name: str = ""
    _column_tensors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # M (x) 0, shared by every triple with X = 0; callers must not mutate it
    zero_tensor: "TensorData" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.m.check():
            raise QuivhomError("bimodule axioms fail")
        z = Mat.zeros(self.r.field, 0, 0)
        self.zero_tensor = TensorData([], z, z, [z] * self.s.dim)

    def coldata_r(self) -> ColumnData:
        return scm.column_data(self.r)

    def coldata_s(self) -> ColumnData:
        return scm.column_data(self.s)

    def column_tensor(self, i) -> "TensorData":
        """M (x) Re_i for the i-th column projective of R, built once per
        column; the result is shared, so callers must not mutate it."""
        td = self._column_tensors.get(i)
        if td is None:
            td = self._column_tensors[i] = tensor_basis(self, self.coldata_r().columns[i][0])
        return td

    def m_as_left_s_module(self) -> SCModule:
        return SCModule(self.s, self.m.dim, list(self.m.left))


def t2_spec(base_bqa, name="T2") -> TriRingSpec:
    """T_2(Lambda): R = S = Lambda, M = Lambda as the regular bimodule."""
    sc = sc_of_bqa(base_bqa)
    basis = range(sc.dim)
    m = Bimodule(sc, sc, sc.dim, scm.table_actions(sc, basis, basis),
                 scm.table_actions(sc, basis, basis, left=False))
    return TriRingSpec(sc, sc, m, name=name)


# -- tensor product over R ---------------------------------------------------------

@dataclass
class TensorData:
    free: list  # the pure coordinates (m_k, x_j), k*xdim + j, the quotient keeps
    proj: Mat  # (tensor dim) x (m*x): quotient projection
    lift: Mat  # (m*x) x (tensor dim): section of proj, the unit vectors at free
    s_action: list  # induced left S-action matrices on the tensor

    @property
    def dim(self) -> int:
        return len(self.free)


def tensor_basis(spec: TriRingSpec, x: SCModule) -> TensorData:
    """M (x)_R X as the quotient of the free span of pure pairs (m_k, x_j) by
    the relations m c (x) x - m (x) c x, c in the basis of R
    (``quotient_by_rows``).  X = 0 gives the spec's shared zero tensor."""
    if not x.dim:
        return spec.zero_tensor
    f = spec.r.field
    mdim, xdim = spec.m.dim, x.dim
    total = mdim * xdim
    zero, add, sub = f.zero(), f.add, f.sub
    rel_rows = []
    for c in range(spec.r.dim):
        rho = spec.m.right[c].entries
        act = x.action[c].entries
        for i in range(mdim):
            rho_col = rho[i::mdim]
            for j in range(xdim):
                row = [zero] * total
                for k, v in enumerate(rho_col):
                    if v:
                        row[k * xdim + j] = add(row[k * xdim + j], v)
                for l, v in enumerate(act[j::xdim]):
                    if v:
                        row[i * xdim + l] = sub(row[i * xdim + l], v)
                if any(row):
                    rel_rows.append(row)
    proj, lift, free = quotient_by_rows(Mat.from_rows(f, rel_rows) if rel_rows
                                        else Mat.zeros(f, 0, total))
    s_action = [proj.mul(Mat.kron(spec.m.left[b], Mat.identity(f, xdim))).mul(lift)
                for b in range(spec.s.dim)]
    return TensorData(free, proj, lift, s_action)


def tensor_module(spec: TriRingSpec, td: TensorData) -> SCModule:
    return SCModule(spec.s, td.dim, list(td.s_action))


def tensor_map(spec: TriRingSpec, td_src: TensorData, td_dst: TensorData, u: Mat) -> Mat:
    """Induced map M (x) u between tensor quotients."""
    f = spec.r.field
    big = Mat.kron(Mat.identity(f, spec.m.dim), u)
    return td_dst.proj.mul(big).mul(td_src.lift)


def tensor_of_sum(spec: TriRingSpec, tensors, xdims):
    """M (x) (X_1 + ... + X_n) from the summands' tensors, with no elimination.

    ``xdims`` are the dimensions of the X_b.  Pure coordinate (m_k, x_j) of
    X_b is k*xdim + off_b + j of the sum, an increasing map, and the
    relations of the sum are the summands' relations on these disjoint
    coordinates.  So the summands' RREF rows, sorted by pivot, are the RREF
    of the sum: its free columns are the summands' free columns, sorted, and
    proj, lift and the S-action are the summands' matrices placed there.
    The summands' ``free`` lists give those columns, so nothing is read back
    out of their matrices.  The result equals ``tensor_basis`` of the sum
    entry for entry, and X = 0 gives the spec's shared zero tensor, as in
    ``tensor_basis``.  Returns it with, per summand, the tensor coordinates
    its own ones land on."""
    f = spec.r.field
    mdim, xdim = spec.m.dim, sum(xdims)
    if not xdim:
        return spec.zero_tensor, [[] for _ in tensors]
    pure, off = [], 0
    for d in xdims:
        pure.append([k * xdim + off + j for k in range(mdim) for j in range(d)])
        off += d
    order = sorted((pure[b][c], b, t) for b, td in enumerate(tensors) for t, c in enumerate(td.free))
    places = [[0] * td.dim for td in tensors]
    for at, (_, b, t) in enumerate(order):
        places[b][t] = at
    tdim, total = len(order), mdim * xdim
    proj = _scatter(f, tdim, total, [(places[b], pure[b], td.proj) for b, td in enumerate(tensors)])
    lift = _scatter(f, total, tdim, [(pure[b], places[b], td.lift) for b, td in enumerate(tensors)])
    s_action = [_scatter(f, tdim, tdim, [(places[b], places[b], td.s_action[a])
                                         for b, td in enumerate(tensors)])
                for a in range(spec.s.dim)]
    return TensorData([c for c, _, _ in order], proj, lift, s_action), places


def _scatter(f, rows, cols, pieces):
    """rows x cols matrix holding each (row positions, column positions,
    block) of ``pieces`` at those positions; the positions are disjoint."""
    ent = [f.zero()] * (rows * cols)
    for rpos, cpos, m in pieces:
        w = m.cols
        for r, i in enumerate(rpos):
            base = i * cols
            for c, v in enumerate(m.entries[r * w:(r + 1) * w]):
                if v:
                    ent[base + cpos[c]] = v
    return Mat(f, rows, cols, tuple(ent))


# -- triples -----------------------------------------------------------------------

@dataclass
class TripleModule:
    spec: TriRingSpec
    x: SCModule
    y: SCModule
    phi: Mat
    tensor: TensorData = None

    def __post_init__(self):
        if self.x.sc is not self.spec.r or self.y.sc is not self.spec.s:
            raise AlgebraMismatch("X must be over R and Y over S of the triple's ring")
        if self.tensor is None:
            self.tensor = tensor_basis(self.spec, self.x)
        if (self.phi.rows, self.phi.cols) != (self.y.dim, self.tensor.dim):
            raise DimensionMismatch("phi must map the tensor onto Y")

    def dim_total(self) -> int:
        return self.x.dim + self.y.dim

    def is_zero(self) -> bool:
        return self.dim_total() == 0

    def check(self) -> bool:
        if not (self.x.check() and self.y.check()):
            return False
        for b in range(self.spec.s.dim):
            if self.phi.mul(self.tensor.s_action[b]) != self.y.action[b].mul(self.phi):
                return False
        return True

    def psi(self):
        """M's action on the triple: psi_k = phi(m_k (x) -) : X -> Y, one
        Y x X block per basis element m_k of M, cut from Psi = phi . proj
        (built on each call, not stored)."""
        f, n, y = self.spec.r.field, self.x.dim, self.y.dim
        big, w = self.phi.mul(self.tensor.proj).entries, self.spec.m.dim * n
        return [Mat(f, y, n, tuple(e for i in range(y) for e in big[i * w + k * n:i * w + k * n + n]))
                for k in range(self.spec.m.dim)]

    def psi_after(self, v: Mat, cols) -> Mat:
        """The columns ``cols`` of [psi_k . v]_k, the Y x (dim M * v.cols)
        matrix whose column k * v.cols + j is phi(m_k (x) v e_j).  At the
        ``free`` columns of the tensor of v's source this is
        phi . (M (x) v), because the tensor's ``lift`` holds the unit
        vectors at ``free``."""
        d = v.cols
        psi = self.psi()
        prods = {k: psi[k].mul(v) for k in {c // d for c in cols}}
        return Mat(self.spec.r.field, self.y.dim, len(cols),
                   tuple(prods[c // d].entries[i * d + c % d] for i in range(self.y.dim) for c in cols))


@dataclass
class TripleMap:
    source: TripleModule
    target: TripleModule
    u: Mat  # X -> X'
    w: Mat  # Y -> Y'

    def __post_init__(self):
        s, t = self.source, self.target
        if (self.u.rows, self.u.cols) != (t.x.dim, s.x.dim) \
                or (self.w.rows, self.w.cols) != (t.y.dim, s.y.dim):
            raise DimensionMismatch(f"u is {self.u.rows}x{self.u.cols} and w is "
                                    f"{self.w.rows}x{self.w.cols} for a map "
                                    f"({s.x.dim}, {s.y.dim}) -> ({t.x.dim}, {t.y.dim})")

    def is_valid(self) -> bool:
        s, t = self.source, self.target
        for c in range(s.spec.r.dim):
            if self.u.mul(s.x.action[c]) != t.x.action[c].mul(self.u):
                return False
        for b in range(s.spec.s.dim):
            if self.w.mul(s.y.action[b]) != t.y.action[b].mul(self.w):
                return False
        return all(self.w.mul(ps) == pt.mul(self.u) for ps, pt in zip(s.psi(), t.psi()))

    def compose(self, other: "TripleMap") -> "TripleMap":
        return TripleMap(other.source, self.target, self.u.mul(other.u), self.w.mul(other.w))

    def add(self, other: "TripleMap") -> "TripleMap":
        return TripleMap(self.source, self.target, self.u.add(other.u), self.w.add(other.w))

    def scale(self, c) -> "TripleMap":
        return TripleMap(self.source, self.target, self.u.scale(c), self.w.scale(c))

    def flatten(self):
        return list(self.u.entries) + list(self.w.entries)

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.w.is_zero()


def e1_lambda(spec: TriRingSpec, x: SCModule) -> TripleModule:
    td = tensor_basis(spec, x)
    return TripleModule(spec, x, tensor_module(spec, td),
                        Mat.identity(spec.r.field, td.dim), td)


def e2_lambda(spec: TriRingSpec, y: SCModule) -> TripleModule:
    zx = scm.zero_sc_module(spec.r)
    return TripleModule(spec, zx, y, Mat.zeros(spec.r.field, y.dim, 0), spec.zero_tensor)


def identity_triple_map(t: TripleModule) -> TripleMap:
    f = t.spec.r.field
    return TripleMap(t, t, Mat.identity(f, t.x.dim), Mat.identity(f, t.y.dim))


def triple_sum(spec: TriRingSpec, triples) -> TripleModule:
    """Sum of triples: X, Y and M (x) X are placed summand by summand, so phi
    is each summand's phi at its Y rows and tensor columns."""
    triples = list(triples)
    x = sum_sc(spec.r, [t.x for t in triples])
    y = sum_sc(spec.s, [t.y for t in triples])
    td, places = tensor_of_sum(spec, [t.tensor for t in triples], [t.x.dim for t in triples])
    pieces, at = [], 0
    for t, cols in zip(triples, places):
        pieces.append((range(at, at + t.y.dim), cols, t.phi))
        at += t.y.dim
    return TripleModule(spec, x, y, _scatter(spec.r.field, y.dim, td.dim, pieces), td)


def triple_summand_maps(total: TripleModule, triples):
    """(injs, projs) of ``total``, the direct sum of ``triples``: unit
    blocks on the X and on the Y parts."""
    f = total.spec.r.field
    xs = Mat.summand_units(f, [t.x.dim for t in triples])
    ys = Mat.summand_units(f, [t.y.dim for t in triples])
    return ([TripleMap(t, total, xi, yi) for t, (xi, _), (yi, _) in zip(triples, xs, ys)],
            [TripleMap(total, t, xp, yp) for t, (_, xp), (_, yp) in zip(triples, xs, ys)])


def triple_direct_sum(spec: TriRingSpec, triples):
    """``triple_sum`` with its injections and projections: read only by the
    benchmark's input builder, and kept until it calls ``triple_sum``."""
    triples = list(triples)
    total = triple_sum(spec, triples)
    return (total, *triple_summand_maps(total, triples))


def triple_hom_basis(a: TripleModule, b: TripleModule):
    """Basis of triple maps a -> b: an R-map u : X_a -> X_b and an S-map
    w : Y_a -> Y_b with w . phi_a = phi_b . (M (x) u), read through M's
    action as w . psi^a_k = psi^b_k . u for every basis element m_k of M.
    For an R-linear u the two conditions have the same solutions, so this
    is one commuting-map system over (u, w)."""
    f = a.spec.r.field
    shapes = [(b.x.dim, a.x.dim), (b.y.dim, a.y.dim)]
    rows = _commuting_rows(f, shapes, [(0, sa, 0, ta) for sa, ta in zip(a.x.action, b.x.action)]
                           + [(1, sa, 1, ta) for sa, ta in zip(a.y.action, b.y.action)]
                           + [(1, pa, 0, pb) for pa, pb in zip(a.psi(), b.psi())])
    return [TripleMap(a, b, u, w) for u, w in _kernel_blocks(f, rows, shapes)]


# -- the canonical exact sequence ----------------------------------------------------

def triple_ses(t: TripleModule, left: TripleModule, middle: TripleModule):
    """(f, g) of 0 -> (0, M(x)X)_0 -> (X, M(x)X)_1 + (0, Y)_0 -> (X, Y)_phi -> 0,
    on the terms ``left`` and ``middle`` its caller has built: f sends alpha
    to (alpha, phi(alpha)) and g sends (x; alpha, beta) to (x, phi(alpha) - beta).

    Exactness is not checked here: ``derived.ComplexSES.verify`` checks it
    by ranks, degree by degree, for the triangle glued from these maps."""
    f = t.spec.r.field
    (inj0, proj0), (inj1, proj1) = Mat.summand_units(f, [left.y.dim, t.y.dim])
    f_map = TripleMap(left, middle, Mat.zeros(f, t.x.dim, 0), inj0.add(inj1.mul(t.phi)))
    g_map = TripleMap(middle, t, Mat.identity(f, t.x.dim), t.phi.mul(proj0).sub(proj1))
    return f_map, g_map


# -- projectivity -------------------------------------------------------------------

def is_projective_triple(t: TripleModule):
    """FGR criterion with an independent lifting-test cross-check.

    Returns (bool, dict) with both verdicts."""
    spec = t.spec
    x_proj = scm.is_projective_sc(t.x)
    phi_mono = rank(t.phi) == t.tensor.dim
    coker, _, _ = scm.quotient_sc(t.y, t.phi)
    coker_proj = scm.is_projective_sc(coker)
    criterion = x_proj and phi_mono and coker_proj
    details = {"x_projective": x_proj, "phi_mono": phi_mono, "coker_projective": coker_proj}
    lifted = triple_split_test(t)
    details["lifting_test"] = lifted
    if lifted != criterion:
        raise CompositionInconsistent(
            f"projectivity criterion ({criterion}) disagrees with lifting test ({lifted})")
    return criterion, details


def triple_split_test(t: TripleModule) -> bool:
    """Universal map from column projectives splits iff the triple is projective.

    Each generator g in e_i X gives the map e^1_lambda(Re_i) -> t with
    u = (gamma -> gamma g) and w = phi . (M (x) u), the ``free`` columns
    of [psi_k . u]_k; each g in e_j Y gives (0, w) from e^2_lambda(Se_j)."""
    spec = t.spec
    f = spec.r.field
    if t.is_zero():
        return True
    pieces = []
    for i, e in enumerate(spec.r.idempotents):
        img = column_space(f, [t.x.act_vector(e)])
        piece = e1_lambda(spec, spec.coldata_r().columns[i][0])
        for j in range(img.cols):
            u = scm._map_from_columns(t.x, [i], [img.col(j)])[1].mat
            pieces.append(TripleMap(piece, t, u, t.psi_after(u, piece.tensor.free)))
    for i, e in enumerate(spec.s.idempotents):
        img = column_space(f, [t.y.act_vector(e)])
        piece = e2_lambda(spec, spec.coldata_s().columns[i][0])
        for j in range(img.cols):
            w = scm._map_from_columns(t.y, [i], [img.col(j)])[1].mat
            pieces.append(TripleMap(piece, t, Mat.zeros(f, t.x.dim, 0), w))
    if not pieces:
        return t.is_zero()
    # the direct sum concatenates the pieces' X and Y parts in order, so the
    # universal map places their blocks side by side
    total = triple_sum(spec, [p.source for p in pieces])
    u_map = TripleMap(total, t, Mat.hstack(f, [p.u for p in pieces]),
                      Mat.hstack(f, [p.w for p in pieces]))
    basis = triple_hom_basis(t, total)
    if not basis:
        return t.is_zero()
    cols = [Mat.column(f, u_map.compose(h).flatten()) for h in basis]
    rhs = Mat.column(f, identity_triple_map(t).flatten())
    return solve_matrix(Mat.hstack(f, cols), rhs) is not None


# -- radical, covers, pd --------------------------------------------------------------

def triple_radical(t: TripleModule):
    """(rad X, rad Y + im phi) as per-component column inclusions."""
    return scm.radical_submodule_sc(t.x), _radical_y(t)


def _radical_y(t: TripleModule) -> Mat:
    """Basis columns of rad Y + im phi."""
    return column_space(t.spec.r.field, [scm.radical_submodule_sc(t.y), t.phi])


def triple_projective_cover(t: TripleModule):
    spec = t.spec
    # X side: the minimal R-cover of X, a sum of column projectives Re_i,
    # already tops (X / rad X); its tensor is the cached M (x) Re_i placed
    xpieces, px, pix = scm.column_cover_sc(t.x)
    columns = spec.coldata_r().columns
    td, _ = tensor_of_sum(spec, [spec.column_tensor(i) for i in xpieces],
                          [columns[i][0].dim for i in xpieces])
    # Y side: generators in Y of the cover P_C of C = Y / (rad Y + im phi)
    pieces, gens = scm._cover_generators(t.y, _radical_y(t))
    pc, h = scm._map_from_columns(t.y, pieces, gens)
    # assemble the cover triple (P_X, tensor(P_X) + P_C)
    tmod = tensor_module(spec, td)
    cover_y = sum_sc(spec.s, [tmod, pc])
    (inj0, proj0), (_, proj1) = Mat.summand_units(spec.r.field, [tmod.dim, pc.dim])
    cover = TripleModule(spec, px, cover_y, inj0, td)
    # w is phi . (M (x) pi_X) on the tensor block and h on P_C
    w = t.psi_after(pix.mat, td.free).mul(proj0).add(h.mat.mul(proj1))
    pi = TripleMap(cover, t, pix.mat, w)
    if rank(pi.u) != t.x.dim or rank(pi.w) != t.y.dim:
        raise CompositionInconsistent("triple cover is not surjective")
    return cover, pi


def triple_kernel(f_map: TripleMap):
    """(K, incl) for K = (ker u, ker w) with phi_K corestricted from phi:
    phi . (M (x) incl_X), the free columns of [psi_k . incl_X]_k, read off
    the non-pivot rows where the kernel basis incl_Y is the identity
    (``_read_off_units``)."""
    s, t = f_map.source, f_map.target
    spec = s.spec
    kx, kx_incl = scm.kernel_of_sc(scm.SCMap(s.x, t.x, f_map.u))
    basis, units = _null_space(f_map.w)
    ky, ky_incl = scm._restrict_sc(s.y, basis, units)
    td_k = tensor_basis(spec, kx)
    phi_k = _read_off_units(basis, units, s.psi_after(kx_incl.mat, td_k.free))
    if phi_k is None:
        raise CompositionInconsistent("kernel phi does not corestrict")
    k = TripleModule(spec, kx, ky, phi_k, td_k)
    incl = TripleMap(k, s, kx_incl.mat, ky_incl.mat)
    return k, incl


def triple_pd(t: TripleModule, cap: int = 20) -> Dim:
    return syzygy_pd(t, cap, lambda n: syzygy_steps(t, [], n, triple_projective_cover, triple_kernel))


def simple_triples(spec: TriRingSpec):
    """(simple over R, 0)_0 and (0, simple over S)_0, one per idempotent class."""
    out = []
    cdr = spec.coldata_r()
    for cls, members in cdr.classes.items():
        s = cdr.simple_top(members[0])
        td = tensor_basis(spec, s)
        out.append(("r", cls, TripleModule(
            spec, s, scm.zero_sc_module(spec.s), Mat.zeros(spec.r.field, 0, td.dim), td)))
    cds = spec.coldata_s()
    for cls, members in cds.classes.items():
        s = cds.simple_top(members[0])
        out.append(("s", cls, e2_lambda(spec, s)))
    return out


def trimat_gldim(spec: TriRingSpec, cap: int = 20) -> Dim:
    return dim_max(triple_pd(t, cap) for _, _, t in simple_triples(spec))


# -- the global dimension sandwich ---------------------------------------------------

@dataclass
class SandwichReport:
    gldim_r: Dim
    gldim_s: Dim
    pd_s_m: Dim
    gldim_total: Dim
    lower: Dim
    upper: Dim
    lower_check: object  # True / False / None (skipped)
    upper_check: object
    skipped: list


def gldim_sandwich_report(spec: TriRingSpec, cap: int = 20) -> SandwichReport:
    """gl.dim of [[R, 0], [M, S]] against the triangular-ring bounds
    max(gl.dim R, gl.dim S, pd_S M + 1) <= gl.dim <= max(gl.dim R + pd_S M + 1,
    gl.dim S), the upper one being the bound the paper's proof applies to
    Sigma.  Kept as public API for triangular rings given as triples."""
    gr = scm.gldim_sc(spec.r, cap)
    gs = scm.gldim_sc(spec.s, cap)
    pdm = scm.pd_sc(spec.m_as_left_s_module(), cap)
    total = trimat_gldim(spec, cap)
    lower = dim_max([gr, gs, pdm.add_const(1)])
    upper = dim_max([gr.add(pdm).add_const(1), gs])
    lc = lower.le(total)
    uc = total.le(upper)
    skipped = []
    if lc is None:
        skipped.append("lower<=gldim undecidable at cap")
    if uc is None:
        skipped.append("gldim<=upper undecidable at cap")
    return SandwichReport(gr, gs, pdm, total, lower, upper, lc, uc, skipped)
