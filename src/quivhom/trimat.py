"""Module category of a formal triangular matrix ring T = [[R, 0], [M, S]].

A left T-module is a triple (X, Y)_phi: an R-module X, an S-module Y and an
S-linear phi : M (x)_R X -> Y (Fossum-Griffith-Reiten, *Trivial extensions
of abelian categories*, 1975).  ``TriRingSpec`` builds T once as an
``SCAlgebra`` on the basis of R, then M, then S, and a triple is stored only
as the T-module it is, X's coordinates first: R acts on X, S on Y and the
basis element m_k of M by psi_k = phi(m_k (x) -) : X -> Y.  Like every
``scmodule`` module it is stored by its Peirce grading, whose grades are
R's idempotents, then S's: each basis element of T keeps only its block,
x_c, y_b, or the block of psi_k from a grade of X to a grade of Y, and
trimat keeps no placement of its own (a triple whose X or Y is not graded
has one grade).  ``TripleModule`` builds it from (X, Y, phi) and keeps the
three, and a map of triples is the T-module map diag(u, w) (``TripleMap``).
So hom bases, kernels, quotients, covers, pd and gl.dim are ``scmodule``'s
over T.

What stays here is the tensor M (x)_R -, on which phi is defined and
through which ``derived`` pushes witnesses (``scmodule.quotient_sc`` of
M (x)_k X, M's left S-module kept on the spec with I_X on each block), the
column projectives e^1_lambda(Re_i) = (Re_i, M(x)Re_i)_1 and
e^2_lambda(Se_j) = (0, Se_j)_0, and the maps of the standard triangle
(``triple_ses``).  The repdim proof builds no triple: Sigma is a sub-table of End(X-bar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

from .algebra import SCAlgebra, sc_of_bqa
from .bounds import Dim, dim_max
from .errors import AlgebraMismatch, CompositionInconsistent, DimensionMismatch, QuivhomError
from .exactlin import Mat, rank
from . import scmodule as scm
from .scmodule import ColumnData, SCMap, SCModule


@dataclass
class Bimodule:
    """S-R-bimodule: left action per S basis element, right per R basis element."""

    s: SCAlgebra
    r: SCAlgebra
    dim: int
    left: list
    right: list

    def __post_init__(self):
        self.left, self.right = list(self.left), list(self.right)
        if len(self.left) != self.s.dim or len(self.right) != self.r.dim:
            raise DimensionMismatch("one action matrix per algebra basis element")
        if any((m.rows, m.cols) != (self.dim, self.dim) for m in self.left + self.right):
            raise DimensionMismatch("bimodule action matrices must be square")

    def check(self) -> bool:
        s, r, n = self.s, self.r, self.dim
        act = partial(scm._combination, s.field, n)  # act(mats, coeffs): sum of c_i mats[i]
        if n and not (act(self.left, s.unit).is_identity() and act(self.right, r.unit).is_identity()):
            return False
        # the right action reverses products
        return (all(a.mul(self.left[j]) == act(self.left, s.mult[i][j])
                    for i, a in enumerate(self.left) for j in range(s.dim))
                and all(a.mul(self.right[j]) == act(self.right, r.mult[j][i])
                        for i, a in enumerate(self.right) for j in range(r.dim))
                and all(a.mul(b) == b.mul(a) for a in self.left for b in self.right))


@dataclass
class TriRingSpec:
    """T = [[R, 0], [M, S]] for an S-R-bimodule M, built once as ``t``, whose
    basis must be adapted to its idempotents (else ``NotSplit``)."""

    r: SCAlgebra
    s: SCAlgebra
    m: Bimodule
    name: str = ""
    t: SCAlgebra = field(init=False, repr=False, compare=False)
    # M (x) 0, shared by every triple with X = 0; callers must not mutate it
    zero_tensor: "TensorData" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m.r is not self.r or self.m.s is not self.s:
            raise AlgebraMismatch("M must be a bimodule over the ring's S and R")
        if not self.m.check():
            raise QuivhomError("bimodule axioms fail")
        z = Mat.zeros(self.r.field, 0, 0)
        self.zero_tensor = TensorData([], z, z, scm.zero_sc_module(self.s))
        self._m_left = SCModule(self.s, self.m.dim, self.m.left)  # M over S, shared: never mutate
        self.t = _triangular_algebra(self.r, self.s, self.m)
        scm.column_data(self.t)

    def coldata_r(self) -> ColumnData:
        return scm.column_data(self.r)

    def coldata_s(self) -> ColumnData:
        return scm.column_data(self.s)

    def m_as_left_s_module(self) -> SCModule:
        return self._m_left


def _triangular_algebra(r: SCAlgebra, s: SCAlgebra, m: Bimodule) -> SCAlgebra:
    """T on the basis of R, then M, then S: (r, m, s)(r', m', s') =
    (rr', m r' + s m', ss'), read off R's and S's tables and M's actions
    (column k of ``right[c]`` is m_k c, of ``left[b]`` is b m_k).  Its
    idempotents are R's, then S's, and its radical is rad R + M + rad S."""
    f, zero = r.field, r.field.zero()
    mo, so = r.dim, r.dim + m.dim  # where M's and S's coordinates start
    n = so + s.dim

    def at(start, vec):
        out = [zero] * n
        out[start:start + len(vec)] = vec
        return tuple(out)

    mult = [[(zero,) * n] * n for _ in range(n)]
    for i in range(r.dim):
        mult[i][:r.dim] = [at(0, v) for v in r.mult[i]]
    for k in range(m.dim):
        mult[mo + k][:r.dim] = [at(mo, a.entries[k::m.dim]) for a in m.right]
    for b in range(s.dim):
        mult[so + b][mo:so] = [at(mo, m.left[b].entries[k::m.dim]) for k in range(m.dim)]
        mult[so + b][so:] = [at(so, v) for v in s.mult[b]]
    idempotents = None if r.idempotents is None or s.idempotents is None else \
        [at(0, e) for e in r.idempotents] + [at(so, e) for e in s.idempotents]
    radical = ([at(0, v) for v in scm.radical_of(r)] + Mat.identity(f, n).row_list()[mo:so]
               + [at(so, v) for v in scm.radical_of(s)])
    return SCAlgebra(f, mult, tuple(r.unit) + (zero,) * m.dim + tuple(s.unit), idempotents, radical)


def t2_spec(base_bqa, name="T2") -> TriRingSpec:
    """T_2(Lambda): R = S = Lambda, M = Lambda as the regular bimodule."""
    sc = sc_of_bqa(base_bqa)
    b = range(sc.dim)
    m = Bimodule(sc, sc, sc.dim, scm.table_actions(sc, b, b), scm.table_actions(sc, b, b, left=False))
    return TriRingSpec(sc, sc, m, name=name)


# -- tensor product over R ---------------------------------------------------------

@dataclass
class TensorData:
    free: list  # the pure coordinates (m_k, x_j), k*xdim + j, the quotient keeps
    proj: Mat  # (tensor dim) x (m*x): quotient projection
    lift: Mat  # (m*x) x (tensor dim): section of proj, the unit vectors at free
    module: SCModule  # the tensor as a left S-module

    @property
    def dim(self) -> int:
        return len(self.free)


def tensor_basis(spec: TriRingSpec, x: SCModule) -> TensorData:
    """M (x)_R X: ``scmodule.quotient_sc`` of M (x)_k X (the left S-module M
    with I_X tensored on each block, the pure pair (m_k, x_j) at
    k * dim X + j) by the relations m c (x) x - m (x) c x, c in the basis of
    R, each in the S-grade of its m.  X = 0 gives the spec's shared zero
    tensor, and an X not over R raises ``AlgebraMismatch``."""
    if x.sc is not spec.r:
        raise AlgebraMismatch("X must be a module over the triple ring's R")
    if not x.dim:
        return spec.zero_tensor
    f, mdim, xdim, ml = spec.r.field, spec.m.dim, x.dim, spec.m_as_left_s_module()
    rel_rows = []
    for rho, act in zip(spec.m.right, x.action):
        for i in range(mdim):
            for j in range(xdim):
                # m_i c (x) x_j - m_i (x) c x_j, pure pair (m_k, x_l) at k * xdim + l
                row = [f.zero()] * (mdim * xdim)
                row[j::xdim] = rho.entries[i::mdim]
                at = slice(i * xdim, i * xdim + xdim)
                row[at] = [f.sub(a, b) for a, b in zip(row[at], act.entries[j::xdim])]
                if any(row):
                    rel_rows.append(row)
    mx = SCModule._of_blocks(spec.s, [g for g in ml.grade for _ in range(xdim)], ml.at,
                             [Mat.kron(b, Mat.identity(f, xdim)) for b in ml.blocks])
    module, proj, lift = scm.quotient_sc(mx, Mat.from_rows(f, rel_rows).transpose() if rel_rows
                                         else Mat.zeros(f, mdim * xdim, 0))
    free = [lift.entries[t::lift.cols].index(f.one()) for t in range(lift.cols)]
    return TensorData(free, proj, lift, module)


def tensor_map(spec: TriRingSpec, td_src: TensorData, td_dst: TensorData, u: Mat) -> Mat:
    """Induced map M (x) u between tensor quotients."""
    big = Mat.kron(Mat.identity(spec.r.field, spec.m.dim), u)
    return td_dst.proj.mul(big).mul(td_src.lift)


# -- triples -----------------------------------------------------------------------

class TripleModule(SCModule):
    """(X, Y)_phi as a T-module, X's coordinates first: R acts on X, S on Y
    and m_k by psi_k = phi(m_k (x) -) : X -> Y.  When X and Y are graded by
    R's and S's idempotents its grades are R's, then S's, and each basis
    element of T keeps its block: x_c, the block of psi_k, y_b; else it has
    one grade.  The constructor keeps the ``x``, ``y`` and ``phi`` it is
    given and M (x) X (``tensor``, from ``tensor_basis``): the T-module is
    assembled from them, and column t of the phi read back would be
    psi_k x_j = phi.proj.e_t = phi e_t, since proj is the identity at the
    free pairs.  Triples made by ``of_module`` and ``triple_sum`` read their
    parts back off T, once, when first asked."""

    def __init__(self, spec: TriRingSpec, x: SCModule, y: SCModule, phi: Mat):
        self._keep(spec, x, y, phi, tensor_basis(spec, x))

    def _keep(self, spec: TriRingSpec, x: SCModule, y: SCModule, phi: Mat, td: TensorData):
        """(X, Y)_phi on ``td``, the tensor of X that e1/e2_lambda hold."""
        if y.sc is not spec.s:
            raise AlgebraMismatch("Y must be a module over the triple ring's S")
        if (phi.rows, phi.cols) != (y.dim, td.dim):
            raise DimensionMismatch("phi must map the tensor onto Y")
        a, psi = x.dim, phi.mul(td.proj)
        self._assemble(spec, x, y, [psi.col_block(k * a, k * a + a) for k in range(spec.m.dim)])
        self.__dict__.update(x=x, y=y, phi=phi, tensor=td)
        return self

    def _assemble(self, spec: TriRingSpec, x: SCModule, y: SCModule, psis) -> "TripleModule":
        """Hold (X, Y, psi_k) as the T-module: by blocks when X and Y are
        graded and each psi_k lies in its block, e_j M e_i taking grade i of
        X to grade j of Y; else from its full matrices, with one grade."""
        peirce, nr, f = scm._gradings(spec.t)[0], len(spec.r.idempotents), spec.r.field
        self.spec, self.xdim = spec, x.dim
        if x.at is scm._gradings(spec.r)[0] and y.at is scm._gradings(spec.s)[0]:
            blocks = [scm._take(p, y.coords[j - nr], x.coords[i])
                      for p, (j, i) in zip(psis, peirce[spec.r.dim:])]
            if all(scm._nonzeros(b) == scm._nonzeros(p) for b, p in zip(blocks, psis)):
                return self._set(spec.t, (*x.grade, *(nr + g for g in y.grade)), peirce,
                                 [*x.blocks, *blocks, *y.blocks])
        sizes, zx, zy = [x.dim, y.dim], Mat.zeros(f, x.dim, x.dim), Mat.zeros(f, y.dim, y.dim)
        SCModule.__init__(self, spec.t, x.dim + y.dim,
                          [*(Mat.block_diag(f, [a, zy]) for a in x.action),
                           *(Mat.from_blocks(f, sizes, sizes, {(1, 0): p}) for p in psis),
                           *(Mat.block_diag(f, [zx, b]) for b in y.action)])
        return self

    @classmethod
    def of_module(cls, spec: TriRingSpec, m: SCModule) -> "TripleModule":
        """m, a T-module with X's coordinates first, as a triple: the X part
        is where R's unit acts, by diag(I, 0)."""
        f, n = spec.r.field, m.dim
        e = m.act_vector(spec.t.unit[:spec.r.dim] + (f.zero(),) * (spec.t.dim - spec.r.dim))
        a = sum(1 for i in range(n) if e.entries[i * n + i])
        if e != Mat.block_diag(f, [Mat.identity(f, a), Mat.zeros(f, n - a, n - a)]):
            raise QuivhomError("the coordinates where R's unit acts do not come first")
        t = cls._of_blocks(m.sc, m.grade, m.at, m.blocks)
        t.spec, t.xdim = spec, a
        return t

    def _part(self, over: SCAlgebra, basis: range, lo: int, hi: int) -> SCModule:
        """X (over R, on the coordinates lo..hi-1 = 0..a-1) or Y (over S, on
        a..n-1): the actions of T's basis elements at ``basis``, cut there."""
        return SCModule(over, hi - lo, [self.action[b].row_block(lo, hi).col_block(lo, hi)
                                        for b in basis])

    @cached_property
    def x(self) -> SCModule:
        return self._part(self.spec.r, range(self.spec.r.dim), 0, self.xdim)

    @cached_property
    def y(self) -> SCModule:
        return self._part(self.spec.s, range(self.sc.dim - self.spec.s.dim, self.sc.dim),
                          self.xdim, self.dim)

    def _psis(self):
        """psi_k : X -> Y for each basis element m_k of M, cut from its action."""
        a, n, r0 = self.xdim, self.dim, self.spec.r.dim
        return [self.action[r0 + k].row_block(a, n).col_block(0, a) for k in range(self.spec.m.dim)]

    @cached_property
    def tensor(self) -> TensorData:
        return tensor_basis(self.spec, self.x) if self.xdim else self.spec.zero_tensor

    @cached_property
    def phi(self) -> Mat:
        """Column t is psi_k x_j for the pure pair free[t] = k * dim X + j."""
        a, f, psis = self.xdim, self.spec.r.field, self._psis()
        cols = [psis[c // a].col(c % a) for c in self.tensor.free]
        return Mat.hstack(f, cols) if cols else Mat.zeros(f, self.dim - a, 0)


class TripleMap(SCMap):
    """A map of triples kept as its blocks u : X -> X' and w : Y -> Y', which
    as a T-module map is diag(u, w); ``of_map`` reads any such map in blocks."""

    def __init__(self, source: TripleModule, target: TripleModule, u: Mat, w: Mat):
        ends = (source.xdim, source.dim - source.xdim, target.xdim, target.dim - target.xdim)
        if (u.cols, w.cols, u.rows, w.rows) != ends:
            raise DimensionMismatch(f"u is {u.rows}x{u.cols} and w is {w.rows}x{w.cols} for a map "
                                    f"({ends[0]}, {ends[1]}) -> ({ends[2]}, {ends[3]})")
        self.source, self.target, self.u, self.w = source, target, u, w

    @cached_property
    def mat(self) -> Mat:
        return Mat.block_diag(self.u.field, [self.u, self.w])

    @classmethod
    def of_map(cls, f: SCMap) -> "TripleMap":
        a, b, m = f.source.xdim, f.target.xdim, f.mat
        t = cls(f.source, f.target, m.row_block(0, b).col_block(0, a),
                m.row_block(b, m.rows).col_block(a, m.cols))
        t.__dict__["mat"] = m
        return t


def e1_lambda(spec: TriRingSpec, x: SCModule) -> TripleModule:
    td = tensor_basis(spec, x)
    return TripleModule.__new__(TripleModule)._keep(spec, x, td.module,
                                                    Mat.identity(spec.r.field, td.dim), td)


def e2_lambda(spec: TriRingSpec, y: SCModule) -> TripleModule:
    return TripleModule.__new__(TripleModule)._keep(spec, scm.zero_sc_module(spec.r), y,
                                                    Mat.zeros(spec.r.field, y.dim, 0),
                                                    spec.zero_tensor)


def triple_sum(spec: TriRingSpec, triples) -> TripleModule:
    """The direct sum with the X parts first, then the Y parts, summand
    after summand in each.  When every summand is graded, the coordinates of
    each grade are the summands' in order, so every block is the summands'
    blocks placed diagonally; else the parts are summed and assembled."""
    triples, f = list(triples), spec.r.field
    if all(t.at is scm._gradings(spec.t)[0] for t in triples):
        total = TripleModule._of_blocks(
            spec.t, [*(g for t in triples for g in t.grade[:t.xdim]),
                     *(g for t in triples for g in t.grade[t.xdim:])],
            scm._gradings(spec.t)[0],
            [Mat.block_diag(f, [t.blocks[g] for t in triples]) for g in range(spec.t.dim)])
        total.spec, total.xdim = spec, sum(t.xdim for t in triples)
        return total
    psis = [t._psis() for t in triples]
    return TripleModule.__new__(TripleModule)._assemble(
        spec, scm.sum_sc(spec.r, [t.x for t in triples]), scm.sum_sc(spec.s, [t.y for t in triples]),
        [Mat.block_diag(f, [p[k] for p in psis]) for k in range(spec.m.dim)])


def triple_direct_sum(spec: TriRingSpec, triples):
    """``triple_sum`` with its injections and projections, unit blocks on
    the X and on the Y parts."""
    triples, f = list(triples), spec.r.field
    total = triple_sum(spec, triples)
    xs = Mat.summand_units(f, [t.xdim for t in triples])
    ys = Mat.summand_units(f, [t.dim - t.xdim for t in triples])
    return (total, [TripleMap(t, total, xi, yi) for t, (xi, _), (yi, _) in zip(triples, xs, ys)],
            [TripleMap(total, t, xp, yp) for t, (_, xp), (_, yp) in zip(triples, xs, ys)])


def triple_kernel(f_map: SCMap):
    """(K, incl): ``scmodule.kernel_of_sc`` over T, which keeps X first, as a triple."""
    k, incl = scm.kernel_of_sc(f_map)
    k = TripleModule.of_module(f_map.source.spec, k)
    return k, TripleMap.of_map(SCMap(k, f_map.source, incl.mat))


triple_pd = scm.pd_sc  # a triple's pd is its T-module's


def trimat_gldim(spec: TriRingSpec, cap: int = 20) -> Dim:
    return scm.gldim_sc(spec.t, cap)


def simple_triples(spec: TriRingSpec):
    """("r" or "s", class, simple): the tops of T's column projectives, one
    per idempotent class, (simple over R, 0)_0 and then (0, simple over S)_0."""
    cd, nr = scm.column_data(spec.t), len(spec.r.idempotents)
    return [("r" if cls < nr else "s", cls, TripleModule.of_module(spec, cd.simple_top(members[0])))
            for cls, members in cd.classes.items()]


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
    """(FGR criterion: X projective, phi mono, coker phi projective; a dict of
    its parts and of ``scmodule.is_projective_sc`` over T), which must agree."""
    details = {"x_projective": scm.is_projective_sc(t.x),
               "phi_mono": rank(t.phi) == t.tensor.dim,
               "coker_projective": scm.is_projective_sc(scm.quotient_sc(t.y, t.phi)[0]),
               "projective_over_t": scm.is_projective_sc(t)}
    criterion = details["x_projective"] and details["phi_mono"] and details["coker_projective"]
    if details["projective_over_t"] != criterion:
        raise CompositionInconsistent(f"projectivity criterion ({criterion}) disagrees with "
                                      f"the cover over T ({details['projective_over_t']})")
    return criterion, details


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
    gr, gs = scm.gldim_sc(spec.r, cap), scm.gldim_sc(spec.s, cap)
    pdm = scm.pd_sc(spec.m_as_left_s_module(), cap)
    total = trimat_gldim(spec, cap)
    lower = dim_max([gr, gs, pdm.add_const(1)])
    upper = dim_max([gr.add(pdm).add_const(1), gs])
    lc, uc = lower.le(total), total.le(upper)
    skipped = [f"{claim} undecidable at cap"
               for claim, ok in (("lower<=gldim", lc), ("gldim<=upper", uc)) if ok is None]
    return SandwichReport(gr, gs, pdm, total, lower, upper, lc, uc, skipped)
