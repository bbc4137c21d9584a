"""Uniform component-keyed access to the module-like categories.

Objects in every category split into vector-space components indexed by keys
(base vertices, vertex pairs, or the two slots of a triple), and morphisms are
key-preserving block matrices subject to structural equations.  The witness
calculus works generically over this interface: per-key rank checks decide
exactness, and raw (non-structural) block maps are allowed where certificates
only need linear identities.  The same adapters serve ``endo``, which builds
End algebras and Hom modules from ``hom_basis``, ``compose`` and
``flatten_map``.

An adapter (``mod_cat``, ``rep_cat``, ``sc_cat``, ``triple_cat``) states only
what differs between the categories: keys and component dimensions, the
direct sum ``sum_obj``, a morphism's blocks (``map_mats``) and the morphism
with given blocks (``map_from_mats``), the solvers, object equality and
whether the base is semisimple.  ``Cat`` derives the block algebra, one
``Mat`` operation per key: ``identity``, ``zero_map``, ``compose``,
``add_map`` and ``scale_map``; ``is_morphism`` is the map's ``is_valid``.
``Cat`` builds the zero object once, as the empty sum, and ``zero_obj``
returns that one object (complexes pad with it outside their degrees), so
it must never be mutated.

A representation is a module over the bound quiver algebra Lambda Q
(``repcat.path_algebra_over``), so ``rep_cat`` is ``mod_cat`` of Lambda Q:
hom bases, kernels, quotients, direct sums, block maps and object equality
are ``algebra``'s, keyed by the vertices (v, u) of Lambda Q.  It keeps only
the name "rep" and the base's ``is_semisimple_base``.

A triple is a module over the triangular ring T = [[R, 0], [M, S]], with
its X coordinates first (``trimat.TripleModule``, stored like every
``scmodule`` module by its Peirce grading, whose grades are R's idempotents,
then S's), so ``triple_cat`` is ``sc_cat`` of T read in two blocks: its keys
"x" and "y" are the X and the Y coordinates, a morphism is the block
diagonal diag(u, w) (``trimat.TripleMap``), and hom bases, kernels and
quotients are ``scmodule``'s over T, each read back in blocks.  A quotient
checks, in ``scmodule.quotient_sc`` alone, that its span is a submodule.
Its direct sums place the X parts first, then the Y parts.

Each adapter builds a direct sum in one function, ``sum_obj``, which returns
the object alone, and maps into, out of or between sums are placed block by
block (``diag``, ``stack``, ``copair``).  ``components`` and ``restrictions``
read those blocks back, so the projections and injections of a sum are
``components``/``restrictions`` of its identity.

The split helpers ``section``, ``retraction`` and ``split_into`` are the one
place that answers "is X in add(Y)?" (is X a direct factor of a sum of copies
of the given objects?) for every category: the generator-cogenerator checks
of ``repdim`` and the leaves of the witness calculus in ``derived`` both call
them.  A section or retraction of g is solved over a hom basis, and the
composites of g with all basis maps come from one matrix product per key
(``_one_sided_inverse``): no morphism is composed.

Where the base acts on both ends by scalars alone (a module over a bound
quiver algebra with no arrows, or over a one-dimensional SC algebra, read
off the objects), Hom(B, A) is every block matrix, and the split is solved
key by key with no hom basis (``_keywise_inverse``): a section of u is
``solve_matrix(u_k, I)`` and a retraction of i is
``solve_matrix(i_k^T, I)^T``, per key.  The answer is the general solver's,
entry for entry.  Its hom basis there is the unit matrices, key after key
in row-major order, so its system is the per-key systems side by side, one
per column of the answer (a row, for a retraction), and these share no
unknown.  In each, the unknowns come in the order of u_k's columns (i_k's
rows), so first-nonzero pivoting picks the same pivot columns: a column
is a pivot exactly when it is independent of the columns before it.  The
free unknowns are 0 in both, and the pivot unknowns are then determined.
A key whose identity block is empty is met by the empty block, and one
with nothing to map through has no split, with no elimination.
``_one_sided_inverse`` stays the solver of every other category, and the
oracle of this one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import algebra as alg
from . import repcat as rc
from . import scmodule as scm
from . import trimat as tm
from .exactlin import Mat, solve_matrix


@dataclass
class Cat:
    name: str
    field: object
    keys: object            # obj -> ordered key list
    comp_dim: object        # (obj, key) -> int
    sum_obj: object         # [objs] -> the direct sum object, with no maps
    map_mats: object        # morphism -> {key: Mat}
    map_from_mats: object   # (src, dst, {key: Mat}) -> morphism (unchecked)
    hom_basis: object
    kernel: object          # morphism -> (obj, incl morphism)
    quotient: object        # (obj, {key: columns}) -> (obj, proj morphism)
    obj_equal: object
    is_semisimple_base: object

    def __post_init__(self):
        self._zero = self.sum_obj([])

    # -- the block algebra of morphisms, one Mat operation per key ------------------

    def zero_obj(self):
        """The one zero object, the empty sum: shared, so never mutate it."""
        return self._zero

    def identity(self, x):
        f = self.field
        return self.map_from_mats(x, x, {k: Mat.identity(f, self.comp_dim(x, k))
                                         for k in self.keys(x)})

    def zero_map(self, x, y):
        f = self.field
        return self.map_from_mats(x, y, {k: Mat.zeros(f, self.comp_dim(y, k), self.comp_dim(x, k))
                                         for k in self.keys(x)})

    def compose(self, f, g):
        """f o g; ends of different dimensions raise ``DimensionMismatch``."""
        fm, gm = self.map_mats(f), self.map_mats(g)
        return self.map_from_mats(g.source, f.target, {k: m.mul(gm[k]) for k, m in fm.items()})

    def add_map(self, f, g):
        fm, gm = self.map_mats(f), self.map_mats(g)
        return self.map_from_mats(f.source, f.target, {k: m.add(gm[k]) for k, m in fm.items()})

    def scale_map(self, f, c):
        return self.map_from_mats(f.source, f.target,
                                  {k: m.scale(c) for k, m in self.map_mats(f).items()})

    def is_morphism(self, f) -> bool:
        return f.is_valid()

    def total_dim(self, obj):
        return sum(self.comp_dim(obj, k) for k in self.keys(obj))

    def flatten_map(self, f):
        mats = self.map_mats(f)
        out = []
        for k in sorted(mats.keys(), key=str):
            out.extend(mats[k].entries)
        return out

    # Every direct sum concatenates its summands key by key, in summand
    # order, so a morphism into, out of or between direct sums is placed
    # block by block, with no products and no additions.

    def diag(self, src, dst, fs):
        """f_1 + ... + f_n : src -> dst, where src and dst are the direct sums
        of the sources and of the targets of the fs."""
        mats = [self.map_mats(g) for g in fs]
        return self.map_from_mats(src, dst, {
            k: Mat.block_diag(self.field, [m[k] for m in mats]) for k in self.keys(src)})

    def stack(self, src, dst, fs):
        """The map src -> dst with components f_i : src -> dst_i, where dst is
        the direct sum of the targets of the fs (summands of dimension zero
        add no rows, so their maps may be left out)."""
        mats = [self.map_mats(g) for g in fs]
        return self.map_from_mats(src, dst, {
            k: Mat.vstack(self.field, [m[k] for m in mats]) if mats
            else Mat.zeros(self.field, 0, self.comp_dim(src, k)) for k in self.keys(src)})

    def copair(self, src, dst, fs):
        """The map src -> dst restricting to f_i : src_i -> dst, where src is
        the direct sum of the sources of the fs (summands of dimension zero
        add no columns, so their maps may be left out)."""
        mats = [self.map_mats(g) for g in fs]
        return self.map_from_mats(src, dst, {
            k: Mat.hstack(self.field, [m[k] for m in mats]) if mats
            else Mat.zeros(self.field, self.comp_dim(dst, k), 0) for k in self.keys(dst)})

    def _offsets(self, parts, k):
        at = 0
        for p in parts:
            d = self.comp_dim(p, k)
            yield at, at + d
            at += d

    def components(self, src, f, parts):
        """The maps proj_i o f : src -> parts[i] of a map f from src into the
        direct sum of ``parts``: its blocks of rows, so ``stack`` of them is f."""
        mats = self.map_mats(f)
        blocks = {k: list(self._offsets(parts, k)) for k in self.keys(src)}
        return [self.map_from_mats(src, p, {k: mats[k].row_block(*blocks[k][i]) for k in blocks})
                for i, p in enumerate(parts)]

    def restrictions(self, dst, f, parts):
        """The maps f o inj_i : parts[i] -> dst of a map f from the direct sum
        of ``parts`` to dst: its blocks of columns, so ``copair`` of them is f."""
        mats = self.map_mats(f)
        blocks = {k: list(self._offsets(parts, k)) for k in self.keys(dst)}
        return [self.map_from_mats(p, dst, {k: mats[k].col_block(*blocks[k][i]) for k in blocks})
                for i, p in enumerate(parts)]

    # -- split tests ------------------------------------------------------------------

    def _one_sided_inverse(self, g, section):
        """h : B -> A with g o h = id_B (a section) or h o g = id_A (a
        retraction) for g : A -> B, solved over a basis h_1, ..., h_n of
        Hom(B, A); None when there is none.

        The composites of g with all the basis maps come from one product
        per key, and the system has a column per basis map, holding its
        composite key by key in ``flatten_map``'s order.  The answer is
        placed key by key as the solution's combination of the basis
        blocks."""
        src, dst = g.target, g.source
        ident = src if section else dst
        basis = self.hom_basis(src, dst)
        if not basis:
            return self.zero_map(src, dst) if self.total_dim(ident) == 0 else None
        f = self.field
        gm, hm = self.map_mats(g), [self.map_mats(h) for h in basis]
        cols, rhs = [[] for _ in basis], []
        for k in sorted(self.keys(ident), key=str):
            d = self.comp_dim(ident, k)
            hs = [m[k] for m in hm]
            if section:  # column block i of g_k . [h_1 | ... | h_n] is g_k . h_i
                p = gm[k].mul(Mat.hstack(f, hs))
                comps = [p.col_block(i * d, (i + 1) * d) for i in range(len(hs))]
            else:  # row block i of [h_1; ...; h_n] . g_k is h_i . g_k
                p = Mat.vstack(f, hs).mul(gm[k])
                comps = [p.row_block(i * d, (i + 1) * d) for i in range(len(hs))]
            for col, c in zip(cols, comps):
                col.extend(c.entries)
            rhs.extend(Mat.identity(f, d).entries)
        sol = solve_matrix(Mat.hstack(f, [Mat.column(f, c) for c in cols]), Mat.column(f, rhs))
        if sol is None:
            return None
        zero, coeffs = f.zero(), sol.column_vector()
        mats = {}
        for k in self.keys(src):
            acc = Mat.zeros(f, self.comp_dim(dst, k), self.comp_dim(src, k))
            for c, m in zip(coeffs, hm):
                if c != zero:
                    acc = acc.add(m[k].scale(c))
            mats[k] = acc
        return self.map_from_mats(src, dst, mats)

    def _keywise_inverse(self, g, section):
        """``_one_sided_inverse`` of g where Hom(B, A) is every block matrix
        (see the module docstring): per key, g_k h_k = I for a section and
        g_k^T h_k^T = I for a retraction, one ``solve_matrix`` each, and
        none where the identity block is empty or nothing maps through."""
        f = self.field
        mats = {}
        for k, m in self.map_mats(g).items():
            n, other = (m.rows, m.cols) if section else (m.cols, m.rows)
            if not n:
                mats[k] = Mat.zeros(f, m.cols, m.rows)
                continue
            if not other:
                return None
            h = solve_matrix(m if section else m.transpose(), Mat.identity(f, n))
            if h is None:
                return None
            mats[k] = h if section else h.transpose()
        return self.map_from_mats(g.target, g.source, mats)

    def section(self, u):
        """s with u o s = id, or None when u does not split."""
        if _acts_by_scalars(u.source) and _acts_by_scalars(u.target):
            return self._keywise_inverse(u, section=True)
        return self._one_sided_inverse(u, section=True)

    def retraction(self, i):
        """r with r o i = id, or None when i does not split."""
        if _acts_by_scalars(i.source) and _acts_by_scalars(i.target):
            return self._keywise_inverse(i, section=False)
        return self._one_sided_inverse(i, section=False)

    def split_into(self, obj, summands):
        """obj as a direct factor of a sum of summands: (pieces, total, section, u).

        ``pieces`` lists, for each map of a hom basis of every Hom(summand,
        obj), the index of its summand; ``total`` is the direct sum of those
        summands and u : total -> obj the copair of the basis maps, so obj is
        in add(summands) exactly when u splits.  None when it does not."""
        pieces, maps = [], []
        for i, s in enumerate(summands):
            for b in self.hom_basis(s, obj):
                pieces.append(i)
                maps.append(b)
        total = self.sum_obj([summands[i] for i in pieces])
        u = self.copair(total, obj, maps)
        sec = self.section(u)
        return None if sec is None else (pieces, total, sec, u)


def _acts_by_scalars(x) -> bool:
    """Whether the base acts on x by scalars alone, so that every family of
    blocks between two such objects is a morphism: x is a module over a
    bound quiver algebra with no arrows (it has no arrow matrices), or over
    a one-dimensional SC algebra, whose basis element is a multiple of the
    unit and so acts on a module as a multiple of the identity."""
    if isinstance(x, alg.AlgMod):
        return not x.mats
    return isinstance(x, scm.SCModule) and x.sc.dim == 1


# -- base-algebra modules -------------------------------------------------------------

def mod_cat(a) -> Cat:
    return Cat(
        name=f"mod({a.name or 'algebra'})",
        field=a.field,
        keys=lambda m: list(a.quiver.vertices),
        comp_dim=lambda m, k: m.dims[k],
        sum_obj=lambda ms: alg.sum_mods(a, ms),
        map_mats=lambda f: dict(f.mats),
        map_from_mats=alg.ModMap,
        hom_basis=alg.hom_basis,
        kernel=alg.kernel_of,
        quotient=lambda obj, cols: alg.quotient_module(obj, cols)[:2],
        obj_equal=lambda x, y: x.dims == y.dims and x.mats == y.mats,
        is_semisimple_base=lambda: a.is_semisimple(),
    )


# -- representations ------------------------------------------------------------------

def rep_cat(q, a) -> Cat:
    """Representations of q in mod a: ``mod_cat`` of the path algebra aQ that
    they are modules over, named "rep", whose base is semisimple when a is."""
    return replace(mod_cat(rc.path_algebra_over(q, a)), name="rep",
                   is_semisimple_base=a.is_semisimple)


# -- raw structure-constant modules -----------------------------------------------------

def sc_cat(sc) -> Cat:
    def quotient(obj, cols):
        qm, proj, _ = scm.quotient_sc(obj, cols["*"])
        return qm, scm.SCMap(obj, qm, proj)

    return Cat(
        name="scmod",
        field=sc.field,
        keys=lambda m: ["*"],
        comp_dim=lambda m, k: m.dim,
        sum_obj=lambda ms: scm.sum_sc(sc, ms),
        map_mats=lambda f: {"*": f.mat},
        map_from_mats=lambda s, d, mats: scm.SCMap(s, d, mats["*"]),
        hom_basis=scm.hom_basis_sc,
        kernel=scm.kernel_of_sc,
        quotient=quotient,
        obj_equal=lambda x, y: x == y,
        is_semisimple_base=lambda: not scm.radical_of(sc),
    )


# -- triples ------------------------------------------------------------------------------

def triple_cat(spec) -> Cat:
    """Triples as modules over T (``trimat``): the keys are the X and the Y
    block of each T-module, and hom bases, kernels and quotients are
    ``scmodule``'s over T, read back as triples."""
    f = spec.r.field

    def quotient(obj, cols):
        qm, proj, _ = scm.quotient_sc(obj, Mat.block_diag(f, [cols["x"], cols["y"]]))
        qt = tm.TripleModule.of_module(spec, qm)
        return qt, tm.TripleMap.of_map(scm.SCMap(obj, qt, proj))

    return Cat(
        name="triple",
        field=f,
        keys=lambda t: ["x", "y"],
        comp_dim=lambda t, k: t.xdim if k == "x" else t.dim - t.xdim,
        sum_obj=lambda ts: tm.triple_sum(spec, ts),
        map_mats=lambda fm: {"x": fm.u, "y": fm.w},
        map_from_mats=lambda s, d, mats: tm.TripleMap(s, d, mats["x"], mats["y"]),
        hom_basis=lambda a_, b_: [tm.TripleMap.of_map(h) for h in scm.hom_basis_sc(a_, b_)],
        kernel=tm.triple_kernel,
        quotient=quotient,
        obj_equal=lambda a_, b_: a_.xdim == b_.xdim and a_ == b_,
        is_semisimple_base=lambda: False,
    )
