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

Triples (``triple_cat``) go through M's action psi_k = phi(m_k (x) -) :
X -> Y (``trimat.TripleModule.psi``): morphisms are checked and solved by
w . psi_k = psi'_k . u, and a quotient by a subtriple, which exists when
q_Y . psi_k vanishes on the X-part, takes psi-bar_k = q_Y . psi_k . s_X, so
no tensor map is formed and nothing is solved.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import algebra as alg
from . import repcat as rc
from . import scmodule as scm
from . import trimat as tm
from .errors import QuivhomError
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

    def section(self, u):
        """s with u o s = id, or None when u does not split."""
        return self._one_sided_inverse(u, section=True)

    def retraction(self, i):
        """r with r o i = id, or None when i does not split."""
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
        obj_equal=lambda x, y: x.dim == y.dim and x.action == y.action,
        is_semisimple_base=lambda: not scm.radical_of(sc),
    )


# -- triples ------------------------------------------------------------------------------

def triple_cat(spec) -> Cat:
    def quotient(obj, cols):
        qx, xproj, xsect = scm.quotient_sc(obj.x, cols["x"])
        qy, yproj, _ = scm.quotient_sc(obj.y, cols["y"])
        # the columns span a subtriple when every psi_k maps the X-part into
        # the Y-part; then psi-bar_k = q_Y . psi_k . s_X, and phi-bar is its
        # free columns
        if any(not yproj.mul(p).mul(cols["x"]).is_zero() for p in obj.psi()):
            raise QuivhomError("quotient phi does not descend; columns not a subtriple")
        td_q = tm.tensor_basis(spec, qx)
        qt = tm.TripleModule(spec, qx, qy, yproj.mul(obj.psi_after(xsect, td_q.free)), td_q)
        return qt, tm.TripleMap(obj, qt, xproj, yproj)

    return Cat(
        name="triple",
        field=spec.r.field,
        keys=lambda t: ["x", "y"],
        comp_dim=lambda t, k: t.x.dim if k == "x" else t.y.dim,
        sum_obj=lambda ts: tm.triple_sum(spec, ts),
        map_mats=lambda fm: {"x": fm.u, "y": fm.w},
        map_from_mats=lambda s, d, mats: tm.TripleMap(s, d, mats["x"], mats["y"]),
        hom_basis=tm.triple_hom_basis,
        kernel=tm.triple_kernel,
        quotient=quotient,
        obj_equal=lambda a_, b_: (a_.x.dim == b_.x.dim and a_.y.dim == b_.y.dim
                                  and a_.x.action == b_.x.action
                                  and a_.y.action == b_.y.action and a_.phi == b_.phi),
        is_semisimple_base=lambda: False,
    )
