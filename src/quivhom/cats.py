"""Uniform component-keyed access to the module-like categories.

Objects in every category split into vector-space components indexed by keys
(base vertices, vertex pairs, or the two slots of a triple), and morphisms are
key-preserving block matrices subject to structural equations.  The witness
calculus works generically over this interface: per-key rank checks decide
exactness, and raw (non-structural) block maps are allowed where certificates
only need linear identities.  The same adapters serve ``endo``, which builds
End algebras and Hom modules from ``hom_basis``, ``compose`` and
``flatten_map``.

Representations are modules over the bound quiver algebra Lambda Q
(``repcat.path_algebra_over``): ``rep_cat`` takes hom bases, kernels,
quotients, validity and equality from ``algebra`` on that algebra, and places
direct sums and block maps vertex by vertex.

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

Every adapter builds its zero object once and ``zero_obj`` returns that one
object (complexes pad with it outside their degrees), so it must never be
mutated.

The split helpers ``section``, ``retraction`` and ``split_into`` are the one
place that answers "is X in add(Y)?" (is X a direct factor of a sum of copies
of the given objects?) for every category: the generator-cogenerator checks
of ``repdim`` and the leaves of the witness calculus in ``derived`` both call
them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    zero_obj: object        # () -> the adapter's one zero object, shared: never mutate it
    sum_obj: object         # [objs] -> the direct sum object, with no maps
    identity: object
    zero_map: object
    compose: object
    add_map: object
    scale_map: object
    map_mats: object        # morphism -> {key: Mat}
    map_from_mats: object   # (src, dst, {key: Mat}) -> morphism (unchecked)
    is_morphism: object
    hom_basis: object
    kernel: object          # morphism -> (obj, incl morphism)
    quotient: object        # (obj, {key: columns}) -> (obj, proj morphism)
    obj_equal: object
    is_semisimple_base: object

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

    def combine(self, src, dst, basis, coeffs):
        """The linear combination sum c.b : src -> dst of maps in ``basis``."""
        zero = self.field.zero()
        out = self.zero_map(src, dst)
        for c, b in zip(coeffs, basis):
            if c != zero:
                out = self.add_map(out, self.scale_map(b, c))
        return out

    def _one_sided_inverse(self, src, dst, side, ident):
        """g : src -> dst with side(g) = id_ident, solved over Hom(src, dst), or None."""
        basis = self.hom_basis(src, dst)
        if not basis:
            return self.zero_map(src, dst) if self.total_dim(ident) == 0 else None
        f = self.field
        cols = [Mat.column(f, self.flatten_map(side(b))) for b in basis]
        rhs = Mat.column(f, self.flatten_map(self.identity(ident)))
        sol = solve_matrix(Mat.hstack(f, cols), rhs)
        return None if sol is None else self.combine(src, dst, basis, sol.column_vector())

    def section(self, u):
        """s with u o s = id, or None when u does not split."""
        return self._one_sided_inverse(u.target, u.source, lambda s: self.compose(u, s), u.target)

    def retraction(self, i):
        """r with r o i = id, or None when i does not split."""
        return self._one_sided_inverse(i.target, i.source, lambda r: self.compose(r, i), i.source)

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
    zero = alg.zero_module(a)

    def quotient(obj, cols):
        qm, qmap, _ = alg.quotient_module(obj, cols)
        return qm, qmap

    return Cat(
        name=f"mod({a.name or 'algebra'})",
        field=a.field,
        keys=lambda m: list(a.quiver.vertices),
        comp_dim=lambda m, k: m.dims[k],
        zero_obj=lambda: zero,
        sum_obj=lambda ms: alg.sum_mods(a, ms),
        identity=alg.identity_map,
        zero_map=alg.zero_map,
        compose=lambda f, g: f.compose(g),
        add_map=lambda f, g: f.add(g),
        scale_map=lambda f, c: f.scale(c),
        map_mats=lambda f: dict(f.mats),
        map_from_mats=lambda s, d, mats: alg.ModMap(s, d, dict(mats)),
        is_morphism=lambda f: f.is_valid(),
        hom_basis=alg.hom_basis,
        kernel=alg.kernel_of,
        quotient=quotient,
        obj_equal=lambda x, y: x.dims == y.dims and x.mats == y.mats,
        is_semisimple_base=lambda: a.is_semisimple(),
    )


# -- representations ------------------------------------------------------------------

def rep_cat(q, a) -> Cat:
    zero = rc.rep_zero(q, a)

    def keys(x):
        return [(v, u) for v in q.vertices for u in a.quiver.vertices]

    def map_mats(f):
        return {(v, u): f.mats[v].mats[u] for v in q.vertices for u in a.quiver.vertices}

    def map_from_mats(s, d, mats):
        per_vertex = {}
        for v in q.vertices:
            per_vertex[v] = alg.ModMap(s.mods[v], d.mods[v],
                                       {u: mats[(v, u)] for u in a.quiver.vertices})
        return rc.RepMap(s, d, per_vertex)

    def quotient(obj, cols):
        qm, qmap, _ = alg.quotient_module(
            rc.as_module(obj), {rc.lq_name(v, u): c for (v, u), c in cols.items()})
        qr = rc.as_rep(q, a, qm)
        return qr, rc.as_rep_map(obj, qr, qmap)

    return Cat(
        name="rep",
        field=a.field,
        keys=keys,
        comp_dim=lambda x, k: x.mods[k[0]].dims[k[1]],
        zero_obj=lambda: zero,
        sum_obj=lambda xs: rc.rep_sum(q, a, xs),
        identity=rc.identity_repmap,
        zero_map=rc.zero_repmap,
        compose=lambda f, g: f.compose(g),
        add_map=lambda f, g: f.add(g),
        scale_map=lambda f, c: f.scale(c),
        map_mats=map_mats,
        map_from_mats=map_from_mats,
        is_morphism=lambda f: f.is_valid(),
        hom_basis=rc.rep_hom_basis,
        kernel=rc.rep_kernel,
        quotient=quotient,
        obj_equal=lambda x, y: rc.as_module(x) == rc.as_module(y),
        is_semisimple_base=lambda: a.is_semisimple(),
    )


# -- raw structure-constant modules -----------------------------------------------------

def sc_cat(sc) -> Cat:
    zero = scm.zero_sc_module(sc)

    def kernel(f):
        return scm.kernel_of_sc(f)

    def quotient(obj, cols):
        qm, proj, _ = scm.quotient_sc(obj, cols["*"])
        return qm, scm.SCMap(obj, qm, proj)

    def is_ss():
        return len(scm.radical_of(sc)) == 0

    return Cat(
        name="scmod",
        field=sc.field,
        keys=lambda m: ["*"],
        comp_dim=lambda m, k: m.dim,
        zero_obj=lambda: zero,
        sum_obj=lambda ms: scm.sum_sc(sc, ms),
        identity=lambda m: scm.SCMap(m, m, Mat.identity(sc.field, m.dim)),
        zero_map=lambda s, d: scm.SCMap(s, d, Mat.zeros(sc.field, d.dim, s.dim)),
        compose=lambda f, g: scm.SCMap(g.source, f.target, f.mat.mul(g.mat)),
        add_map=lambda f, g: scm.SCMap(f.source, f.target, f.mat.add(g.mat)),
        scale_map=lambda f, c: scm.SCMap(f.source, f.target, f.mat.scale(c)),
        map_mats=lambda f: {"*": f.mat},
        map_from_mats=lambda s, d, mats: scm.SCMap(s, d, mats["*"]),
        is_morphism=lambda f: f.is_valid(),
        hom_basis=scm.hom_basis_sc,
        kernel=kernel,
        quotient=quotient,
        obj_equal=lambda x, y: x.dim == y.dim and x.action == y.action,
        is_semisimple_base=is_ss,
    )


# -- triples ------------------------------------------------------------------------------

def triple_cat(spec) -> Cat:
    f = spec.r.field
    zero = tm.zero_triple(spec)

    def kernel(fm):
        return tm.triple_kernel(fm)

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
        field=f,
        keys=lambda t: ["x", "y"],
        comp_dim=lambda t, k: t.x.dim if k == "x" else t.y.dim,
        zero_obj=lambda: zero,
        sum_obj=lambda ts: tm.triple_sum(spec, ts),
        identity=tm.identity_triple_map,
        zero_map=tm.zero_triple_map,
        compose=lambda a_, b_: a_.compose(b_),
        add_map=lambda a_, b_: a_.add(b_),
        scale_map=lambda a_, c: a_.scale(c),
        map_mats=lambda fm: {"x": fm.u, "y": fm.w},
        map_from_mats=lambda s, d, mats: tm.TripleMap(s, d, mats["x"], mats["y"]),
        is_morphism=lambda fm: fm.is_valid(),
        hom_basis=tm.triple_hom_basis,
        kernel=kernel,
        quotient=quotient,
        obj_equal=lambda a_, b_: (a_.x.dim == b_.x.dim and a_.y.dim == b_.y.dim
                                  and a_.x.action == b_.x.action
                                  and a_.y.action == b_.y.action and a_.phi == b_.phi),
        is_semisimple_base=lambda: False,
    )
