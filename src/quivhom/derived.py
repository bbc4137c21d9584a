"""Bounded complexes and a generation-witness calculus for bounded derived categories.

A generation witness is a tree certificate: leaves exhibit a complex (possibly
after an explicit quasi-isomorphic replacement) as a direct factor of a finite
sum of shifted generator summands; nodes carry a short exact sequence of
complexes 0 -> A -> B -> C -> 0, checked exact by ranks degree by degree.  In
the bounded derived category every such sequence is a triangle
A -> B -> C -> A[1], split or not, so it realizes the rotated triangle
B -> C -> A[1], with child witnesses for B and A[1] and the node target a
direct factor of C.  Then depth(node) = depth(B-child) + depth(A[1]-child)
bounds the generation level of the target, and every certificate is
checkable by exact rank arithmetic.  The two assembly theorems produce depth
2n+2 witnesses for complexes of representations (from per-vertex witnesses
pushed through the adjoints) and for complexes of triples (via the
triangular-ring triangle).  Both end in one gluing step (``_glue``), which
reads the terms of the standard triangle off the children it covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import repcat as rc
from . import scmodule as scm
from . import trimat as tm
from .cats import Cat, mod_cat, rep_cat, sc_cat, triple_cat
from .errors import (
    CertificateBrokenByFunctor,
    NotSemisimple,
    QuivhomError,
    TensorNotExactOnCertificates,
)
from .exactlin import Mat, rank, solve_matrix


# ---------------------------------------------------------------------------------
# complexes and chain maps


@dataclass
class Complex:
    cat: Cat
    lo: int
    hi: int
    objs: dict   # degree -> object, for lo..hi
    diffs: dict  # degree -> morphism X^i -> X^{i+1}, for lo..hi-1

    def __post_init__(self):
        # the zero padding goes into copies, never into the caller's dicts
        self.objs, self.diffs = dict(self.objs), dict(self.diffs)
        if self.hi < self.lo:
            raise QuivhomError(f"degrees {self.lo}..{self.hi} are empty: a complex needs lo <= hi")
        if any(not self.lo <= i <= self.hi for i in self.objs) \
                or any(not self.lo <= i < self.hi for i in self.diffs):
            raise QuivhomError(f"a term or differential lies outside degrees {self.lo}..{self.hi}")
        for i in range(self.lo, self.hi + 1):
            if i not in self.objs:
                self.objs[i] = self.cat.zero_obj()
        for i in range(self.lo, self.hi):
            if i not in self.diffs:
                self.diffs[i] = self.cat.zero_map(self.objs[i], self.objs[i + 1])

    def obj(self, i):
        if self.lo <= i <= self.hi:
            return self.objs[i]
        return self.cat.zero_obj()

    def diff(self, i):
        if self.lo <= i < self.hi:
            return self.diffs[i]
        return self.cat.zero_map(self.obj(i), self.obj(i + 1))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def total_dim(self):
        return sum(self.cat.total_dim(self.objs[i]) for i in self.degrees())

    def is_zero(self):
        return self.total_dim() == 0

    def check(self) -> bool:
        """Each d^i runs X^i -> X^{i+1} and is a morphism, and d^{i+1} d^i = 0."""
        cat = self.cat
        if not all(_same_obj(cat, self.diffs[i].source, self.objs[i])
                   and _same_obj(cat, self.diffs[i].target, self.objs[i + 1])
                   for i in range(self.lo, self.hi)):
            return False
        for i in range(self.lo, self.hi - 1):
            comp = cat.compose(self.diffs[i + 1], self.diffs[i])
            if any(not m.is_zero() for m in cat.map_mats(comp).values()):
                return False
        return all(cat.is_morphism(self.diffs[i]) for i in range(self.lo, self.hi))


def concentrated(cat: Cat, obj, degree: int = 0) -> Complex:
    return Complex(cat, degree, degree, {degree: obj}, {})


def zero_complex(cat: Cat) -> Complex:
    return Complex(cat, 0, 0, {}, {})


def shift_complex(c: Complex, k: int) -> Complex:
    """(C[k])^i = C^{i+k} with differential (-1)^k d."""
    objs = {i - k: c.objs[i] for i in c.degrees()}
    diffs = {}
    for i in range(c.lo, c.hi):
        d = c.diffs[i]
        if k % 2 == 1:
            d = c.cat.scale_map(d, c.cat.field.neg(c.cat.field.one()))
        diffs[i - k] = d
    return Complex(c.cat, c.lo - k, c.hi - k, objs, diffs)


def complexes_equal(a: Complex, b: Complex) -> bool:
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    for i in range(lo, hi + 1):
        oa, ob = a.obj(i), b.obj(i)
        if a.cat.total_dim(oa) != b.cat.total_dim(ob):
            return False
        if a.cat.total_dim(oa) and not a.cat.obj_equal(oa, ob):
            return False
    for i in range(lo, hi):
        if a.cat.total_dim(a.obj(i)) and a.cat.total_dim(a.obj(i + 1)):
            ma = a.cat.map_mats(a.diff(i))
            mb = b.cat.map_mats(b.diff(i))
            if ma != mb:
                return False
    return True


@dataclass
class ChainMap:
    source: Complex
    target: Complex
    comps: dict  # degree -> morphism

    def comp(self, i):
        if i in self.comps:
            return self.comps[i]
        return self.source.cat.zero_map(self.source.obj(i), self.target.obj(i))

    def check(self) -> bool:
        """Each f^i runs X^i -> Y^i and is a morphism, and d_Y f^i = f^{i+1} d_X,
        compared block by block.  A side whose differential block is zero is
        the zero block, so a product is formed only with a nonzero
        differential block."""
        x, y = self.source, self.target
        cat = x.cat
        if not all(_same_obj(cat, f.source, x.obj(i)) and _same_obj(cat, f.target, y.obj(i))
                   for i, f in self.comps.items()):
            return False
        lo, hi = min(x.lo, y.lo), max(x.hi, y.hi)
        comps = {i: cat.map_mats(self.comp(i)) for i in range(lo, hi + 1)}
        for i in range(lo, hi):
            dy, dx = cat.map_mats(y.diff(i)), cat.map_mats(x.diff(i))
            for k, f in comps[i].items():
                zy, zx = dy[k].is_zero(), dx[k].is_zero()
                if zy != zx:  # one side is the zero block
                    same = (comps[i + 1][k].mul(dx[k]) if zy else dy[k].mul(f)).is_zero()
                else:
                    same = zy or dy[k].mul(f) == comps[i + 1][k].mul(dx[k])
                if not same:
                    return False
        return all(cat.is_morphism(self.comp(i)) for i in range(lo, hi + 1))

    def compose(self, other: "ChainMap") -> "ChainMap":
        cat = self.source.cat
        lo = min(other.source.lo, self.target.lo)
        hi = max(other.source.hi, self.target.hi)
        comps = {i: cat.compose(self.comp(i), other.comp(i)) for i in range(lo, hi + 1)}
        return ChainMap(other.source, self.target, comps)

    def is_identity_on(self, x: Complex) -> bool:
        cat = x.cat
        for i in x.degrees():
            ident = cat.map_mats(cat.identity(x.obj(i)))
            got = cat.map_mats(self.comp(i))
            if any(got[k] != ident[k] for k in ident):
                return False
        return True


def _same_obj(cat: Cat, a, b) -> bool:
    """a and b are one object: the identical one, or equal ones."""
    return a is b or cat.obj_equal(a, b)


def _same(a: Complex, b: Complex) -> bool:
    """a and b are one complex: the identical object, taken without
    comparing, or equal ones."""
    return a is b or complexes_equal(a, b)


def _runs(f: Optional[ChainMap], src: Complex, dst: Complex) -> bool:
    """f is a chain map src -> dst."""
    return f is not None and _same(f.source, src) and _same(f.target, dst)


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, {i: x.cat.identity(x.obj(i)) for i in x.degrees()})


def zero_chain_map(x: Complex, y: Complex) -> ChainMap:
    return ChainMap(x, y, {})


def shift_chain_map(f: ChainMap, k: int) -> ChainMap:
    return ChainMap(shift_complex(f.source, k), shift_complex(f.target, k),
                    {i - k: m for i, m in f.comps.items()})


def sum_complexes(cat: Cat, cs) -> Complex:
    """The direct sum of complexes, degree by degree, with the differentials
    placed block diagonally.  Its summand maps are, degree by degree, the
    ``Cat.components``/``Cat.restrictions`` of the identity."""
    cs = list(cs)
    if not cs:
        return zero_complex(cat)
    lo, hi = min(c.lo for c in cs), max(c.hi for c in cs)
    objs = {i: cat.sum_obj([c.obj(i) for c in cs]) for i in range(lo, hi + 1)}
    diffs = {i: cat.diag(objs[i], objs[i + 1], [c.diff(i) for c in cs]) for i in range(lo, hi)}
    return Complex(cat, lo, hi, objs, diffs)


def evaluate_complex(x: Complex, v: str) -> Complex:
    """Vertexwise complex of base-algebra modules from a complex of representations."""
    _, a = rc.quiver_and_base(x.objs[x.lo])
    objs = {i: rc.evaluate(x.objs[i], v) for i in x.degrees()}
    diffs = {i: rc.evaluate_map(x.diffs[i], v, objs[i], objs[i + 1]) for i in range(x.lo, x.hi)}
    return Complex(mod_cat(a), x.lo, x.hi, objs, diffs)


# ---------------------------------------------------------------------------------
# cohomology and quasi-isomorphisms


def cohomology_dims(c: Complex):
    """dim H^i = dim X^i - rank d^i - rank d^{i-1} per degree; a map is block
    diagonal over the keys, so its rank is the sum of its blocks' ranks."""
    r = {i: sum(rank(m) for m in c.cat.map_mats(c.diffs[i]).values()) for i in range(c.lo, c.hi)}
    return {i: c.cat.total_dim(c.objs[i]) - r.get(i, 0) - r.get(i - 1, 0) for i in c.degrees()}


def is_quasi_iso(f: ChainMap) -> bool:
    """f : X -> Y induces isomorphisms on cohomology.

    f is a quasi-isomorphism exactly when its cone is acyclic, where
    Cone^i = X^{i+1} + Y^i and d^i = [[-d_X^{i+1}, 0], [f^{i+1}, d_Y^i]].
    Forgetting to one key is exact, so the cone is acyclic exactly when, key
    by key, rank d^{i-1} + rank d^i = dim Cone^i in every degree.  Negating
    d_X is a row operation and changes no rank, so it is left out."""
    x, y = f.source, f.target
    cat = x.cat
    degrees = range(min(x.lo, y.lo) - 1, max(x.hi, y.hi) + 1)
    cone = {i: (cat.map_mats(x.diff(i + 1)), cat.map_mats(f.comp(i + 1)), cat.map_mats(y.diff(i)))
            for i in degrees}
    for k in cat.keys(x.obj(x.lo)):
        prev = 0  # rank d^{i-1}
        for i in degrees:
            dx, fk, dy = (m[k] for m in cone[i])
            r = rank(Mat.from_blocks(cat.field, [dx.rows, dy.rows], [dx.cols, dy.cols],
                                     {(0, 0): dx, (1, 0): fk, (1, 1): dy}))
            if prev + r != dx.cols + dy.cols:
                return False
            prev = r
    return True


# ---------------------------------------------------------------------------------
# short exact sequences of complexes


@dataclass
class ComplexSES:
    a: Complex
    b: Complex
    c: Complex
    incl: ChainMap
    epi: ChainMap

    def verify(self, details=None) -> bool:
        """The maps run A -> B -> C (``map_ends``, checked first); chain maps,
        zero composite and exactness degree by degree and key by key: incl
        of full column rank, epi of full row rank (so epi has a linear right
        inverse) and dim B = dim A + dim C.  Each check's result goes into
        ``details`` under its name."""
        cat = self.a.cat
        checks = details if details is not None else {}
        checks["map_ends"] = _runs(self.incl, self.a, self.b) and _runs(self.epi, self.b, self.c)
        if not checks["map_ends"]:
            return False
        checks["incl_chain"] = self.incl.check()
        checks["epi_chain"] = self.epi.check()
        comp = self.epi.compose(self.incl)
        checks["composite_zero"] = all(
            m.is_zero() for i in comp.comps for m in cat.map_mats(comp.comp(i)).values())
        lo = min(self.a.lo, self.b.lo, self.c.lo)
        hi = max(self.a.hi, self.b.hi, self.c.hi)
        mono = epi = dims = True
        for i in range(lo, hi + 1):
            im = cat.map_mats(self.incl.comp(i))
            em = cat.map_mats(self.epi.comp(i))
            for k in im:
                mono &= rank(im[k]) == im[k].cols
                epi &= rank(em[k]) == em[k].rows
                dims &= im[k].cols + em[k].rows == im[k].rows
        checks["incl_mono"] = mono
        checks["epi_onto"] = epi
        checks["dimension_count"] = dims
        return all(checks.values())


# ---------------------------------------------------------------------------------
# witnesses


@dataclass
class Leaf:
    target: Complex
    entries: list                      # [(generator index, shift)]
    incl: ChainMap                     # X' -> expression
    retr: ChainMap                     # expression -> X'
    replaced: Optional[Complex] = None
    to_replaced: Optional[ChainMap] = None
    from_replaced: Optional[ChainMap] = None

    def depth(self) -> int:
        return 1 if self.entries else 0


@dataclass
class Node:
    target: Complex
    ses: ComplexSES
    child_mid: object                  # witness for ses.b
    child_shift: object                # witness for shift(ses.a, 1)
    factor_incl: Optional[ChainMap] = None   # target -> ses.c
    factor_retr: Optional[ChainMap] = None   # ses.c -> target

    def depth(self) -> int:
        return self.child_mid.depth() + self.child_shift.depth()


def build_expression(cat: Cat, generators, entries) -> Complex:
    """Direct sum of shifted generator summands, zero differentials: the
    summand of an entry (g, s) is generator g in degree -s and zero
    elsewhere, so degree i is the sum of the generators anchored there, in
    entry order."""
    if not entries:
        return zero_complex(cat)
    lo, hi = min(-s for _, s in entries), max(-s for _, s in entries)
    return Complex(cat, lo, hi, {i: cat.sum_obj([generators[g] for g, s in entries if s == -i])
                                 for i in range(lo, hi + 1)}, {})


@dataclass
class CheckFailure:
    locus: str
    reason: str


def witness_check(w, generators, d: int, cat: Cat, locus: str = "root"):
    """Full certificate verification; returns (ok, failure or None).

    Every map must run between the complexes it certifies: a leaf's
    target -> X' -> target and X' -> expression -> X' (X' its replacement, or
    else its target), a node's A -> B -> C and target -> C -> target.  A
    leaf's entries must name generators of the list."""
    if w.depth() > d:
        return False, CheckFailure(locus, f"depth {w.depth()} exceeds {d}")
    if isinstance(w, Leaf):
        if any(not 0 <= g < len(generators) for g, _ in w.entries):
            return False, CheckFailure(locus, f"an entry is outside the {len(generators)} generators")
        x_prime = w.replaced if w.replaced is not None else w.target
        if w.replaced is not None and not (_runs(w.to_replaced, w.target, x_prime)
                                           and _runs(w.from_replaced, x_prime, w.target)):
            return False, CheckFailure(locus, "replacement maps do not run target <-> replacement")
        if not (_same(w.incl.source, x_prime) and _runs(w.retr, w.incl.target, x_prime)):
            return False, CheckFailure(locus, "factor maps do not run X' -> expression -> X'")
        if w.replaced is not None:
            if not w.to_replaced.check() or not w.from_replaced.check():
                return False, CheckFailure(locus, "replacement maps are not chain maps")
            if not is_quasi_iso(w.to_replaced) or not is_quasi_iso(w.from_replaced):
                return False, CheckFailure(locus, "replacement maps are not quasi-isomorphisms")
        expr = build_expression(cat, generators, w.entries)
        if not complexes_equal(expr, w.incl.target):
            return False, CheckFailure(locus, "expression does not match the entry list")
        if not w.incl.check() or not w.retr.check():
            return False, CheckFailure(locus, "factor maps are not chain maps")
        comp = w.retr.compose(w.incl)
        if not comp.is_identity_on(x_prime):
            return False, CheckFailure(locus, "retraction is not a left inverse")
        if not x_prime.check() or (w.replaced is not None and not w.target.check()):
            return False, CheckFailure(locus, "leaf target or replacement is not a complex")
        return True, None
    if isinstance(w, Node):
        details = {}
        if not w.ses.verify(details):
            bad = [k for k, v in details.items() if not v]
            return False, CheckFailure(locus, f"exact sequence fails: {', '.join(bad)}")
        if not _same(w.child_mid.target, w.ses.b):
            return False, CheckFailure(locus, "middle child target mismatch")
        if not complexes_equal(w.child_shift.target, shift_complex(w.ses.a, 1)):
            return False, CheckFailure(locus, "shifted child target mismatch")
        if w.factor_incl is not None:
            if not (_runs(w.factor_incl, w.target, w.ses.c)
                    and _runs(w.factor_retr, w.ses.c, w.target)):
                return False, CheckFailure(locus, "factor maps do not run target <-> quotient")
            if not w.factor_incl.check() or not w.factor_retr.check():
                return False, CheckFailure(locus, "factor certificate maps invalid")
            comp = w.factor_retr.compose(w.factor_incl)
            if not comp.is_identity_on(w.target):
                return False, CheckFailure(locus, "factor retraction not a left inverse")
        else:
            if not _same(w.target, w.ses.c):
                return False, CheckFailure(locus, "target differs from quotient, no factor maps")
        ok, fail = witness_check(w.child_mid, generators, w.child_mid.depth(), cat,
                                 locus + ".mid")
        if not ok:
            return False, fail
        ok, fail = witness_check(w.child_shift, generators, w.child_shift.depth(), cat,
                                 locus + ".shift")
        if not ok:
            return False, fail
        return True, None
    return False, CheckFailure(locus, "unknown witness kind")


def empty_leaf(cat: Cat) -> Leaf:
    """Depth-zero witness of a zero complex."""
    z, e = zero_complex(cat), zero_complex(cat)
    return Leaf(z, [], ChainMap(z, e, {}), ChainMap(e, z, {}))


# ---------------------------------------------------------------------------------
# leaf constructions


def semisimple_split(x: Complex, generators) -> Leaf:
    """Quasi-isomorphic replacement by the cohomology with zero differentials,
    anchored in the given generator summands (the simples of the base)."""
    cat = x.cat
    if not cat.is_semisimple_base():
        raise NotSemisimple("base is not semisimple; no canonical splitting")
    h_objs, g_comps, f_comps = {}, {}, {}
    for i in x.degrees():
        ker, incl = cat.kernel(x.diff(i))
        p = cat.retraction(incl)
        if p is None:
            raise NotSemisimple("cycles are not a direct summand")
        prev_mats = cat.map_mats(x.diff(i - 1))
        incl_mats = cat.map_mats(incl)
        image_cols = {}
        for k in cat.keys(ker):
            sol = solve_matrix(incl_mats[k], prev_mats[k])
            if sol is None:
                raise QuivhomError("image escapes kernel")
            image_cols[k] = sol
        h, qproj = cat.quotient(ker, image_cols)
        s = cat.section(qproj)
        if s is None:
            raise NotSemisimple("quotient is not split")
        h_objs[i] = h
        g_comps[i] = cat.compose(incl, s)          # H^i -> X^i
        f_comps[i] = cat.compose(qproj, p)         # X^i -> H^i
    hcx = Complex(cat, x.lo, x.hi, h_objs, {})
    found = _split_degreewise(hcx, generators)
    if found is None:
        raise NotSemisimple("cohomology does not split into the generators")
    return Leaf(x, *found, replaced=hcx, to_replaced=ChainMap(x, hcx, f_comps),
                from_replaced=ChainMap(hcx, x, g_comps))


def shift_leaf(w: Leaf, k: int) -> Leaf:
    """The leaf w of X, shifted: a leaf of X[k] with entries (g, s + k).

    Its target, replacement and expression are those of w shifted by k, each
    built once and shared by every map that runs between them, so ``_same``
    matches them by identity; the maps keep w's components, re-indexed, as
    ``shift_chain_map`` does.  An empty expression stays the zero complex in
    degree 0, where ``_split_degreewise`` puts it.  For a leaf of
    ``semisimple_split`` this is ``semisimple_split`` of X[k], matrix for
    matrix: d and -d have the same rref, so the kernels, images, quotients
    and splits of X[k] are those of X, and only the target's differentials
    change sign (for odd k)."""
    target = shift_complex(w.target, k)
    x_prime = target if w.replaced is None else shift_complex(w.replaced, k)
    expr = shift_complex(w.incl.target, k) if w.entries else w.incl.target

    def moved(f, src, dst):
        return ChainMap(src, dst, {i - k: m for i, m in f.comps.items()})

    entries = [(g, s + k) for g, s in w.entries]
    incl, retr = moved(w.incl, x_prime, expr), moved(w.retr, expr, x_prime)
    if w.replaced is None:
        return Leaf(target, entries, incl, retr)
    return Leaf(target, entries, incl, retr, x_prime,
                moved(w.to_replaced, target, x_prime), moved(w.from_replaced, x_prime, target))


def try_leaf(x: Complex, generators):
    """Direct split of x into shifted generators, as a chain-level factor.

    The expression has zero differentials, so retr o incl = id_x forces
    d_x = d_x o retr o incl = retr o d_expr o incl = 0: a complex with a
    nonzero differential has no such split, and is ruled out before any
    hom basis is computed.  With d_x = 0 as well, the split is one of
    objects, one ``Cat.split_into`` per degree (``_split_degreewise``)."""
    cat = x.cat
    if any(not m.is_zero() for i in range(x.lo, x.hi) for m in cat.map_mats(x.diffs[i]).values()):
        return None
    found = _split_degreewise(x, generators)
    return None if found is None else Leaf(x, *found)


def _split_degreewise(x: Complex, generators):
    """(entries, incl, retr) exhibiting x, a complex with zero differentials,
    as a direct factor of a sum of shifted generators; None when it is not.

    Between complexes with zero differentials every family of morphisms is
    a chain map, so x splits off the expression exactly when each X^i splits
    off its summands.  Each degree is one ``Cat.split_into``: retr^i is its
    copair u, incl^i its section of u.  The expression spans the degrees
    where summands are anchored, as ``build_expression`` places them."""
    cat = x.cat
    entries, objs, incl, retr = [], {}, {}, {}
    for i in x.degrees():
        found = cat.split_into(x.objs[i], generators)
        if found is None:
            return None
        pieces, total, incl[i], retr[i] = found
        if pieces:
            objs[i] = total
        entries.extend((g, -i) for g in pieces)
    expr = Complex(cat, min(objs, default=0), max(objs, default=0), objs, {})
    return entries, ChainMap(x, expr, incl), ChainMap(expr, x, retr)


# ---------------------------------------------------------------------------------
# the standard triangle at complex level
#
# Both assembly theorems cover x by its standard triangle 0 -> A -> B -> x -> 0:
# for representations B = sum_v e^v_lambda(X_v) and A = sum_a e^{t(a)}_lambda(X_{s(a)}),
# for triples B = k1(X) + k2(Y) and A = k2(M (x) X).  These terms are the
# functor images that the mid child (a witness of B) and the shift child (a
# witness of A[1]) push into, so ``_glue`` reads them off the children, and
# only the maps A^i -> B^i -> x^i come from ``repcat.standard_presentation``
# or ``trimat.triple_ses``, degree by degree.


def _glue(x: Complex, mid_parts, shift_parts, maps_at) -> Node:
    """The node of x over its standard triangle.

    B is the target of the mid child, the sum of ``mid_parts``, and A is the
    target of the shift child, the sum of ``shift_parts``, shifted back by
    one; ``maps_at(i, A^i, B^i)`` gives (incl^i, epi^i).  The sequence is
    checked by ``ComplexSES.verify``, and a failure raises ``QuivhomError``."""
    cat = x.cat
    mid, sh = witness_direct_sum(cat, mid_parts), witness_direct_sum(cat, shift_parts)
    a, b = shift_complex(sh.target, -1), mid.target
    incl, epi = {}, {}
    for i in x.degrees():
        incl[i], epi[i] = maps_at(i, a.obj(i), b.obj(i))
    ses = ComplexSES(a, b, x, ChainMap(a, b, incl), ChainMap(b, x, epi))
    details = {}
    if not ses.verify(details):
        raise QuivhomError(f"standard triangle failed verification: {details}")
    return Node(x, ses, mid, sh)


# ---------------------------------------------------------------------------------
# witness combinators


def pad_to_node(w) -> Node:
    """Wrap a leaf in an identity sequence without changing its depth."""
    t = w.target
    cat = t.cat
    z = zero_complex(cat)
    ses = ComplexSES(z, t, t, zero_chain_map(z, t), identity_chain_map(t))
    return Node(t, ses, w, empty_leaf(cat))


def witness_direct_sum(cat: Cat, ws):
    """Sum of witnesses; leaves merge (depth = max), nodes sum componentwise."""
    ws = list(ws)
    if not ws:
        return empty_leaf(cat)
    if len(ws) == 1:
        return ws[0]
    if all(isinstance(w, Leaf) for w in ws):
        total = sum_complexes(cat, [w.target for w in ws])
        any_replaced = any(w.replaced is not None for w in ws)
        rtotal = total if not any_replaced else sum_complexes(
            cat, [w.replaced if w.replaced is not None else w.target for w in ws])
        entries = []
        for w in ws:
            entries.extend(w.entries)
        # the sum of the leaf expressions is, block by block, the expression
        # of the concatenated entry list
        etotal = sum_complexes(cat, [w.incl.target for w in ws])
        incl = _diag_chain_map(cat, rtotal, etotal, [w.incl for w in ws])
        retr = _diag_chain_map(cat, etotal, rtotal, [w.retr for w in ws])
        if not any_replaced:
            return Leaf(total, entries, incl, retr)
        to_r = _diag_chain_map(cat, total, rtotal, [
            w.to_replaced if w.to_replaced is not None else identity_chain_map(w.target)
            for w in ws])
        from_r = _diag_chain_map(cat, rtotal, total, [
            w.from_replaced if w.from_replaced is not None else identity_chain_map(w.target)
            for w in ws])
        return Leaf(total, entries, incl, retr, rtotal, to_r, from_r)
    nodes = [w if isinstance(w, Node) else pad_to_node(w) for w in ws]
    b_sum = sum_complexes(cat, [n.ses.b for n in nodes])
    c_sum = sum_complexes(cat, [n.ses.c for n in nodes])
    a_total = sum_complexes(cat, [n.ses.a for n in nodes])
    incl = _diag_chain_map(cat, a_total, b_sum, [n.ses.incl for n in nodes])
    epi = _diag_chain_map(cat, b_sum, c_sum, [n.ses.epi for n in nodes])
    ses = ComplexSES(a_total, b_sum, c_sum, incl, epi)
    t_sum = sum_complexes(cat, [n.target for n in nodes])
    fi = _diag_chain_map(cat, t_sum, c_sum, [
        n.factor_incl if n.factor_incl is not None else identity_chain_map(n.target)
        for n in nodes])
    fr = _diag_chain_map(cat, c_sum, t_sum, [
        n.factor_retr if n.factor_retr is not None else identity_chain_map(n.target)
        for n in nodes])
    mid = witness_direct_sum(cat, [n.child_mid for n in nodes])
    sh = witness_direct_sum(cat, [n.child_shift for n in nodes])
    return Node(t_sum, ses, mid, sh, factor_incl=fi, factor_retr=fr)


def _diag_chain_map(cat: Cat, src: Complex, dst: Complex, fs):
    """f_1 + ... + f_n : src -> dst between the direct sums of their sources
    and targets, over the degrees of both."""
    return ChainMap(src, dst, {
        i: cat.diag(src.obj(i), dst.obj(i), [g.comp(i) for g in fs])
        for i in range(min(src.lo, dst.lo), max(src.hi, dst.hi) + 1)})


# ---------------------------------------------------------------------------------
# exact functors and witness transport


@dataclass
class CFunctor:
    name: str
    src_cat: Cat
    dst_cat: Cat
    on_obj: object
    on_map: object  # morphism -> morphism (between on_obj images)

    def on_complex(self, c: Complex) -> Complex:
        objs = {i: self.on_obj(c.objs[i]) for i in c.degrees()}
        diffs = {i: self.on_map(c.diffs[i]) for i in range(c.lo, c.hi)}
        return Complex(self.dst_cat, c.lo, c.hi, objs, diffs)

    def on_chain_map(self, f: ChainMap, src_img: Complex, dst_img: Complex) -> ChainMap:
        """F(f) between the images of f's source and target, which the caller
        has already built."""
        return ChainMap(src_img, dst_img, {i: self.on_map(f.comps[i]) for i in f.comps})


def _per_object(build):
    """build(m), computed once per object; every zero object shares one
    image, since a complex makes a new zero object for each degree outside
    its range."""
    cache = {}

    def image(m):
        key = None if m.is_zero() else id(m)
        if key not in cache:
            cache[key] = (m, build(m))  # m is kept so that its id stays unique
        return cache[key][1]

    return image


def left_adjoint_functor(q, a, v) -> CFunctor:
    on_obj = _per_object(lambda m: rc.left_adjoint(q, v, m))

    def on_map(f):
        return rc.left_adjoint_map(on_obj(f.source), on_obj(f.target), f)

    return CFunctor(f"e^{v}_lambda", mod_cat(a), rep_cat(q, a), on_obj, on_map)


def tensor_functor(spec, k1: CFunctor) -> CFunctor:
    """M (x) -, the Y side of k1(X) = (X, M (x) X)_1: M (x) X is k1(X).y and
    M (x) u is k1(u).w, so every tensor is the one that k1 has built."""

    def on_map(f):
        g = k1.on_map(f)
        return scm.SCMap(g.source.y, g.target.y, g.w)

    return CFunctor("M(x)-", sc_cat(spec.r), sc_cat(spec.s), lambda m: k1.on_obj(m).y, on_map)


def k1_functor(spec) -> CFunctor:
    on_obj = _per_object(lambda m: tm.e1_lambda(spec, m))

    def on_map(f):
        src, dst = on_obj(f.source), on_obj(f.target)
        tu = tm.tensor_map(spec, src.tensor, dst.tensor, f.mat)
        return tm.TripleMap(src, dst, f.mat, tu)

    return CFunctor("k^1_lambda", sc_cat(spec.r), triple_cat(spec), on_obj, on_map)


def k2_functor(spec) -> CFunctor:
    on_obj = _per_object(lambda m: tm.e2_lambda(spec, m))

    def on_map(f):
        src, dst = on_obj(f.source), on_obj(f.target)
        return tm.TripleMap(src, dst, Mat.zeros(spec.r.field, 0, 0), f.mat)

    return CFunctor("k^2_lambda", sc_cat(spec.s), triple_cat(spec), on_obj, on_map)


def pushforward_witness(w, functor: CFunctor, old_generators, new_generators, gen_index_map):
    """Transport a witness through an additive functor.

    ``gen_index_map[g]`` names the new generator summand equal to F(old g);
    the equality is checked structurally, which is what lets each leaf's
    expression over the new generators hold the blocks F(old g) (see
    ``_push``).  An index outside either generator list, or a leaf
    generator missing from the map, raises ``QuivhomError``.  Each node's
    sequence is verified again after transport, and a functor that breaks its
    exactness raises CertificateBrokenByFunctor.  The rest is not re-checked:
    ``witness_check`` on the witness that contains it covers it.
    """
    cat = functor.dst_cat
    for g_old in gen_index_map:
        g_new = _generator_image(gen_index_map, g_old, old_generators, new_generators)
        img = functor.on_obj(old_generators[g_old])
        if not cat.obj_equal(img, new_generators[g_new]):
            raise CertificateBrokenByFunctor(
                f"functor image of generator {g_old} differs from new generator {g_new}")
    return _push(w, functor, old_generators, new_generators, gen_index_map)


def _generator_image(gmap, g, old_gens, new_gens):
    """gmap[g], the new generator that F(old generator g) equals."""
    if g not in gmap:
        raise QuivhomError(f"generator {g} of a leaf has no image in the generator map")
    new = gmap[g]
    if not 0 <= g < len(old_gens) or not 0 <= new < len(new_gens):
        raise QuivhomError(f"the generator map sends generator {g} to {new}, outside the "
                           f"{len(old_gens)} old and {len(new_gens)} new generators")
    return new


def _push(w, functor, old_gens, new_gens, gmap):
    """F applied to a witness, leaf expressions re-read over new_gens.

    A leaf exhibits X' (its replacement, or else its target) as a factor of
    an expression E = sum of shifted old generators.  F(E) is never built:
    in degree i, E^i is the sum of the generators anchored there, so incl^i
    is the stack of its components proj_k o incl^i and retr^i the copair of
    its restrictions retr^i o inj_k.  F is a functor, so
    F(proj_k o incl^i) = F(proj_k) o F(incl^i), and stacking the
    F(proj_k o incl^i) into the new expression, whose summand k is
    F(old g_k) by the generator check, is phi o F(incl) for the canonical
    iso phi : F(E) -> sum F(g_k) (the F(proj_k) stacked); likewise the
    copair of the F(retr^i o inj_k) is F(retr) o phi^-1.  Every matrix is
    the one the iso would give, entry for entry, and F is applied only to
    the objects of X', of the target and of the old generators."""
    cat = functor.dst_cat
    if isinstance(w, Leaf):
        entries = [(_generator_image(gmap, g, old_gens, new_gens), s) for g, s in w.entries]
        new_target = functor.on_complex(w.target)
        x_old = w.target if w.replaced is None else w.replaced
        new_x = new_target if w.replaced is None else functor.on_complex(w.replaced)
        new_expr = build_expression(cat, new_gens, entries)
        src_cat = functor.src_cat
        incl, retr = {}, {}
        for i in range(min(x_old.lo, new_expr.lo), max(x_old.hi, new_expr.hi) + 1):
            anchored = [old_gens[g] for g, s in w.entries if s == -i]
            xi = x_old.obj(i)
            incl[i] = cat.stack(new_x.obj(i), new_expr.obj(i), [
                functor.on_map(c) for c in src_cat.components(xi, w.incl.comp(i), anchored)])
            retr[i] = cat.copair(new_expr.obj(i), new_x.obj(i), [
                functor.on_map(r) for r in src_cat.restrictions(xi, w.retr.comp(i), anchored)])
        incl, retr = ChainMap(new_x, new_expr, incl), ChainMap(new_expr, new_x, retr)
        if w.replaced is None:
            return Leaf(new_target, entries, incl, retr)
        to_r = functor.on_chain_map(w.to_replaced, src_img=new_target, dst_img=new_x)
        from_r = functor.on_chain_map(w.from_replaced, src_img=new_x, dst_img=new_target)
        return Leaf(new_target, entries, incl, retr, new_x, to_r, from_r)
    # node
    a_new = functor.on_complex(w.ses.a)
    b_new = functor.on_complex(w.ses.b)
    c_new = functor.on_complex(w.ses.c)
    incl = functor.on_chain_map(w.ses.incl, src_img=a_new, dst_img=b_new)
    epi = functor.on_chain_map(w.ses.epi, src_img=b_new, dst_img=c_new)
    ses = ComplexSES(a_new, b_new, c_new, incl, epi)
    details = {}
    if not ses.verify(details):
        raise CertificateBrokenByFunctor(
            f"functor {functor.name} broke a short exact sequence: {details}")
    mid = _push(w.child_mid, functor, old_gens, new_gens, gmap)
    sh = _push(w.child_shift, functor, old_gens, new_gens, gmap)
    new_target = functor.on_complex(w.target)
    fi = fr = None
    if w.factor_incl is not None:
        fi = functor.on_chain_map(w.factor_incl, src_img=new_target, dst_img=c_new)
        fr = functor.on_chain_map(w.factor_retr, src_img=c_new, dst_img=new_target)
    return Node(new_target, ses, mid, sh, factor_incl=fi, factor_retr=fr)


# ---------------------------------------------------------------------------------
# the two assembly theorems (upper-bound witnesses)


def rep_complex_witness(x: Complex, base_generators, shortcut: bool = True):
    """Witness of depth <= 2n+2 over the pushed generators, for a complex of
    representations; n+1 is the depth ``semisimple_split`` achieves over the
    base.

    The node is the standard triangle.  Its mid part pushes the split of
    each vertex complex X_v through e^v_lambda, and its shift part the split
    of X_{s(a)}[1] through e^{t(a)}_lambda for each arrow a.  Each X_v is
    evaluated and split once: the shift part of a is ``shift_leaf`` of the
    leaf at s(a), whose objects are the leaf's own, so the functor at t(a)
    builds their images once for all arrows from s(a) to t(a), and the
    presentation of each degree reads its pieces from the same images."""
    q, a = rc.quiver_and_base(x.objs[x.lo])
    # one functor per vertex: the generators, the mid part at v, the shift
    # parts of the arrows into v and the presentations share its image cache
    functors = {v: left_adjoint_functor(q, a, v) for v in q.vertices}
    new_gens = []
    gen_of = {}
    for v in q.vertices:
        for j, g in enumerate(base_generators):
            gen_of[(v, j)] = len(new_gens)
            new_gens.append(functors[v].on_obj(g))
    if shortcut:
        leaf = try_leaf(x, new_gens)
        if leaf is not None:
            return leaf, new_gens
    at = {v: evaluate_complex(x, v) for v in q.vertices}
    leaves = {v: semisimple_split(at[v], base_generators) for v in q.vertices}
    mid_parts = []
    for v in q.vertices:
        gmap = {j: gen_of[(v, j)] for j in range(len(base_generators))}
        mid_parts.append(pushforward_witness(leaves[v], functors[v], base_generators, new_gens,
                                             gmap))
    shift_parts = []
    for arr in q.arrows:
        gmap = {j: gen_of[(arr.target, j)] for j in range(len(base_generators))}
        shift_parts.append(pushforward_witness(shift_leaf(leaves[arr.source], 1),
                                               functors[arr.target], base_generators,
                                               new_gens, gmap))

    def presentation(i, a_i, b_i):
        return rc.standard_presentation(
            x.objs[i], [functors[v].on_obj(at[v].objs[i]) for v in q.vertices],
            [functors[arr.target].on_obj(at[arr.source].objs[i]) for arr in q.arrows], b_i, a_i)

    return _glue(x, mid_parts, shift_parts, presentation), new_gens


def triple_complex_witness(x: Complex, r_generators, s_generators, shortcut: bool = True):
    """Witness for a complex of triples over k1(R-generators) + k2(S-generators).

    The node is the triangular-ring triangle.  Its mid part pushes the
    splits of the X- and Y-complexes through k1 and k2; its shift part
    transports the X-split shifted by 1 (``shift_leaf``, no second split)
    through M (x) -, re-anchors it in the S-generators and pushes it
    through k2.  M (x) - is read off the mid part's k1, so each tensor is
    built once."""
    spec = x.objs[x.lo].spec
    rcat_ = sc_cat(spec.r)
    scat_ = sc_cat(spec.s)
    k1 = k1_functor(spec)
    k2 = k2_functor(spec)
    new_gens = []
    gmap_r, gmap_s = {}, {}
    for j, g in enumerate(r_generators):
        gmap_r[j] = len(new_gens)
        new_gens.append(k1.on_obj(g))
    for j, g in enumerate(s_generators):
        gmap_s[j] = len(new_gens)
        new_gens.append(k2.on_obj(g))
    if shortcut:
        leaf = try_leaf(x, new_gens)
        if leaf is not None:
            return leaf, new_gens
    # middle: k1(X-component) + k2(Y-component)
    x_cplx = Complex(rcat_, x.lo, x.hi,
                     {i: x.objs[i].x for i in x.degrees()},
                     {i: scm.SCMap(x.objs[i].x, x.objs[i + 1].x, x.diffs[i].u)
                      for i in range(x.lo, x.hi)})
    y_cplx = Complex(scat_, x.lo, x.hi,
                     {i: x.objs[i].y for i in x.degrees()},
                     {i: scm.SCMap(x.objs[i].y, x.objs[i + 1].y, x.diffs[i].w)
                      for i in range(x.lo, x.hi)})
    leaf_x = semisimple_split(x_cplx, r_generators)
    w_x = pushforward_witness(leaf_x, k1, r_generators, new_gens, gmap_r)
    w_y = pushforward_witness(semisimple_split(y_cplx, s_generators), k2, s_generators,
                              new_gens, gmap_s)
    # left term: transport the R-side witness through the tensor, re-anchor
    # its leaves in the S-generators, then push through k2; shift by 1
    w_x2 = shift_leaf(leaf_x, 1)  # a leaf: the tensor verifies no sequence on it
    tens = tensor_functor(spec, k1)
    tens_gens = [tens.on_obj(g) for g in r_generators]
    w_t = _push(w_x2, tens, r_generators, tens_gens, {j: j for j in range(len(r_generators))})
    w_t = _reanchor(w_t, tens_gens, s_generators, scat_)
    sh = pushforward_witness(w_t, k2, s_generators, new_gens, gmap_s)
    return _glue(x, [w_x, w_y], [sh],
                 lambda i, a_i, b_i: tm.triple_ses(x.objs[i], a_i, b_i)), new_gens


def _reanchor(w, old_gen_objs, new_gens, cat: Cat):
    """Replace the generator references of the leaf ``w`` by split factors
    inside the new generators."""
    splits = {}
    for g, _ in w.entries:
        if g in splits:
            continue
        found = _split_degreewise(concentrated(cat, old_gen_objs[g]), new_gens)
        if found is None:
            raise TensorNotExactOnCertificates(
                f"tensored generator {g} is not a direct factor of the target generators")
        splits[g] = found
    # the new expression lists, piece by piece, the split of each old
    # piece, so the routing maps are block diagonal with the shifted splits
    new_entries, incls, retrs = [], [], []
    for g, s in w.entries:
        sub_entries, s_incl, s_retr = splits[g]
        new_entries.extend((gg, ss + s) for gg, ss in sub_entries)
        incls.append(shift_chain_map(s_incl, s))
        retrs.append(shift_chain_map(s_retr, s))
    old_expr = build_expression(cat, old_gen_objs, w.entries)
    new_expr = build_expression(cat, new_gens, new_entries)
    phi = _diag_chain_map(cat, old_expr, new_expr, incls)
    psi = _diag_chain_map(cat, new_expr, old_expr, retrs)
    incl = phi.compose(w.incl)
    retr = w.retr.compose(psi)
    return Leaf(w.target, new_entries, incl, retr,
                replaced=w.replaced, to_replaced=w.to_replaced,
                from_replaced=w.from_replaced)
