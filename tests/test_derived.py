"""Generation witnesses on small complexes, checked by ``witness_check``."""

import dataclasses
import random
import sys

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.errors import (CertificateBrokenByFunctor, NotSemisimple, QuivhomError,
                            TensorNotExactOnCertificates)
from quivhom.exactlin import GF, QQ, Mat


def _sum_of_basis(cat, x, y):
    f = cat.zero_map(x, y)
    for b in cat.hom_basis(x, y):
        f = cat.add_map(f, b)
    return f


def _two_term(cat, x0, x1):
    return dv.Complex(cat, 0, 1, {0: x0, 1: x1}, {0: _sum_of_basis(cat, x0, x1)})


def _check(w, gens, cx):
    ok, failure = dv.witness_check(w, gens, 2, cx.cat)
    assert ok, failure
    assert w.depth() <= 2
    assert dv.cohomology_dims(w.target) == dv.cohomology_dims(cx)


def test_rep_witness_kronecker_without_shortcut():
    q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
    m = alg.AlgMod(k, {"1": 1}, {})
    cx = _two_term(cats.rep_cat(q, k), rc.left_adjoint(q, "2", m), rc.left_adjoint(q, "1", m))
    assert dv.cohomology_dims(cx) == {0: 0, 1: 2}
    w, gens = dv.rep_complex_witness(cx, [m], shortcut=False)
    assert isinstance(w, dv.Node)
    _check(w, gens, cx)


def test_triple_witness_t2k():
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))

    def triple(a, b, phi):
        x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
        y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
        return tm.TripleModule(spec, x, y, phi)

    cx = _two_term(cats.triple_cat(spec), triple(0, 1, Mat.zeros(QQ, 1, 0)),
                   triple(1, 1, Mat.from_rows(QQ, [[1]])))
    assert dv.cohomology_dims(cx) == {0: 0, 1: 1}
    r_gens = [scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])]
    s_gens = [scm.SCModule(spec.s, 1, [Mat.identity(QQ, 1)])]
    w, gens = dv.triple_complex_witness(cx, r_gens, s_gens, shortcut=False)
    _check(w, gens, cx)


def test_k2_functor_starts_in_s_modules():
    # R = k and S = kA2 differ, with M = S as an S-k-bimodule
    r = alg.sc_of_bqa(alg.ground_field_algebra(QQ))
    s = alg.sc_of_bqa(alg.path_algebra(QQ, qv.a_n(2)))
    m = tm.Bimodule(s, r, s.dim, scm.regular_module(s).action, [Mat.identity(QQ, s.dim)])
    spec = tm.TriRingSpec(r, s, m)
    k2 = dv.k2_functor(spec)
    assert k2.src_cat.zero_obj().sc is spec.s
    y = scm.regular_module(s)
    img = k2.on_map(k2.src_cat.identity(y))
    assert k2.dst_cat.is_morphism(img)


def test_triple_witness_with_r_not_s_pushes_the_tensor_into_s_modules():
    # R = k and S = k x k differ, with M = S as an S-k-bimodule: the shift
    # part of e2(S) -> e1(k) is pushed through M (x) - into S-modules, where
    # it is anchored in M (x) k before it is re-anchored in the S-generators
    r = alg.sc_of_bqa(alg.ground_field_algebra(QQ))
    kk = alg.path_algebra(QQ, qv.make_quiver(["1", "2"], []))
    s = alg.sc_of_bqa(kk)
    m = tm.Bimodule(s, r, s.dim, scm.regular_module(s).action, [Mat.identity(QQ, s.dim)])
    spec = tm.TriRingSpec(r, s, m)
    r_gens = [scm.SCModule(r, 1, [Mat.identity(QQ, 1)])]
    s_gens = [scm.sc_module_of_algmod(alg.simple_module(kk, v), s) for v in "12"]
    cx = _two_term(cats.triple_cat(spec), tm.e2_lambda(spec, scm.regular_module(s)),
                   tm.e1_lambda(spec, r_gens[0]))
    w, gens = dv.triple_complex_witness(cx, r_gens, s_gens, shortcut=False)
    _check(w, gens, cx)
    assert w.depth() == 2


def test_triple_witness_refuses_a_tensor_outside_the_s_generators():
    # the same ring, with S_1 alone as S-generator: M (x) k = S_1 + S_2 is no
    # direct factor of a sum of copies of S_1, so re-anchoring the shift part
    # of (k, 0)_0 in the S-generators fails
    r = alg.sc_of_bqa(alg.ground_field_algebra(QQ))
    kk = alg.path_algebra(QQ, qv.make_quiver(["1", "2"], []))
    s = alg.sc_of_bqa(kk)
    m = tm.Bimodule(s, r, s.dim, scm.regular_module(s).action, [Mat.identity(QQ, s.dim)])
    spec = tm.TriRingSpec(r, s, m)
    r_gens = [scm.SCModule(r, 1, [Mat.identity(QQ, 1)])]
    s_gens = [scm.sc_module_of_algmod(alg.simple_module(kk, "1"), s)]
    t = tm.TripleModule(spec, r_gens[0], scm.zero_sc_module(s), Mat.zeros(QQ, 0, 2))
    cx = dv.Complex(cats.triple_cat(spec), 0, 0, {0: t}, {})
    with pytest.raises(TensorNotExactOnCertificates, match="not a direct factor"):
        dv.triple_complex_witness(cx, r_gens, s_gens, shortcut=False)


# -- direct sums of complexes, placed block by block -------------------------------

def _sum_with_maps(cat, parts):
    """(total, injs, projs) of a direct sum of objects: the summand maps are
    the blocks of the identity."""
    total = cat.sum_obj(parts)
    ident = cat.identity(total)
    return total, cat.restrictions(total, ident, parts), cat.components(total, ident, parts)


def _sum_complexes_with_maps(cat, cs):
    """``sum_complexes`` with its injections and projections, degree by degree."""
    total = dv.sum_complexes(cat, cs)
    maps = {i: _sum_with_maps(cat, [c.obj(i) for c in cs])[1:] for i in total.degrees()}
    injs = [dv.ChainMap(c, total, {i: m[0][k] for i, m in maps.items()}) for k, c in enumerate(cs)]
    projs = [dv.ChainMap(total, c, {i: m[1][k] for i, m in maps.items()}) for k, c in enumerate(cs)]
    return total, injs, projs


def _reference_sum(cat, cs):
    """Direct sum of complexes with each differential the sum of the
    inj o d o proj products over the summands."""
    lo, hi = min(c.lo for c in cs), max(c.hi for c in cs)
    sums = {i: _sum_with_maps(cat, [c.obj(i) for c in cs]) for i in range(lo, hi + 1)}
    diffs = {}
    for i in range(lo, hi):
        d = cat.zero_map(sums[i][0], sums[i + 1][0])
        for idx, c in enumerate(cs):
            piece = cat.compose(cat.compose(sums[i + 1][1][idx], c.diff(i)), sums[i][2][idx])
            d = cat.add_map(d, piece)
        diffs[i] = d
    return dv.Complex(cat, lo, hi, {i: s[0] for i, s in sums.items()}, diffs)


def _kA2_modules():
    a = alg.path_algebra(QQ, qv.a_n(2), name="kA2")
    return cats.mod_cat(a), alg.projective_module(a, "1"), alg.projective_module(a, "2")


def _kronecker_reps():
    q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
    m = alg.AlgMod(k, {"1": 1}, {})
    return q, k, m, rc.left_adjoint(q, "1", m), rc.left_adjoint(q, "2", m)


def _sc_modules():
    sc = alg.sc_of_bqa(alg.path_algebra(QQ, qv.a_n(2)))
    return cats.sc_cat(sc), scm.regular_module(sc)


def _t2():
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))

    def triple(a, b, phi):
        x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
        y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
        return tm.TripleModule(spec, x, y, phi)

    return spec, triple


def _summand_lists():
    """Per category, complexes over different degree ranges and a zero one."""
    mcat, p1, p2 = _kA2_modules()
    _, k, m, p1r, p2r = _kronecker_reps()
    q = qv.kronecker()
    rcat = cats.rep_cat(q, k)
    scat, reg = _sc_modules()
    spec, triple = _t2()
    tcat = cats.triple_cat(spec)
    t01, t11 = triple(0, 1, Mat.zeros(QQ, 1, 0)), triple(1, 1, Mat.from_rows(QQ, [[1]]))
    out = []
    for cat, x0, x1 in ((mcat, p2, p1), (rcat, p2r, p1r), (scat, reg, reg), (tcat, t01, t11)):
        a = _two_term(cat, x0, x1)
        b = dv.shift_complex(_two_term(cat, x1, x1), -1)
        out.append((cat, [a, dv.zero_complex(cat), b, dv.concentrated(cat, x0, 3)]))
    return out


def test_sum_complexes_matches_reference_assembly():
    for cat, cs in _summand_lists():
        total, injs, projs = _sum_complexes_with_maps(cat, cs)
        ref = _reference_sum(cat, cs)
        assert (total.lo, total.hi) == (ref.lo, ref.hi) == (0, 3)
        assert dv.complexes_equal(total, ref)
        assert total.check()
        for c, inj, pr in zip(cs, injs, projs):
            assert inj.check() and pr.check()
            assert pr.compose(inj).is_identity_on(c)
        assert dv.sum_complexes(cat, [cs[1]]).is_zero()


def test_sum_complexes_multiplies_no_matrices(monkeypatch):
    # the differentials of a sum are placed, not multiplied out, and so are
    # the objects: a sum of triples places the summands' tensors and phis
    lists = _summand_lists()
    calls = []
    real = Mat.mul

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Mat, "mul", counting)
    for cat, cs in lists:
        del calls[:]
        dv.sum_complexes(cat, cs)
        assert not calls, cat.name


# -- witness sums, transport and the split shortcut --------------------------------

def _k_complex(k, dims, d):
    """Two-term complex of k-vector spaces with the given differential."""
    mods = [alg.AlgMod(k, {"1": n}, {}) for n in dims]
    cat = cats.mod_cat(k)
    return dv.Complex(cat, 0, 1, {0: mods[0], 1: mods[1]},
                      {0: alg.ModMap(mods[0], mods[1], {"1": d})})


def test_witness_direct_sum_of_leaves_and_of_leaf_and_node():
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    c1 = _k_complex(k, (2, 1), Mat.from_rows(QQ, [[1, 2]]))
    c2 = _k_complex(k, (1, 2), Mat.zeros(QQ, 2, 1))
    l1, l2 = dv.semisimple_split(c1, [gen]), dv.semisimple_split(c2, [gen])
    w = dv.witness_direct_sum(c1.cat, [l1, l2])
    assert isinstance(w, dv.Leaf) and w.depth() == 1
    total = dv.sum_complexes(c1.cat, [c1, c2])
    _check(w, [gen], total)

    q, k, m, p1, p2 = _kronecker_reps()
    rcat = cats.rep_cat(q, k)
    cx = _two_term(rcat, p2, p1)
    node, gens = dv.rep_complex_witness(cx, [m], shortcut=False)
    flat = dv.Complex(rcat, 0, 1, {0: p2, 1: p1}, {})
    leaf = dv.try_leaf(flat, gens)
    w = dv.witness_direct_sum(rcat, [leaf, node])
    assert isinstance(w, dv.Node)
    total = dv.sum_complexes(rcat, [flat, cx])
    _check(w, gens, total)


def test_pushforward_strict_through_each_functor():
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    c = _k_complex(k, (2, 1), Mat.from_rows(QQ, [[1, 2]]))
    leaf = dv.semisimple_split(c, [gen])
    q = qv.kronecker()
    for v in q.vertices:
        functor = dv.left_adjoint_functor(q, k, v)
        for w in (leaf, dv.pad_to_node(leaf)):
            new_gens = [rc.left_adjoint(q, v, gen)]
            out = dv.pushforward_witness(w, functor, [gen], new_gens, {0: 0})
            assert dv.witness_check(out, new_gens, out.depth(), functor.dst_cat)[0]
            assert dv.complexes_equal(out.target, functor.on_complex(c))
            assert dv.cohomology_dims(out.target) == dv.cohomology_dims(functor.on_complex(c))

    spec, _ = _t2()
    for functor, sc in ((dv.k1_functor(spec), spec.r), (dv.k2_functor(spec), spec.s)):
        g = scm.SCModule(sc, 1, [Mat.identity(QQ, 1)])
        x0 = scm.SCModule(sc, 2, [Mat.identity(QQ, 2)])
        x1 = scm.SCModule(sc, 1, [Mat.identity(QQ, 1)])
        cat = cats.sc_cat(sc)
        cx = dv.Complex(cat, 0, 1, {0: x0, 1: x1},
                        {0: scm.SCMap(x0, x1, Mat.from_rows(QQ, [[1, 2]]))})
        leaf = dv.semisimple_split(cx, [g])
        for w in (leaf, dv.pad_to_node(leaf)):
            new_gens = [functor.on_obj(g)]
            out = dv.pushforward_witness(w, functor, [g], new_gens, {0: 0})
            assert dv.witness_check(out, new_gens, out.depth(), functor.dst_cat)[0]
            assert dv.complexes_equal(out.target, functor.on_complex(cx))


def test_tensor_functor_builds_each_image_once():
    spec, _ = _t2()
    tens = dv.tensor_functor(spec, dv.k1_functor(spec))
    x = scm.SCModule(spec.r, 2, [Mat.identity(QQ, 2)])
    f = scm.SCMap(x, x, Mat.identity(QQ, 2))
    img = tens.on_obj(x)
    assert tens.on_obj(x) is img
    assert tens.on_map(f).source is img and tens.on_map(f).target is img


def test_try_leaf_splits_zero_differentials_only():
    q, k, m, p1, p2 = _kronecker_reps()
    rcat = cats.rep_cat(q, k)
    gens = [rc.left_adjoint(q, v, m) for v in q.vertices]
    flat = dv.Complex(rcat, 0, 1, {0: p2, 1: p1}, {})
    leaf = dv.try_leaf(flat, gens)
    assert isinstance(leaf, dv.Leaf) and leaf.depth() == 1
    ok, failure = dv.witness_check(leaf, gens, 1, rcat)
    assert ok, failure
    assert dv.try_leaf(_two_term(rcat, p2, p1), gens) is None

    spec, triple = _t2()
    tcat = cats.triple_cat(spec)
    k1, k2 = dv.k1_functor(spec), dv.k2_functor(spec)
    tgens = [k1.on_obj(scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])),
             k2.on_obj(scm.SCModule(spec.s, 1, [Mat.identity(QQ, 1)]))]
    t01, t11 = triple(0, 1, Mat.zeros(QQ, 1, 0)), triple(1, 1, Mat.from_rows(QQ, [[1]]))
    leaf = dv.try_leaf(dv.Complex(tcat, 0, 1, {0: t01, 1: t11}, {}), tgens)
    ok, failure = dv.witness_check(leaf, tgens, 1, tcat)
    assert ok, failure
    assert dv.try_leaf(_two_term(tcat, t01, t11), tgens) is None


def test_try_leaf_solves_nothing_when_a_differential_is_nonzero():
    q, k, m, p1, p2 = _kronecker_reps()
    calls = []

    def counting(x, y):
        calls.append(1)
        return alg.hom_basis(x, y)

    rcat = dataclasses.replace(cats.rep_cat(q, k), hom_basis=counting)
    gens = [rc.left_adjoint(q, v, m) for v in q.vertices]
    cx = _two_term(cats.rep_cat(q, k), p2, p1)
    assert dv.try_leaf(dv.Complex(rcat, cx.lo, cx.hi, cx.objs, cx.diffs), gens) is None
    assert not calls
    # with the differential dropped, the split is solved
    assert dv.try_leaf(dv.Complex(rcat, 0, 1, {0: p2, 1: p1}, {}), gens) is not None
    assert calls


def test_try_leaf_needs_every_degree_in_add_of_the_generators():
    cat, p1, p2 = _kA2_modules()
    s1 = alg.simple_module(p1.algebra, "1")
    gens = [p1, p2]
    leaf = dv.try_leaf(dv.Complex(cat, 0, 1, {0: p2, 1: p1}, {}), gens)
    assert dv.witness_check(leaf, gens, 1, cat) == (True, None)
    # S1 is not projective, so degree 1 is not in add(P1 + P2)
    assert dv.try_leaf(dv.Complex(cat, 0, 1, {0: p2, 1: s1}, {}), gens) is None


def test_witness_check_rejects_a_replacement_that_is_not_a_quasi_iso():
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    c = _k_complex(k, (2, 1), Mat.from_rows(QQ, [[1, 2]]))
    leaf = dv.semisimple_split(c, [gen])
    assert dv.witness_check(leaf, [gen], 1, c.cat) == (True, None)
    bad = dataclasses.replace(leaf, to_replaced=dv.zero_chain_map(leaf.target, leaf.replaced))
    ok, failure = dv.witness_check(bad, [gen], 1, c.cat)
    assert not ok and failure.reason == "replacement maps are not quasi-isomorphisms"


# -- quasi-isomorphisms, decided on the cone ----------------------------------------

ADAPTERS = ("mod", "rep", "sc", "triple")


def _resolution(adapter):
    """(cat, K, P, S): 0 -> K -> P -> S -> 0 is exact, P is projective and
    each of Hom(K, P), Hom(P, S) is one-dimensional."""
    if adapter in ("mod", "sc"):
        cat, p1, p2 = _kA2_modules()
        objs = (p2, p1, alg.simple_module(p1.algebra, "1"))
        if adapter == "mod":
            return (cat,) + objs
        sc = alg.sc_of_bqa(p1.algebra)
        return (cats.sc_cat(sc),) + tuple(scm.sc_module_of_algmod(x, sc) for x in objs)
    if adapter == "rep":
        q, k = qv.a_n(2), alg.ground_field_algebra(QQ)
        m = alg.AlgMod(k, {"1": 1}, {})
        return (cats.rep_cat(q, k), rc.left_adjoint(q, "2", m), rc.left_adjoint(q, "1", m),
                rc.rep_simple(q, k, "1", "1"))
    spec, triple = _t2()
    return (cats.triple_cat(spec), triple(0, 1, Mat.zeros(QQ, 1, 0)),
            triple(1, 1, Mat.from_rows(QQ, [[1]])), triple(1, 0, Mat.zeros(QQ, 0, 1)))


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_is_quasi_iso_compares_cohomology_through_the_map(adapter):
    cat, k_, p, s = _resolution(adapter)
    res = dv.Complex(cat, -1, 0, {-1: k_, 0: p}, {-1: _sum_of_basis(cat, k_, p)})
    top = dv.concentrated(cat, s)
    aug = dv.ChainMap(res, top, {0: _sum_of_basis(cat, p, s)})
    assert res.check() and aug.check()
    assert dv.is_quasi_iso(dv.identity_chain_map(res))
    assert dv.is_quasi_iso(aug)
    assert not dv.is_quasi_iso(dv.zero_chain_map(res, top))
    # any map between acyclic complexes, the zero map included
    acyclic = [dv.Complex(cat, 0, 1, {0: x, 1: x}, {0: cat.identity(x)}) for x in (k_, p)]
    assert dv.is_quasi_iso(dv.zero_chain_map(*acyclic))
    # diag(1, 0) on P + P: equal cohomology dimensions, but not an isomorphism
    pp = dv.concentrated(cat, cat.sum_obj([p, p]))
    half = dv.ChainMap(pp, pp, {0: cat.diag(pp.objs[0], pp.objs[0],
                                            [cat.identity(p), cat.zero_map(p, p)])})
    assert half.check() and not dv.is_quasi_iso(half)


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_semisimple_split_replacements_are_quasi_isos(adapter):
    # gen + gen --(1 2)--> gen over a semisimple base: H^0 = gen, H^1 = 0
    if adapter == "mod":
        k = alg.ground_field_algebra(QQ)
        cat, gen = cats.mod_cat(k), alg.AlgMod(k, {"1": 1}, {})
    elif adapter == "rep":
        q, k = qv.a_n(2), alg.ground_field_algebra(QQ)
        cat, gen = cats.rep_cat(q, k), rc.left_adjoint(q, "1", alg.AlgMod(k, {"1": 1}, {}))
    elif adapter == "sc":
        sc = alg.sc_of_bqa(alg.ground_field_algebra(QQ))
        cat, gen = cats.sc_cat(sc), scm.SCModule(sc, 1, [Mat.identity(QQ, 1)])
    else:
        spec, triple = _t2()
        cat, gen = cats.triple_cat(spec), triple(1, 1, Mat.from_rows(QQ, [[1]]))
    two = cat.sum_obj([gen, gen])
    ident = cat.identity(gen)
    cx = dv.Complex(cat, 0, 1, {0: two, 1: gen},
                    {0: cat.copair(two, gen, [ident, cat.scale_map(ident, QQ.of_int(2))])})
    if adapter == "triple":
        with pytest.raises(NotSemisimple):  # T2(k) is not semisimple
            dv.semisimple_split(cx, [gen])
        return
    leaf = dv.semisimple_split(cx, [gen])
    assert dv.cohomology_dims(leaf.replaced) == dv.cohomology_dims(cx)
    assert dv.cohomology_dims(cx) == {0: cat.total_dim(gen), 1: 0}
    assert dv.is_quasi_iso(leaf.to_replaced) and dv.is_quasi_iso(leaf.from_replaced)


def test_rep_witness_builds_each_adjoint_piece_once(monkeypatch):
    # the standard triangle's terms are the images the children push into:
    # each left adjoint is built once per (vertex, module), none of them by
    # the presentation, and each vertex module is evaluated once per degree
    k = alg.ground_field_algebra(QQ)
    q = qv.d4((1, 0, 1))
    m = alg.AlgMod(k, {"1": 1}, {})
    cx = _two_term(cats.rep_cat(q, k), rc.left_adjoint(q, "c", m), rc.left_adjoint(q, "1", m))
    assert not cx.diffs[0].is_zero()
    adjoints, callers, evaluated = [], [], []
    real_adjoint, real_evaluate = rc.left_adjoint, rc.evaluate

    def counting_adjoint(qq, v, mod):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # comprehension frames
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        adjoints.append((v, mod))  # held, so that no id is reused
        return real_adjoint(qq, v, mod)

    def counting_evaluate(x, v):
        evaluated.append((v, x))
        return real_evaluate(x, v)

    monkeypatch.setattr(rc, "left_adjoint", counting_adjoint)
    monkeypatch.setattr(rc, "evaluate", counting_evaluate)
    w, gens = dv.rep_complex_witness(cx, [m], shortcut=False)
    _check(w, gens, cx)
    assert isinstance(w, dv.Node) and w.ses.b is w.child_mid.target
    assert len({(v, id(mod)) for v, mod in adjoints}) == len(adjoints)
    assert "standard_presentation" not in callers
    assert sorted((v, id(x)) for v, x in evaluated) == sorted(
        (v, id(cx.objs[i])) for v in q.vertices for i in cx.degrees())


def test_rep_witness_builds_one_left_adjoint_functor_per_vertex(monkeypatch):
    q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    m = alg.AlgMod(k, {"1": 1}, {})
    cx = _two_term(cats.rep_cat(q, k), rc.left_adjoint(q, "2", m), rc.left_adjoint(q, "1", m))
    functors, pushed = [], []
    real_functor, real_adjoint = dv.left_adjoint_functor, rc.left_adjoint

    def counting_functor(qq, a, v):
        functors.append(v)
        return real_functor(qq, a, v)

    def counting_adjoint(qq, v, mod):
        if mod is gen:
            pushed.append(v)
        return real_adjoint(qq, v, mod)

    monkeypatch.setattr(dv, "left_adjoint_functor", counting_functor)
    monkeypatch.setattr(rc, "left_adjoint", counting_adjoint)
    w, gens = dv.rep_complex_witness(cx, [gen], shortcut=False)
    _check(w, gens, cx)
    # the generator checks of the mid and shift parts reuse the images
    assert sorted(functors) == sorted(pushed) == sorted(q.vertices)


# -- short exact sequences of complexes, checked by ranks ---------------------------

FAULTS = ("incl_mono", "epi_onto", "composite_zero", "dimension_count", "incl_chain")


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("adapter", ("rep", "triple"))
def test_verify_rejects_a_planted_broken_sequence(adapter, fault):
    # 0 -> A -> A + C -> C -> 0 with A = (K -> P), d nonzero, and C = S in
    # degree 0, then one fault planted
    cat, k_, p, s = _resolution(adapter)
    a = _two_term(cat, k_, p)
    c = dv.concentrated(cat, s)
    b, injs, projs = _sum_complexes_with_maps(cat, [a, c])
    assert dv.ComplexSES(a, b, c, injs[0], projs[1]).verify()
    incl, epi = injs[0], projs[1]
    if fault == "incl_mono":
        incl = dv.zero_chain_map(a, b)
    elif fault == "epi_onto":
        epi = dv.zero_chain_map(b, c)
    elif fault == "composite_zero":  # 0 -> A -> A + A -> A -> 0 through one summand
        c = a
        b, injs, projs = _sum_complexes_with_maps(cat, [a, a])
        incl, epi = injs[0], projs[0]
    elif fault == "dimension_count":  # a second copy of C in the middle
        b, injs, projs = _sum_complexes_with_maps(cat, [a, c, c])
        incl, epi = injs[0], projs[1]
    else:  # twice the injection in degree 0 only
        incl = dv.ChainMap(a, b, {i: cat.scale_map(m, QQ.of_int(2)) if i == 0 else m
                                  for i, m in incl.comps.items()})
    details = {}
    assert not dv.ComplexSES(a, b, c, incl, epi).verify(details)
    assert details[fault] is False


# -- forged certificates: every map is tied to the complexes it certifies ------------

def _forgery_parts():
    """An honest Kronecker witness (a node whose middle child is a sum of
    pushed leaves with replacements), its generators, a leaf without a
    replacement over them, and an unrelated complex to forge with."""
    q, k, m, p1, p2 = _kronecker_reps()
    rcat = cats.rep_cat(q, k)
    cx = _two_term(rcat, p2, p1)
    w, gens = dv.rep_complex_witness(cx, [m], shortcut=False)
    flat = dv.try_leaf(dv.Complex(rcat, 0, 1, {0: p2, 1: p1}, {}), gens)
    other = dv.concentrated(rcat, p2)
    assert dv.witness_check(w, gens, 2, rcat)[0] and dv.witness_check(flat, gens, 1, rcat)[0]
    assert not dv.complexes_equal(other, cx) and not dv.complexes_equal(other, flat.target)
    return rcat, w, gens, flat, other


def test_witness_check_ties_a_leaf_to_its_target():
    rcat, w, gens, flat, other = _forgery_parts()
    lf = w.child_mid
    assert isinstance(lf, dv.Leaf) and lf.replaced is not None
    forged = dv.Leaf(other, lf.entries, lf.incl, lf.retr, lf.replaced, lf.to_replaced,
                     lf.from_replaced)
    ok, failure = dv.witness_check(forged, gens, 1, rcat)
    assert not ok and failure.reason == "replacement maps do not run target <-> replacement"
    ok, failure = dv.witness_check(dataclasses.replace(flat, target=other), gens, 1, rcat)
    assert not ok and failure.reason == "factor maps do not run X' -> expression -> X'"


def test_witness_check_ties_a_node_to_its_target():
    rcat, w, gens, _, other = _forgery_parts()
    ident = dv.identity_chain_map(other)
    forged = dv.Node(other, w.ses, w.child_mid, w.child_shift, ident, ident)
    ok, failure = dv.witness_check(forged, gens, 2, rcat)
    assert not ok and failure.reason == "factor maps do not run target <-> quotient"


def test_witness_check_ties_a_sequence_to_its_quotient():
    # the epi still lands in the true quotient, so every rank check holds
    rcat, w, gens, _, other = _forgery_parts()
    ses = dv.ComplexSES(w.ses.a, w.ses.b, other, w.ses.incl, w.ses.epi)
    details = {}
    assert not ses.verify(details) and details == {"map_ends": False}
    ok, failure = dv.witness_check(dv.Node(other, ses, w.child_mid, w.child_shift), gens, 2, rcat)
    assert not ok and failure.reason == "exact sequence fails: map_ends"


def test_witness_check_refuses_a_generator_index_outside_the_list():
    # past the end, and negative (which Python would wrap to the same generator)
    rcat, _, gens, flat, _ = _forgery_parts()
    for shift in (len(gens), -len(gens)):
        forged = dataclasses.replace(flat, entries=[(g + shift, s) for g, s in flat.entries])
        ok, failure = dv.witness_check(forged, gens, 1, rcat)
        assert not ok and failure.reason == f"an entry is outside the {len(gens)} generators"


# -- chain maps and differentials are tied to the terms of their complexes -----------

def _p1_and_s1_plus_s2():
    """Over kA2: M = P1 (arrow 1) and N = S1 + S2 (arrow 0), of one dimension
    vector, with N not in add(M)."""
    a = alg.path_algebra(QQ, qv.a_n(2), name="kA2")
    cat = cats.mod_cat(a)
    m = alg.projective_module(a, "1")
    n = cat.sum_obj([alg.simple_module(a, v) for v in a.quiver.vertices])
    assert m.dims == n.dims and cat.split_into(n, [m]) is None
    return cat, m, n


def test_witness_check_ties_chain_maps_to_the_terms_of_their_complexes():
    # the split of M, re-aimed at N: every matrix fits, but the maps run from M
    cat, m, n = _p1_and_s1_plus_s2()
    leaf = dv.try_leaf(dv.concentrated(cat, m), [m])
    assert dv.witness_check(leaf, [m], 1, cat) == (True, None)
    x, expr = dv.concentrated(cat, n), leaf.incl.target
    forged = dv.Leaf(x, leaf.entries, dv.ChainMap(x, expr, leaf.incl.comps),
                     dv.ChainMap(expr, x, leaf.retr.comps))
    assert not forged.incl.check() and not forged.retr.check()
    ok, failure = dv.witness_check(forged, [m], 1, cat)
    assert not ok and failure.reason == "factor maps are not chain maps"


def test_complex_check_ties_each_differential_to_its_terms():
    # d : N -> M with the matrices of id_M, given as id_M itself
    cat, m, n = _p1_and_s1_plus_s2()
    assert dv.Complex(cat, 0, 1, {0: m, 1: m}, {0: cat.identity(m)}).check()
    assert not dv.Complex(cat, 0, 1, {0: n, 1: m}, {0: cat.identity(m)}).check()
    assert not dv.Complex(cat, 0, 1, {0: m, 1: n}, {0: cat.identity(m)}).check()


def test_witness_check_checks_the_target_of_a_leaf_with_a_replacement():
    # the replacement maps are read off the honest target; the forged one has
    # its terms and matrices, but a differential that starts at another object
    q, k, _, p1, _ = _kronecker_reps()
    rcat = cats.rep_cat(q, k)
    mods = {v: rc.evaluate(p1, v) for v in q.vertices}
    other = rc.Rep(q, k, mods, {"a": rc.arrow_map(p1, "a", mods["1"], mods["2"])})
    assert not rcat.obj_equal(other, p1)
    x = dv.Complex(rcat, 0, 1, {0: p1, 1: p1}, {0: rcat.identity(p1)})
    leaf = dv.semisimple_split(x, [p1])
    assert dv.witness_check(leaf, [p1], 1, rcat) == (True, None)
    d = rcat.map_from_mats(other, p1, rcat.map_mats(x.diffs[0]))
    forged = dataclasses.replace(leaf, target=dv.Complex(rcat, 0, 1, {0: p1, 1: p1}, {0: d}))
    ok, failure = dv.witness_check(forged, [p1], 1, rcat)
    assert not ok and failure.reason == "leaf target or replacement is not a complex"


def test_complex_refuses_a_term_or_differential_outside_its_degrees():
    cat, m, n = _p1_and_s1_plus_s2()
    with pytest.raises(QuivhomError, match="outside degrees 0..1"):
        dv.Complex(cat, 0, 1, {0: n, 1: m, 5: m}, {})
    with pytest.raises(QuivhomError, match="outside degrees 0..1"):
        dv.Complex(cat, 0, 1, {0: m, 1: m}, {1: cat.identity(m)})


def test_complex_pads_copies_of_the_callers_dicts():
    # the zero terms and differentials a complex adds stay its own, so the
    # caller's dicts can build another complex over other degrees
    cat, m, _ = _p1_and_s1_plus_s2()
    objs, diffs = {0: m}, {}
    wide = dv.Complex(cat, 0, 2, objs, diffs)
    assert (objs, diffs) == ({0: m}, {})
    assert sorted(wide.objs) == [0, 1, 2] and sorted(wide.diffs) == [0, 1]
    narrow = dv.Complex(cat, 0, 0, objs, diffs)
    assert narrow.objs == {0: m} and narrow.diffs == {} and narrow.check()


def test_complex_refuses_an_empty_range_of_degrees():
    # hi < lo has no degrees at all, so it would be a complex with no terms
    # whose check() holds; the zero complex is zero_complex, in degree 0
    cat, m, _ = _p1_and_s1_plus_s2()
    with pytest.raises(QuivhomError, match="degrees 1..0 are empty"):
        dv.Complex(cat, 1, 0, {}, {})
    with pytest.raises(QuivhomError, match="degrees 3..1 are empty"):
        dv.Complex(cat, 3, 1, {}, {})
    assert dv.Complex(cat, 1, 1, {1: m}, {}).check()
    z = dv.zero_complex(cat)
    assert (z.lo, z.hi) == (0, 0) and z.is_zero()


def test_chain_map_check_forms_only_products_with_a_nonzero_differential_block(monkeypatch):
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    leaf = dv.semisimple_split(_k_complex(k, (2, 1), Mat.from_rows(QQ, [[1, 2]])), [gen])
    products = []
    mul = Mat.mul

    def counting(self, other):
        products.append((self.rows, self.cols, other.cols))
        return mul(self, other)

    monkeypatch.setattr(Mat, "mul", counting)
    # the expression and the replacement have zero differentials
    assert leaf.incl.check() and leaf.retr.check() and not products
    # X -> H and H -> X: one product each, with X's one nonzero block
    assert leaf.to_replaced.check() and len(products) == 1
    assert leaf.from_replaced.check() and len(products) == 2


def test_push_raises_when_the_functor_breaks_a_node_sequence():
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    mcat = cats.mod_cat(k)
    leaf = dv.semisimple_split(_k_complex(k, (2, 1), Mat.from_rows(QQ, [[1, 2]])), [gen])
    # additive, and the identity on objects, but every map goes to zero
    zero = dv.CFunctor("0", mcat, mcat, lambda m: m, lambda f: mcat.zero_map(f.source, f.target))
    node = dv.pad_to_node(leaf)
    with pytest.raises(CertificateBrokenByFunctor, match="'epi_onto': False"):
        dv.pushforward_witness(node, zero, [gen], [gen], {0: 0})


# -- transport through the adjoints, summand by summand -----------------------------

def _reference_push_leaf(w, functor, old_gens, new_gens, gmap):
    """(incl, retr, to_replaced, from_replaced) of a pushed leaf, through
    F(E) for the leaf's expression E: incl = phi o F(incl) and
    retr = F(retr) o phi^-1 for the canonical iso phi : F(E) -> sum F(g_k),
    whose degree i stacks the F(proj_k) of the summands anchored there."""
    cat, src_cat = functor.dst_cat, functor.src_cat
    new_target = functor.on_complex(w.target)
    new_expr = dv.build_expression(cat, new_gens, [(gmap[g], s) for g, s in w.entries])
    pieces = [dv.shift_complex(dv.concentrated(src_cat, old_gens[g]), s) for g, s in w.entries]
    _, oinjs, oprojs = _sum_complexes_with_maps(src_cat, pieces)
    f_expr = functor.on_complex(w.incl.target)
    degrees = range(min(f_expr.lo, new_expr.lo), max(f_expr.hi, new_expr.hi) + 1)
    anchored = {i: [k for k, (_, s) in enumerate(w.entries) if s == -i] for i in degrees}
    phi = dv.ChainMap(f_expr, new_expr, {
        i: cat.stack(f_expr.obj(i), new_expr.obj(i),
                     [functor.on_map(oprojs[k].comp(i)) for k in anchored[i]])
        for i in degrees})
    phi_inv = dv.ChainMap(new_expr, f_expr, {
        i: cat.copair(new_expr.obj(i), f_expr.obj(i),
                      [functor.on_map(oinjs[k].comp(i)) for k in anchored[i]])
        for i in degrees})
    if w.replaced is None:
        new_x, to_r, from_r = new_target, None, None
    else:
        new_x = functor.on_complex(w.replaced)
        to_r = functor.on_chain_map(w.to_replaced, src_img=new_target, dst_img=new_x)
        from_r = functor.on_chain_map(w.from_replaced, src_img=new_x, dst_img=new_target)
    incl = phi.compose(functor.on_chain_map(w.incl, src_img=new_x, dst_img=f_expr))
    retr = functor.on_chain_map(w.retr, src_img=f_expr, dst_img=new_x).compose(phi_inv)
    return incl, retr, to_r, from_r


def _assert_same_chain_map(got, want):
    if want is None:
        assert got is None
        return
    cat = want.source.cat
    assert dv.complexes_equal(got.source, want.source)
    assert dv.complexes_equal(got.target, want.target)
    assert sorted(got.comps) == sorted(want.comps)
    for i in want.comps:
        assert cat.map_mats(got.comps[i]) == cat.map_mats(want.comps[i]), i


def _leaves(cat, gens):
    """A leaf with a replacement, a shifted three-term one, one without a
    replacement and a sum of leaves (whose expression is a sum of
    expressions), over a semisimple base whose simples are ``gens``."""
    g, h = gens[0], gens[-1]
    one, zero = cat.identity(g), cat.zero_map
    gg, ggg = cat.sum_obj([g, g]), cat.sum_obj([g, g, g])
    gh, ghg = cat.sum_obj([g, h]), cat.sum_obj([g, h, g])
    d = cat.copair(ghg, g, [one, zero(h, g), cat.scale_map(one, cat.field.of_int(2))])
    replaced = dv.semisimple_split(dv.Complex(cat, 0, 1, {0: ghg, 1: g}, {0: d}), gens)
    e = cat.copair(ggg, gg, [cat.stack(g, gg, [one, zero(g, g)]),
                             cat.stack(g, gg, [zero(g, g), one]),
                             cat.stack(g, gg, [one, one])])
    shifted = dv.semisimple_split(dv.Complex(cat, -1, 1, {-1: ggg, 0: gg, 1: gh},
                                             {-1: e, 0: zero(gg, gh)}), gens)
    flat = dv.try_leaf(dv.Complex(cat, 0, 1, {0: gh, 1: gg}, {}), gens)
    assert replaced.replaced is not None and shifted.replaced is not None
    assert flat is not None and flat.replaced is None
    return [replaced, shifted, flat, dv.witness_direct_sum(cat, [flat, replaced])]


def _transport_cases():
    """(functor, old generators, new generators, leaves) for the left
    adjoints on Kronecker, an A3 and a D4 orientation (over k, and on
    Kronecker over k x k, whose two simples make the summand order matter),
    and for M (x) -, k1 and k2 over T2(k)."""
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    kk = alg.path_algebra(QQ, qv.make_quiver(["1", "2"], []))
    simples = [alg.simple_module(kk, v) for v in "12"]
    a3 = qv.make_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "2", "3")])
    bases = [(k, [gen], q) for q in (qv.kronecker(), a3, qv.d4((1, 0, 1)))]
    for a, gens, q in bases + [(kk, simples, qv.kronecker())]:
        leaves = _leaves(cats.mod_cat(a), gens)
        for v in q.vertices:
            yield (dv.left_adjoint_functor(q, a, v), gens, [rc.left_adjoint(q, v, g) for g in gens],
                   leaves)
    spec, _ = _t2()
    tens = dv.tensor_functor(spec, dv.k1_functor(spec))
    for functor, sc in ((tens, spec.r), (dv.k1_functor(spec), spec.r), (dv.k2_functor(spec), spec.s)):
        g = scm.SCModule(sc, 1, [Mat.identity(QQ, 1)])
        yield functor, [g], [functor.on_obj(g)], _leaves(cats.sc_cat(sc), [g])


def test_push_places_the_transport_through_the_expression_entry_for_entry():
    for functor, old_gens, new_gens, leaves in _transport_cases():
        gmap = {j: j for j in range(len(old_gens))}
        for leaf in leaves:
            for w in (leaf, dv.pad_to_node(leaf)):
                out = dv.pushforward_witness(w, functor, old_gens, new_gens, gmap)
                assert dv.witness_check(out, new_gens, out.depth(), functor.dst_cat)[0]
                if isinstance(w, dv.Node):
                    assert isinstance(out, dv.Node) and out.child_mid.depth() == 1
                    out = out.child_mid
                want = _reference_push_leaf(leaf, functor, old_gens, new_gens, gmap)
                for got, ref in zip((out.incl, out.retr, out.to_replaced, out.from_replaced), want):
                    _assert_same_chain_map(got, ref)


def test_push_applies_the_functor_to_no_expression(monkeypatch):
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    mcat = cats.mod_cat(k)
    for q in (qv.kronecker(), qv.d4((1, 0, 1))):
        for leaf in _leaves(mcat, [gen]):
            functor = dv.left_adjoint_functor(q, k, "1")
            new_gens = [rc.left_adjoint(q, "1", gen)]
            # the generator check has pushed the generator, and one zero
            # object stands for all of them
            functor.on_obj(gen)
            functor.on_obj(mcat.zero_obj())
            seen = []
            real = rc.left_adjoint

            def counting(qq, v, m):
                seen.append(m)
                return real(qq, v, m)

            monkeypatch.setattr(rc, "left_adjoint", counting)
            dv._push(leaf, functor, [gen], new_gens, {0: 0})
            monkeypatch.setattr(rc, "left_adjoint", real)
            # each nonzero object of the target and the replacement once,
            # except the generator, whose image is kept
            objs = [m for c in (leaf.target, leaf.replaced) if c is not None
                    for m in c.objs.values() if not m.is_zero() and m is not gen]
            assert sorted(map(id, seen)) == sorted({id(m) for m in objs})


def test_witness_sums_and_split_tests_build_no_summand_maps(monkeypatch):
    lists = _summand_lists()
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    mcat = cats.mod_cat(k)
    leaves = _leaves(mcat, [gen])
    q, kq, m, p1, p2 = _kronecker_reps()
    rcat = cats.rep_cat(q, kq)
    node, rgens = dv.rep_complex_witness(_two_term(rcat, p2, p1), [m], shortcut=False)
    flat = dv.try_leaf(dv.Complex(rcat, 0, 1, {0: p2, 1: p1}, {}), rgens)

    def refuse(field, sizes):
        raise AssertionError("summand maps built")

    monkeypatch.setattr(Mat, "summand_units", staticmethod(refuse))
    with pytest.raises(AssertionError):
        alg.direct_sum_mods(k, [gen, gen])
    for cat, cs in lists:
        objs = [c.obj(i) for c in cs for i in c.degrees() if c.cat.total_dim(c.obj(i))]
        expr = dv.build_expression(cat, objs, [(0, 0), (1, -1), (0, 2)])
        assert (expr.lo, expr.hi) == (-2, 1)
        assert cat.split_into(cat.sum_obj(objs[:2]), objs) is not None
    assert isinstance(dv.witness_direct_sum(mcat, leaves), dv.Leaf)
    assert isinstance(dv.witness_direct_sum(rcat, [flat, node]), dv.Node)


def test_push_names_a_generator_missing_from_the_map():
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    q = qv.kronecker()
    functor = dv.left_adjoint_functor(q, k, "1")
    new_gens = [rc.left_adjoint(q, "1", gen)]
    for leaf in _leaves(cats.mod_cat(k), [gen]):
        for w in (leaf, dv.pad_to_node(leaf)):
            with pytest.raises(QuivhomError, match="generator 0 of a leaf has no image"):
                dv.pushforward_witness(w, functor, [gen], new_gens, {})
            with pytest.raises(QuivhomError, match="generator 0 of a leaf has no image"):
                dv._push(w, functor, [gen], new_gens, {})


def test_push_names_a_generator_index_outside_the_lists():
    k = alg.ground_field_algebra(QQ)
    gen = alg.AlgMod(k, {"1": 1}, {})
    q = qv.kronecker()
    functor = dv.left_adjoint_functor(q, k, "2")
    new_gens = [rc.left_adjoint(q, "2", gen)]
    leaf = _leaves(cats.mod_cat(k), [gen])[0]
    cases = [({0: 1}, "sends generator 0 to 1"), ({0: -1}, "sends generator 0 to -1"),
             ({0: 0, 3: 0}, "sends generator 3 to 0")]
    for gmap, message in cases:
        with pytest.raises(QuivhomError, match=message):
            dv.pushforward_witness(leaf, functor, [gen], new_gens, gmap)
    # a leaf that uses the generator, pushed without the generator check
    with pytest.raises(QuivhomError, match="sends generator 0 to 1"):
        dv._push(leaf, functor, [gen], new_gens, {0: 1})
    with pytest.raises(QuivhomError, match="sends generator 0 to 0, outside the 0 old"):
        dv._push(leaf, functor, [], new_gens, {0: 0})


# -- leaves split each base complex once -----------------------------------------------

def _semisimple_bases():
    """(name, cat, simples) over semisimple bases: k over QQ and GF(101), k x k,
    and the structure constants of k and of k x k."""
    out = []
    for field in (QQ, GF(101)):
        k = alg.ground_field_algebra(field)
        out.append((f"mod-k-{field.kind}", cats.mod_cat(k), [alg.AlgMod(k, {"1": 1}, {})]))
    kk = alg.path_algebra(QQ, qv.make_quiver(["1", "2"], []))
    simples = [alg.simple_module(kk, v) for v in "12"]
    out.append(("mod-kxk", cats.mod_cat(kk), simples))
    kq = alg.ground_field_algebra(QQ)
    for name, a, gens in (("sc-k", kq, [alg.AlgMod(kq, {"1": 1}, {})]), ("sc-kxk", kk, simples)):
        sc = alg.sc_of_bqa(a)
        out.append((name, cats.sc_cat(sc), [scm.sc_module_of_algmod(g, sc) for g in gens]))
    return out


def _random_map(rng, cat, x, y):
    f = cat.zero_map(x, y)
    for b in cat.hom_basis(x, y):
        f = cat.add_map(f, cat.scale_map(b, cat.field.of_int(rng.randint(-2, 2))))
    return f


def _random_complexes(rng, cat, gens, n):
    """Complexes of sums of the generators in degrees -1..0 and 0..2 whose
    differentials are random (d1, then d0 through the kernel of d1)."""
    def obj():
        return cat.sum_obj([g for g in gens for _ in range(rng.randint(0, 2))])

    out = []
    for _ in range(n):
        x0, x1 = obj(), obj()
        out.append(dv.Complex(cat, -1, 0, {-1: x0, 0: x1}, {-1: _random_map(rng, cat, x0, x1)}))
        x0, x1, x2 = obj(), obj(), obj()
        d1 = _random_map(rng, cat, x1, x2)
        ker, incl = cat.kernel(d1)
        d0 = cat.compose(incl, _random_map(rng, cat, x0, ker))
        out.append(dv.Complex(cat, 0, 2, {0: x0, 1: x1, 2: x2}, {0: d0, 1: d1}))
    return out


def _assert_same_complex(got, want):
    cat = want.cat
    assert (got.lo, got.hi) == (want.lo, want.hi)
    for i in want.degrees():
        assert got.objs[i] is want.objs[i] or cat.obj_equal(got.objs[i], want.objs[i])
    for i in range(want.lo, want.hi):
        assert repr(cat.map_mats(got.diffs[i])) == repr(cat.map_mats(want.diffs[i])), i


def _assert_same_leaf(got, want):
    assert got.entries == want.entries
    _assert_same_complex(got.target, want.target)
    _assert_same_complex(got.incl.target, want.incl.target)
    if want.replaced is None:
        assert got.replaced is got.to_replaced is got.from_replaced is None
    else:
        _assert_same_complex(got.replaced, want.replaced)
    for g, w in ((got.incl, want.incl), (got.retr, want.retr),
                 (got.to_replaced, want.to_replaced), (got.from_replaced, want.from_replaced)):
        if w is not None:
            assert sorted(g.comps) == sorted(w.comps)
            cat = w.source.cat
            for i in w.comps:
                assert repr(cat.map_mats(g.comps[i])) == repr(cat.map_mats(w.comps[i])), i


@pytest.mark.parametrize("base", range(5), ids=[b[0] for b in _semisimple_bases()])
def test_shift_leaf_is_the_split_of_the_shifted_complex(base):
    _, cat, gens = _semisimple_bases()[base]
    rng = random.Random(17 + base)
    g = gens[0]
    acyclic = dv.Complex(cat, 0, 1, {0: g, 1: g}, {0: cat.identity(g)})
    nonempty = []
    for x in _random_complexes(rng, cat, gens, 4) + [acyclic]:
        leaf = dv.semisimple_split(x, gens)
        for k in (1, -1, 2):
            got = dv.shift_leaf(leaf, k)
            _assert_same_leaf(got, dv.semisimple_split(dv.shift_complex(x, k), gens))
            # each shifted complex is built once, and the maps run between them
            assert got.to_replaced.source is got.from_replaced.target is got.target
            assert got.incl.source is got.retr.target is got.replaced
            assert got.to_replaced.target is got.from_replaced.source is got.replaced
            assert got.incl.target is got.retr.source
            assert dv.witness_check(got, gens, 1, cat) == (True, None)
        nonempty.append(bool(leaf.entries))
    assert any(nonempty) and not nonempty[-1]  # an acyclic complex has no entries
    flat = dv.try_leaf(dv.concentrated(cat, cat.sum_obj(gens), 1), gens)
    got = dv.shift_leaf(flat, 1)
    _assert_same_leaf(got, dv.try_leaf(dv.concentrated(cat, flat.target.objs[1], 0), gens))
    assert dv.witness_check(got, gens, 1, cat) == (True, None)


def test_witnesses_split_each_base_complex_once(monkeypatch):
    # the shift part of an arrow a is the split at s(a), shifted: one split
    # per vertex of Kronecker, and one of the X-side for a triple complex
    q, k, m, p1, p2 = _kronecker_reps()
    rx = _two_term(cats.rep_cat(q, k), p2, p1)
    spec, triple = _t2()
    tx = _two_term(cats.triple_cat(spec), triple(0, 1, Mat.zeros(QQ, 1, 0)),
                   triple(1, 1, Mat.from_rows(QQ, [[1]])))
    r_gens = [scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])]
    s_gens = [scm.SCModule(spec.s, 1, [Mat.identity(QQ, 1)])]
    splits = []
    real = dv.semisimple_split

    def counting(x, gens):
        splits.append(x)
        return real(x, gens)

    monkeypatch.setattr(dv, "semisimple_split", counting)
    w, gens = dv.rep_complex_witness(rx, [m], shortcut=False)
    _check(w, gens, rx)
    assert len(splits) == len(q.vertices)
    del splits[:]
    w, gens = dv.triple_complex_witness(tx, r_gens, s_gens, shortcut=False)
    _check(w, gens, tx)
    assert len(splits) == 2  # the X side and the Y side
