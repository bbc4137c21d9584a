"""Category laws and split tests for the four adapters in ``cats`` on small fixed
inputs."""

import dataclasses
import random

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.errors import QuivhomError
from quivhom.exactlin import GF, QQ, Mat, rank, solve_matrix


def _mod_case():
    """mod kA2: the top P1 -> S1, with kernel rad P1."""
    a = alg.path_algebra(QQ, qv.a_n(2))
    x, y = alg.projective_module(a, "1"), alg.simple_module(a, "1")
    return cats.mod_cat(a), x, y


def _rep_case():
    """Kronecker representations over k: the top P(1) -> S(1)."""
    q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
    x = rc.left_adjoint(q, "1", alg.AlgMod(k, {"1": 1}, {}))
    y = rc.rep_simple(q, k, "1", "1")
    return cats.rep_cat(q, k), x, y


def _sc_case():
    """Raw modules over the structure constants of kA2: the regular module -> S1."""
    a = alg.path_algebra(QQ, qv.a_n(2))
    sc = alg.sc_of_bqa(a)
    x = scm.regular_module(sc)
    y = scm.sc_module_of_algmod(alg.simple_module(a, "1"), sc)
    return cats.sc_cat(sc), x, y


def _triple_case():
    """Triples over T2(k): the column projective (k, k)_1 -> (k, 0)_0."""
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))

    def triple(a, b, phi):
        x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
        y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
        return tm.TripleModule(spec, x, y, phi)

    x = triple(1, 1, Mat.from_rows(QQ, [[1]]))
    y = triple(1, 0, Mat.zeros(QQ, 0, 1))
    return cats.triple_cat(spec), x, y


CASES = {"mod": _mod_case, "rep": _rep_case, "sc": _sc_case, "triple": _triple_case}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cat, x, y = CASES[request.param]()
    basis = cat.hom_basis(x, y)
    assert basis, "each case needs a nonzero map x -> y"
    return cat, x, y, basis[0]


def _same(cat, f, g):
    return cat.flatten_map(f) == cat.flatten_map(g)


def _is_zero(cat, f):
    return all(c == 0 for c in cat.flatten_map(f))


def test_identity_is_neutral(case):
    cat, x, y, f = case
    assert _same(cat, cat.compose(cat.identity(y), f), f)
    assert _same(cat, cat.compose(f, cat.identity(x)), f)


def _sum_with_maps(cat, parts):
    """(total, injs, projs): the summand maps are the blocks of the identity."""
    total = cat.sum_obj(parts)
    ident = cat.identity(total)
    return total, cat.restrictions(total, ident, parts), cat.components(total, ident, parts)


def test_direct_sum_projections_and_injections(case):
    cat, x, y, _ = case
    parts = [x, y, x]
    total, injs, projs = _sum_with_maps(cat, parts)
    assert cat.total_dim(total) == sum(cat.total_dim(p) for p in parts)
    for i, p in enumerate(parts):
        assert cat.is_morphism(injs[i]) and cat.is_morphism(projs[i])
        for j, s in enumerate(parts):
            comp = cat.compose(projs[i], injs[j])
            if i == j:
                assert _same(cat, comp, cat.identity(p))
            else:
                assert _is_zero(cat, comp)


def test_sum_object_and_components_without_maps(case):
    # components and restrictions are the products with the summand maps,
    # read off as blocks
    cat, x, y, f = case
    parts = [y, x, y]
    total, injs, projs = _sum_with_maps(cat, parts)
    into = cat.stack(x, total, [f, cat.identity(x), cat.scale_map(f, QQ.of_int(3))])
    comps = cat.components(x, into, parts)
    assert all(_same(cat, c, cat.compose(p, into)) for c, p in zip(comps, projs))
    assert _same(cat, cat.stack(x, total, comps), into)
    out = cat.copair(total, y, [cat.identity(y), f, cat.zero_map(y, y)])
    rests = cat.restrictions(y, out, parts)
    assert all(_same(cat, r, cat.compose(out, i)) for r, i in zip(rests, injs))
    assert _same(cat, cat.copair(total, y, rests), out)


def test_kernel_inclusion(case):
    cat, x, y, f = case
    k, incl = cat.kernel(f)
    assert cat.total_dim(k) > 0
    assert cat.is_morphism(incl)
    assert _is_zero(cat, cat.compose(f, incl))


def test_quotient_projection(case):
    cat, x, y, f = case
    k, incl = cat.kernel(f)
    quot, proj = cat.quotient(x, cat.map_mats(incl))
    assert cat.is_morphism(proj)
    assert cat.total_dim(quot) == cat.total_dim(x) - cat.total_dim(k)
    assert _is_zero(cat, cat.compose(proj, incl))


@pytest.mark.parametrize("pair", ["xy", "xx", "yy"])
def test_hom_basis_is_an_independent_set_of_morphisms(case, pair):
    cat, x, y, _ = case
    src, dst = (x if c == "x" else y for c in pair)
    basis = cat.hom_basis(src, dst)
    assert basis
    for b in basis:
        assert cat.is_morphism(b)
    stacked = Mat.from_rows(cat.field, [cat.flatten_map(b) for b in basis])
    assert rank(stacked) == len(basis)


def test_split_into_returns_a_section_of_the_universal_map(case):
    cat, x, y, _ = case
    summands = [y, x]
    pieces, total, sec, u = cat.split_into(x, summands)
    assert cat.total_dim(total) == sum(cat.total_dim(summands[i]) for i in pieces)
    assert cat.is_morphism(u) and cat.is_morphism(sec)
    assert _same(cat, cat.compose(u, sec), cat.identity(x))


def test_split_into_refuses_a_non_summand(case):
    # in every case x is projective and y is a simple that is not, so y is
    # not in add(x)
    cat, x, y, _ = case
    assert cat.split_into(y, [x]) is None


def test_split_into_of_the_zero_object_is_empty(case):
    cat, x, y, _ = case
    pieces, total, sec, u = cat.split_into(cat.zero_obj(), [x, y])
    assert pieces == [] and cat.total_dim(total) == 0


def test_retraction_exists_exactly_for_split_inclusions(case):
    cat, x, y, f = case
    # x -> y is onto (y is simple), so a split kernel would make y a summand of x
    _, socle_incl = cat.kernel(f)
    assert cat.retraction(socle_incl) is None
    total, injs, projs = _sum_with_maps(cat, [x, y])
    r = cat.retraction(injs[0])
    assert cat.is_morphism(r)
    assert _same(cat, cat.compose(r, injs[0]), cat.identity(x))
    s = cat.section(projs[1])
    assert _same(cat, cat.compose(projs[1], s), cat.identity(y))


# -- one-sided inverses against the per-basis solver ----------------------------------

def _reference_one_sided_inverse(cat, src, dst, side, ident):
    """The solver the split helpers replaced: one composite side(b) per
    basis map b of Hom(src, dst), flattened into a column, and the answer
    summed up map by map."""
    basis = cat.hom_basis(src, dst)
    if not basis:
        return cat.zero_map(src, dst) if cat.total_dim(ident) == 0 else None
    f = cat.field
    cols = [Mat.column(f, cat.flatten_map(side(b))) for b in basis]
    rhs = Mat.column(f, cat.flatten_map(cat.identity(ident)))
    sol = solve_matrix(Mat.hstack(f, cols), rhs)
    if sol is None:
        return None
    out = cat.zero_map(src, dst)
    for c, b in zip(sol.column_vector(), basis):
        if c != f.zero():
            out = cat.add_map(out, cat.scale_map(b, c))
    return out


def _reference_section(cat, u):
    return _reference_one_sided_inverse(cat, u.target, u.source, lambda s: cat.compose(u, s),
                                        u.target)


def _reference_retraction(cat, i):
    return _reference_one_sided_inverse(cat, i.target, i.source, lambda r: cat.compose(r, i),
                                        i.source)


def _dual_numbers():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    return alg.build_bqa(QQ, loop, [[(1, qv.Path("1", "1", ("x", "x")))]], 2, name="k[x]/(x^2)")


def _objects(name):
    """(cat, objects) with the zero object and a direct sum among them."""
    if name in ("mod-kA3", "mod-dual"):
        a = alg.path_algebra(QQ, qv.a_n(3), name="kA3") if name == "mod-kA3" else _dual_numbers()
        vs = a.quiver.vertices
        objs = [alg.projective_module(a, vs[0]), alg.projective_module(a, vs[-1]),
                alg.simple_module(a, vs[0]), alg.injective_indecomposables(a)[0]]
        cat = cats.mod_cat(a)
    elif name == "rep":
        q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
        m = alg.AlgMod(k, {"1": 1}, {})
        objs = [rc.left_adjoint(q, "1", m), rc.left_adjoint(q, "2", m),
                rc.rep_simple(q, k, "1", "1"), rc.rep_simple(q, k, "2", "1")]
        cat = cats.rep_cat(q, k)
    elif name == "sc":
        a = alg.path_algebra(QQ, qv.a_n(2))
        sc = alg.sc_of_bqa(a)
        objs = [scm.regular_module(sc)] + [scm.sc_module_of_algmod(alg.simple_module(a, v), sc)
                                           for v in a.quiver.vertices]
        cat = cats.sc_cat(sc)
    else:
        spec = tm.t2_spec(alg.ground_field_algebra(QQ))

        def triple(a, b, phi):
            x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
            y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
            return tm.TripleModule(spec, x, y, phi)

        objs = [triple(1, 1, Mat.from_rows(QQ, [[1]])), triple(1, 0, Mat.zeros(QQ, 0, 1)),
                triple(0, 1, Mat.zeros(QQ, 1, 0))]
        cat = cats.triple_cat(spec)
    return cat, objs + [cat.zero_obj(), cat.sum_obj(objs[:2])]


ADAPTER_OBJECTS = ("mod-kA3", "mod-dual", "rep", "sc", "triple")


def _maps(rng, cat, objs):
    """Every hom-basis map between the objects, a random combination of each
    basis and each zero map."""
    out = []
    for x in objs:
        for y in objs:
            basis = cat.hom_basis(x, y)
            out += basis + [cat.zero_map(x, y)]
            if len(basis) > 1:
                f = cat.zero_map(x, y)
                for b in basis:
                    f = cat.add_map(f, cat.scale_map(b, QQ.of_int(rng.choice([-2, -1, 1, 2]))))
                out.append(f)
    return out


def _assert_same_answer(cat, got, want):
    if want is None:
        assert got is None
        return
    assert got.source is want.source and got.target is want.target
    assert [repr(e) for e in cat.flatten_map(got)] == [repr(e) for e in cat.flatten_map(want)]


@pytest.mark.parametrize("name", ADAPTER_OBJECTS)
def test_one_sided_inverses_match_the_per_basis_solver(name):
    cat, objs = _objects(name)
    answers = {"section": 0, "retraction": 0, "none": 0}
    for g in _maps(random.Random(3), cat, objs):
        for kind, got, want in (("section", cat.section(g), _reference_section(cat, g)),
                                ("retraction", cat.retraction(g), _reference_retraction(cat, g))):
            _assert_same_answer(cat, got, want)
            answers[kind if want is not None else "none"] += 1
    # split and non-split maps both occur, zero-dimensional ends included
    assert all(answers.values()), answers


@pytest.mark.parametrize("name", ADAPTER_OBJECTS)
def test_split_into_matches_the_per_basis_solver(name):
    cat, objs = _objects(name)
    found = []
    for obj in objs:
        for summands in (objs, objs[:1], objs[1:3], [cat.zero_obj()]):
            got = cat.split_into(obj, summands)
            pieces = [i for i, s in enumerate(summands) for _ in cat.hom_basis(s, obj)]
            if got is None:
                total = cat.sum_obj([summands[i] for i in pieces])
                maps = [b for s in summands for b in cat.hom_basis(s, obj)]
                assert _reference_section(cat, cat.copair(total, obj, maps)) is None
                found.append(False)
                continue
            assert got[0] == pieces
            _, total, sec, u = got
            _assert_same_answer(cat, sec, _reference_section(cat, u))
            found.append(True)
    assert any(found) and not all(found)


def test_split_helpers_compose_no_morphisms(monkeypatch):
    # the composites of a solve come from one product per key
    cases = [(cat, _maps(random.Random(5), cat, objs), objs)
             for cat, objs in map(_objects, ADAPTER_OBJECTS)]
    composed = []

    def refuse(self, other):
        composed.append(type(self).__name__)
        raise AssertionError("a morphism was composed")

    # (SCMap, and so a map of triples, has no compose method to call)
    monkeypatch.setattr(alg.ModMap, "compose", refuse)
    for cat, maps, objs in cases:
        for g in maps:
            cat.section(g)
            cat.retraction(g)
        cat.split_into(objs[-1], objs)
    assert not composed


# -- the per-key split path, where Hom(X, Y) is every block matrix --------------------

def _scalar_objects(name, field):
    """(cat, objects, block maker) of a category whose base acts by scalars:
    mod k, mod of an arrowless algebra with two vertices, and modules over a
    one-dimensional SC algebra whose basis element is twice the unit.  The
    objects run over the dimensions 0..2 at every key."""
    if name in ("mod-k", "mod-k+k"):
        a = alg.ground_field_algebra(field) if name == "mod-k" else \
            alg.path_algebra(field, qv.make_quiver(["1", "2"], []))
        vs = list(a.quiver.vertices)
        dims = [dict(zip(vs, d)) for d in ([0] * len(vs), [1] * len(vs), [2] * len(vs),
                                           list(range(len(vs))), list(range(len(vs)))[::-1])]
        objs = [alg.AlgMod(a, d, {}) for d in dims]
        return cats.mod_cat(a), objs, lambda x, y, mats: alg.ModMap(x, y, mats)
    two = field.of_int(2)
    sc = alg.SCAlgebra(field, [[(two,)]], (field.inv(two),))
    objs = [scm.SCModule(sc, d, [Mat.identity(field, d).scale(two)]) for d in (0, 1, 2, 3)]
    return cats.sc_cat(sc), objs, lambda x, y, mats: scm.SCMap(x, y, mats["*"])


def _block_maps(rng, cat, objs, make):
    """Seeded block maps between the objects, entries in -1..1: zero ends,
    rank-deficient blocks and invertible ones all occur."""
    f = cat.field
    out = []
    for x in objs:
        for y in objs:
            for _ in range(3):
                out.append(make(x, y, {k: Mat(f, cat.comp_dim(y, k), cat.comp_dim(x, k), tuple(
                    f.of_int(rng.choice([-1, 0, 1, 1]))
                    for _ in range(cat.comp_dim(y, k) * cat.comp_dim(x, k)))) for k in cat.keys(x)}))
    return out


SCALAR_CASES = [pytest.param(name, field, id=f"{name}-{tag}") for name in ("mod-k", "mod-k+k", "sc-k")
                for field, tag in ((QQ, "QQ"), (GF(3), "GF3"))]


@pytest.mark.parametrize("name,field", SCALAR_CASES)
def test_keywise_splits_match_the_hom_basis_solver(name, field):
    cat, objs, make = _scalar_objects(name, field)
    counted = dataclasses.replace(cat, hom_basis=lambda x, y: calls.append((x, y)) or [])
    calls, answers = [], {"split": 0, "none": 0, "zero end": 0}
    for g in _block_maps(random.Random(11), cat, objs, make):
        assert cat.is_morphism(g)
        for side in ("section", "retraction"):
            got = getattr(counted, side)(g)
            want = cat._one_sided_inverse(g, section=side == "section")
            if want is None:
                assert got is None
                answers["none"] += 1
                continue
            assert got.source is want.source and got.target is want.target
            assert cat.map_mats(got) == cat.map_mats(want)
            answers["zero end" if 0 in (cat.total_dim(g.source), cat.total_dim(g.target))
                    else "split"] += 1
    # the per-key path builds no hom basis, and meets every kind of answer
    assert not calls
    assert all(answers.values()), answers


@pytest.mark.parametrize("name", ["rep", "triple"])
def test_splits_over_a_non_scalar_base_take_the_general_solver(name, monkeypatch):
    cat, objs = _objects(name)
    general = []
    solver = cats.Cat._one_sided_inverse

    def counting(self, g, section):
        general.append(g)
        return solver(self, g, section)

    def refuse(self, g, section):
        raise AssertionError("the per-key path ran on a base that acts by more than scalars")

    monkeypatch.setattr(cats.Cat, "_one_sided_inverse", counting)
    monkeypatch.setattr(cats.Cat, "_keywise_inverse", refuse)
    maps = _maps(random.Random(5), cat, objs)
    for g in maps:
        cat.section(g)
        cat.retraction(g)
    assert len(general) == 2 * len(maps)


# -- the block algebra on Cat against the morphism classes ---------------------------

def _class_algebra(name, objs):
    """identity, zero map, composite, sum, multiple and zero object as the
    morphism classes form them (for raw SC modules and triples, the modules
    over T, ``SCMap`` products; a triple's read in its blocks)."""
    if name in ("sc", "triple"):
        mk = scm.SCMap
        if name == "sc":
            zero = scm.zero_sc_module(objs[0].sc)
        else:
            spec = objs[0].spec
            zero = tm.TripleModule(spec, scm.zero_sc_module(spec.r), scm.zero_sc_module(spec.s),
                                   Mat.zeros(QQ, 0, 0))

            def mk(s, d, m):
                return tm.TripleMap.of_map(scm.SCMap(s, d, m))
        return dict(identity=lambda x: mk(x, x, Mat.identity(QQ, x.dim)),
                    zero_map=lambda x, y: mk(x, y, Mat.zeros(QQ, y.dim, x.dim)),
                    compose=lambda f, g: mk(g.source, f.target, f.mat.mul(g.mat)),
                    add_map=lambda f, g: mk(f.source, f.target, f.mat.add(g.mat)),
                    scale_map=lambda f, c: mk(f.source, f.target, f.mat.scale(c)),
                    zero=zero)
    ops = dict(compose=lambda f, g: f.compose(g), add_map=lambda f, g: f.add(g),
               scale_map=lambda f, c: f.scale(c))
    if name == "mod":
        return dict(ops, identity=alg.identity_map, zero_map=alg.zero_map,
                    zero=alg.zero_module(objs[0].algebra))
    return dict(ops, identity=alg.identity_map, zero_map=alg.zero_map,
                zero=rc.Rep(*rc.quiver_and_base(objs[0]), {}, {}))


@pytest.mark.parametrize("name", ["mod", "rep", "sc", "triple"])
def test_block_algebra_matches_the_morphism_classes(name):
    cat, objs = _objects("mod-dual" if name == "mod" else name)
    ref = _class_algebra(name, objs)
    z = cat.zero_obj()
    assert z is cat.zero_obj() and cat.total_dim(z) == 0 and cat.obj_equal(z, ref["zero"])
    for x in objs:
        _assert_same_answer(cat, cat.identity(x), ref["identity"](x))
        for y in objs:
            _assert_same_answer(cat, cat.zero_map(x, y), ref["zero_map"](x, y))
    rng = random.Random(7)
    maps = _maps(rng, cat, objs)
    composed = 0
    for f in maps:
        c = QQ.of_int(rng.choice([-2, 3]))
        _assert_same_answer(cat, cat.scale_map(f, c), ref["scale_map"](f, c))
        for g in maps:
            if g.target is f.source:
                _assert_same_answer(cat, cat.compose(f, g), ref["compose"](f, g))
                composed += 1
            if (g.source, g.target) == (f.source, f.target) and g is not f:
                _assert_same_answer(cat, cat.add_map(f, g), ref["add_map"](f, g))
    assert composed > len(maps)
    # ends of different dimensions do not compose
    x, y = next((x, y) for x in objs for y in objs
                if any(cat.comp_dim(x, k) != cat.comp_dim(y, k) for k in cat.keys(x)))
    with pytest.raises(QuivhomError):
        cat.compose(cat.identity(x), cat.identity(y))
