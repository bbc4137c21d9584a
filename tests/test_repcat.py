import random
import types

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom.bounds import Dim
from quivhom.errors import AlgebraMismatch, DimensionMismatch, QuivhomError, UnknownVertex
from quivhom.exactlin import GF, QQ, Mat


def base_k():
    return alg.ground_field_algebra(QQ)


def kmod(a, d=1):
    return alg.AlgMod(a, {"1": d}, {})


def dim_vector(x):
    q, _ = rc.quiver_and_base(x)
    return {v: rc.evaluate(x, v).dim_total() for v in q.vertices}


def dual_numbers():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(QQ, loop, [[(1, x)]], 2, name="k[x]/(x^2)")


def test_left_adjoint_a2():
    q = qv.a_n(2)
    k = base_k()
    p1 = rc.left_adjoint(q, "1", kmod(k))
    assert dim_vector(p1) == {"1": 1, "2": 1}
    assert p1.mats[rc.lq_name("quiver", "a1", "1")].is_identity()
    p2 = rc.left_adjoint(q, "2", kmod(k))
    assert dim_vector(p2) == {"1": 0, "2": 1}


def test_right_adjoint_a2():
    q = qv.a_n(2)
    k = base_k()
    i2 = rc.right_adjoint(q, "2", kmod(k))
    assert dim_vector(i2) == {"1": 1, "2": 1}
    i1 = rc.right_adjoint(q, "1", kmod(k))
    assert dim_vector(i1) == {"1": 1, "2": 0}


def test_left_adjoint_d4_center():
    q = qv.d4((0, 0, 0))
    pc = rc.left_adjoint(q, "c", kmod(base_k()))
    assert dim_vector(pc) == {"1": 1, "2": 1, "3": 1, "c": 1}


def test_evaluate():
    q = qv.d4((0, 0, 0))
    pc = rc.left_adjoint(q, "c", kmod(base_k()))
    assert rc.evaluate(pc, "1").dim_total() == 1
    s1 = rc.rep_simple(q, base_k(), "1", "1")
    assert rc.evaluate(s1, "2").dim_total() == 0


def test_single_vertex_adjoints_are_identity():
    q = qv.single_vertex()
    k = base_k()
    m = kmod(k, 2)
    assert dim_vector(rc.left_adjoint(q, "1", m)) == {"1": 2}
    assert dim_vector(rc.right_adjoint(q, "1", m)) == {"1": 2}


def test_rep_hom_examples():
    q = qv.a_n(2)
    k = base_k()
    p1 = rc.left_adjoint(q, "1", kmod(k))
    s1 = rc.rep_simple(q, k, "1", "1")
    s2 = rc.rep_simple(q, k, "2", "1")
    assert alg.hom_dim(p1, s1) == 1
    assert alg.hom_dim(s2, s1) == 0
    z = cats.rep_cat(q, k).zero_obj()
    assert alg.hom_dim(z, z) == 0


def test_adjunction_check_cases():
    q = qv.a_n(2)
    k = base_k()
    p1 = rc.left_adjoint(q, "1", kmod(k))
    out = rc.adjunction_check(q, "1", kmod(k), p1)
    assert out["lambda_dims"] == (1, 1) and out["lambda_ok"]
    assert out["rho_ok"]
    s1 = rc.rep_simple(q, k, "1", "1")
    out = rc.adjunction_check(q, "2", kmod(k), s1)
    assert out["lambda_dims"] == (0, 0)


def test_adjunction_randomized():
    rng = random.Random(11)
    k = base_k()
    for q in [qv.a_n(3), qv.d4((0, 1, 0)), qv.kronecker()]:
        for _ in range(8):
            x = _random_rep(rng, q, k)
            v = q.vertices[rng.randrange(len(q.vertices))]
            m = kmod(k, rng.randint(1, 2))
            out = rc.adjunction_check(q, v, m, x)
            assert out["lambda_ok"] and out["rho_ok"]


def _random_rep(rng, q, a):
    """Random representation over a semisimple base (free matrices)."""
    dims = {v: rng.randint(0, 2) for v in q.vertices}
    mods = {v: alg.AlgMod(a, {"1": dims[v]}, {}) for v in q.vertices}
    maps = {}
    for arr in q.arrows:
        rows = [[QQ.of_int(rng.randint(-2, 2)) for _ in range(dims[arr.source])]
                for _ in range(dims[arr.target])]
        maps[arr.name] = alg.ModMap(mods[arr.source], mods[arr.target],
                                    {"1": Mat(QQ, dims[arr.target], dims[arr.source],
                                              tuple(x for r in rows for x in r))})
    return rc.Rep(q, a, mods, maps)


def _presentation(x):
    """``standard_presentation`` of x on pieces built here: e^v_lambda(X_v) per
    vertex, e^{t(a)}_lambda(X_{s(a)}) per arrow, and their direct sums, kept
    with its maps as a namespace."""
    q, _ = rc.quiver_and_base(x)
    mods = {v: rc.evaluate(x, v) for v in q.vertices}
    vertex_pieces = [rc.left_adjoint(q, v, mods[v]) for v in q.vertices]
    arrow_pieces = [rc.left_adjoint(q, arr.target, mods[arr.source]) for arr in q.arrows]
    vertices_term = alg.sum_mods(x.algebra, vertex_pieces)
    arrows_term = alg.sum_mods(x.algebra, arrow_pieces)
    incl, epi = rc.standard_presentation(x, vertex_pieces, arrow_pieces, vertices_term, arrows_term)
    return types.SimpleNamespace(arrows_term=arrows_term, vertices_term=vertices_term, target=x,
                                 incl=incl, epi=epi)


def _verify_presentation(pres):
    """The presentation as a sequence of complexes concentrated in degree 0,
    checked by ``ComplexSES.verify``: (ok, details)."""
    x = pres.target
    cat = cats.rep_cat(*rc.quiver_and_base(x))
    acx, bcx, ccx = (dv.concentrated(cat, o) for o in (pres.arrows_term, pres.vertices_term, x))
    ses = dv.ComplexSES(acx, bcx, ccx, dv.ChainMap(acx, bcx, {0: pres.incl}),
                        dv.ChainMap(bcx, ccx, {0: pres.epi}))
    details = {}
    return ses.verify(details), details


def test_standard_presentation_s1_over_kA2():
    q = qv.a_n(2)
    k = base_k()
    s1 = rc.rep_simple(q, k, "1", "1")
    pres = _presentation(s1)
    ok, details = _verify_presentation(pres)
    assert ok, details
    # matches the minimal resolution 0 -> P_2 -> P_1 -> S_1 -> 0
    assert dim_vector(pres.vertices_term) == {"1": 1, "2": 1}
    assert dim_vector(pres.arrows_term) == {"1": 0, "2": 1}


def test_standard_presentation_single_vertex():
    q = qv.single_vertex()
    k = base_k()
    x = rc.left_adjoint(q, "1", kmod(k, 2))
    pres = _presentation(x)
    ok, details = _verify_presentation(pres)
    assert ok, details
    assert pres.arrows_term.is_zero()


def test_standard_presentation_pc_over_d4():
    q = qv.d4((0, 0, 0))
    k = base_k()
    pc = rc.left_adjoint(q, "c", kmod(k))
    pres = _presentation(pc)
    ok, details = _verify_presentation(pres)
    assert ok, details
    # middle P_c + P_1 + P_2 + P_3 (dims 4 + 1 + 1 + 1), left P_1 + P_2 + P_3
    assert pres.vertices_term.dim_total() == 7
    assert pres.arrows_term.dim_total() == 3


def test_standard_presentation_randomized():
    rng = random.Random(23)
    k = base_k()
    for q in [qv.a_n(3), qv.d4((1, 1, 0)), qv.kronecker()]:
        for _ in range(6):
            x = _random_rep(rng, q, k)
            pres = _presentation(x)
            ok, details = _verify_presentation(pres)
            assert ok, details


def test_rep_pd_projectives():
    k = base_k()
    for q in [qv.a_n(2), qv.d4((0, 0, 0)), qv.kronecker()]:
        for v in q.vertices:
            p = rc.left_adjoint(q, v, kmod(k))
            assert alg.pd(p) == Dim.finite(0)


def test_gldim_pathalgebra_hereditary():
    k = base_k()
    assert rc.gldim_pathalgebra(qv.a_n(2), k) == Dim.finite(1)
    assert rc.gldim_pathalgebra(qv.kronecker(), k) == Dim.finite(1)


def test_gldim_pathalgebra_infinite_base():
    d = dual_numbers()
    got = rc.gldim_pathalgebra(qv.d4((0, 0, 0)), d, cap=5)
    assert not got.exact and got.value >= 5


def test_rep_pd_bound_property():
    # pd of representation <= max vertex pd + 1
    rng = random.Random(3)
    a = alg.path_algebra(QQ, qv.a_n(2), name="kA2")
    q = qv.d4((0, 0, 1))
    for _ in range(8):
        x = _random_rep_over_bqa(rng, q, a)
        n = 0
        for v in q.vertices:
            pdv = alg.pd(rc.evaluate(x, v))
            assert pdv.exact
            n = max(n, pdv.value)
        rp = alg.pd(x)
        assert rp.exact and rp.value <= n + 1
        # the Ext oracle on the same Lambda Q-module
        assert rp == alg.pd_via_ext(x)


def _random_rep_over_bqa(rng, q, a):
    """Random rep: random module per vertex, random hom-combination per arrow."""
    return rc.Rep(q, a, *_random_vertex_data(rng, q, a))


def _random_vertex_data(rng, q, a):
    """(modules, maps) of ``_random_rep_over_bqa``."""
    mods = {}
    for v in q.vertices:
        pieces = []
        for u in a.quiver.vertices:
            for _ in range(rng.randint(0, 1)):
                pieces.append(alg.projective_module(a, u))
            for _ in range(rng.randint(0, 1)):
                pieces.append(alg.simple_module(a, u))
        total, _, _ = alg.direct_sum_mods(a, pieces)
        mods[v] = total
    maps = {}
    for arr in q.arrows:
        basis = alg.hom_basis(mods[arr.source], mods[arr.target])
        f = alg.zero_map(mods[arr.source], mods[arr.target])
        for b in basis:
            f = f.add(b.scale(QQ.of_int(rng.randint(-1, 1))))
        maps[arr.name] = f
    return mods, maps


def test_end_of_adjoint_matches_end_of_module():
    # dim End(e^v_lambda(A)) == dim End_Lambda(A) over acyclic quivers
    k = dual_numbers()
    reg = alg.projective_module(k, "1")
    for q in [qv.a_n(2), qv.d4((0, 0, 0))]:
        for v in q.vertices:
            el = rc.left_adjoint(q, v, reg)
            er = rc.right_adjoint(q, v, reg)
            d = len(alg.hom_basis(reg, reg))
            assert alg.hom_dim(el, el) == d
            assert alg.hom_dim(er, er) == d


def test_rep_pd_builds_one_cover_per_step(monkeypatch):
    calls = []
    real = alg.projective_cover

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(alg, "projective_cover", counting)
    k = base_k()
    q = qv.a_n(2)
    # over k A_2: the simple at the source has pd 1, the one at the sink pd 0
    for v, d in (("1", 1), ("2", 0)):
        del calls[:]
        assert alg.pd(rc.rep_simple(q, k, v, "1")) == Dim.finite(d)
        assert len(calls) == d + 1
    # over the dual numbers the simple is its own second syzygy: the second
    # kernel equals the first, and the steps after it are read off
    del calls[:]
    d = dual_numbers()
    assert alg.pd(rc.rep_simple(qv.a_n(1), d, "1", "1"), cap=3) == Dim.at_least(3)
    assert len(calls) == 2


def test_rep_pd_reads_the_steps_of_an_equal_module(monkeypatch):
    # each call builds the representation anew; the kept steps are keyed by
    # content, so asking again builds no cover (and the first call builds
    # the covers up to its first repeated kernel, not cap + 1)
    calls = []
    real = alg.projective_cover

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(alg, "projective_cover", counting)
    q, d = qv.a_n(3), dual_numbers()
    assert alg.pd(rc.rep_simple(q, d, "1", "1"), cap=4) == Dim.at_least(4)
    assert len(calls) == 4
    assert alg.pd(rc.rep_simple(q, d, "1", "1"), cap=4) == Dim.at_least(4)
    assert len(calls) == 4


def _cover_one_adjoint_per_copy(x):
    """Reference assembly of the cover: a projective and its left adjoint
    rebuilt for every generator copy, one copy per top vector of X at (v, u)."""
    q, a = rc.quiver_and_base(x)
    f = a.field
    rad = alg.radical_submodule(x)
    pieces, piece_maps = [], []
    for v in q.vertices:
        x_v = rc.evaluate(x, v)
        for u in a.quiver.vertices:
            units = Mat.identity(f, x_v.dims[u])
            for j in alg.quotient_by_rows(rad[rc.lq_name(v, u)].transpose())[2]:
                pu = alg.projective_module(a, u)
                piece = rc.left_adjoint(q, v, pu)
                pieces.append(piece)
                # the map adjoint to h : P_u -> X_v, through the counit at v
                h = alg.map_from_projective(pu, x_v, units.col(j))
                at_v = rc.left_adjoint(q, v, x_v)
                piece_maps.append(rc._adjoint_transpose(x, at_v).compose(
                    rc.left_adjoint_map(piece, at_v, h)))
    rcat = cats.rep_cat(q, a)
    total = rcat.sum_obj(pieces)
    return total, rcat.copair(total, x, piece_maps)


def test_cover_builds_one_adjoint_per_vertex_pair():
    # the projective of Lambda Q at (v, u) is e^v_lambda(P_u): the same dims
    # at every vertex, and each is a direct factor of the other
    q, d = qv.kronecker(), dual_numbers()
    lq = rc.path_algebra_over(q, d)
    mcat = cats.mod_cat(lq)
    for v in q.vertices:
        for u in d.quiver.vertices:
            proj = alg.projective_module(lq, rc.lq_name(v, u))
            adj = rc.left_adjoint(q, v, alg.projective_module(d, u))
            assert proj.dims == adj.dims
            assert mcat.split_into(proj, [adj]) is not None
            assert mcat.split_into(adj, [proj]) is not None
    # so the Lambda Q cover has the dims of the adjoint-based assembly
    x = mcat.sum_obj([rc.rep_simple(q, d, "1", "1")] * 3 + [rc.rep_simple(q, d, "2", "1")] * 3)
    ref_p, ref_pi = _cover_one_adjoint_per_copy(x)
    assert alg.cover_is_minimal(ref_p, ref_pi)
    p, pi = alg.projective_cover(x)
    assert alg.cover_is_minimal(p, pi)
    assert p.dims == ref_p.dims


# -- Lambda Q as a bound quiver algebra ----------------------------------------------

def kA2():
    return alg.path_algebra(QQ, qv.a_n(2), name="kA2")


def a4_rad2():
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, 3)]
    return alg.build_bqa(QQ, qv.a_n(4), rels, 2, name="A4/rad2")


def shared_names():
    """A base whose arrow is called like its vertices and like the arrows of
    A_n, and whose vertex names run into each other when concatenated."""
    q = qv.make_quiver(["1", "11"], [("1", "1", "11"), ("a1", "1", "11")])
    return alg.path_algebra(QQ, q, name="shared")


@pytest.mark.parametrize("base", [base_k, kA2, dual_numbers, a4_rad2, shared_names])
def test_path_algebra_over_has_the_tensor_dimension(base):
    a = base()
    colliding = qv.make_quiver(["1", "11", "111"], [("1", "1", "11"), ("11", "11", "111")])
    for q in [qv.kronecker(), qv.a_n(3), qv.d4((0, 1, 0)), qv.a_n(2), colliding]:
        lq = rc.path_algebra_over(q, a)
        assert lq.dim == a.dim * alg.path_algebra(QQ, q).dim
        assert len(lq.quiver.vertices) == len(q.vertices) * len(a.quiver.vertices)
        assert len(lq.quiver.arrows) == (len(q.vertices) * len(a.quiver.arrows)
                                         + len(q.arrows) * len(a.quiver.vertices))
        assert rc.path_algebra_over(q, a) is lq


def test_rep_evaluates_back_to_its_vertex_data():
    # Rep builds the Lambda Q-module; evaluation at each vertex and arrow
    # gives back the vertex modules and arrow maps it was built from
    rng = random.Random(5)
    a = kA2()
    for q in [qv.d4((0, 0, 1)), qv.kronecker(), qv.a_n(3)]:
        for _ in range(3):
            mods, maps = _random_vertex_data(rng, q, a)
            x = rc.Rep(q, a, mods, maps)
            assert isinstance(x, rc.Rep) and x.algebra is rc.path_algebra_over(q, a)
            assert x.check_relations() and rc.quiver_and_base(x) == (q, a)
            at = {v: rc.evaluate(x, v) for v in q.vertices}
            assert at == mods
            for arr in q.arrows:
                assert rc.arrow_map(x, arr.name, at[arr.source], at[arr.target]) == maps[arr.name]
    with pytest.raises(AlgebraMismatch):
        rc.evaluate(alg.simple_module(a, "1"), "1")
    with pytest.raises(UnknownVertex):
        rc.evaluate(x, "9")
    with pytest.raises(QuivhomError, match="unknown arrow"):
        rc.arrow_map(x, "z", at["1"], at["1"])
    cyclic = qv.make_quiver(["1"], [("c", "1", "1")], require_acyclic=False)
    with pytest.raises(QuivhomError, match="acyclic"):
        rc.Rep(cyclic, a, {}, {})


# -- validity and equality read vertex by vertex ------------------------------------------

def _kronecker_over_dual_numbers():
    """X_1 = X_2 = the regular module D of k[x]/x^2, X(a) = id and X(b) = 0."""
    q, d = qv.kronecker(), dual_numbers()
    p = alg.projective_module(d, "1")
    x = rc.Rep(q, d, {"1": p, "2": p}, {"a": alg.identity_map(p), "b": alg.zero_map(p, p)})
    return q, d, p, x


def _with_blocks(f, blocks):
    """f with its blocks at (v, D's vertex) replaced by ``blocks`` (v -> Mat)."""
    mats = dict(f.mats)
    for v, m in blocks.items():
        mats[rc.lq_name(v, "1")] = m
    return alg.ModMap(f.source, f.target, mats)


def _natural_vertex_by_vertex(f):
    """The equations of a map f : X -> Y of representations, read vertex by
    vertex: each f_v is Lambda-linear X_v -> Y_v, and f_w X(c) = Y(c) f_v for
    each arrow c: v -> w of Q."""
    q, _ = rc.quiver_and_base(f.source)
    xs = {v: rc.evaluate(f.source, v) for v in q.vertices}
    ys = {v: rc.evaluate(f.target, v) for v in q.vertices}
    fs = {v: rc.evaluate_map(f, v, xs[v], ys[v]) for v in q.vertices}
    if not all(g.is_valid() for g in fs.values()):
        return False
    return all(
        fs[c.target].compose(rc.arrow_map(f.source, c.name, xs[c.source], xs[c.target])).mats
        == rc.arrow_map(f.target, c.name, ys[c.source], ys[c.target]).compose(fs[c.source]).mats
        for c in q.arrows)


def test_rep_map_validity_matches_the_lambda_q_module_map():
    q, d, p, x = _kronecker_over_dual_numbers()
    ident = cats.rep_cat(q, d).identity(x)
    two = Mat.from_rows(QQ, [[2, 0], [0, 2]])
    top = Mat.from_rows(QQ, [[1, 0], [0, 0]])  # keeps 1, kills x: not D-linear
    cases = {
        "identity": (ident, True),
        # f_2 = 2: D-linear, but f_2 X(a) = 2 differs from Y(a) f_1 = 1
        "not natural": (_with_blocks(ident, {"2": two}), False),
        # f_1 = f_2 = top commutes with X(a) = id and X(b) = 0, not with x
        "not D-linear": (_with_blocks(ident, {"1": top, "2": top}), False),
    }
    assert not alg.ModMap(p, p, {"1": top}).is_valid()
    for name, (f, want) in cases.items():
        assert f.is_valid() == _natural_vertex_by_vertex(f) == want, name
    # every basis map of random representations over D, and each with one
    # block moved off its module maps
    rng = random.Random(11)
    for _ in range(6):
        y, z = _random_rep_over_bqa(rng, q, d), _random_rep_over_bqa(rng, q, d)
        for f in alg.hom_basis(y, z):
            assert f.is_valid() and _natural_vertex_by_vertex(f)
            v = rng.choice(q.vertices)
            block = f.mats[rc.lq_name(v, "1")]
            if not block.rows or not block.cols:
                continue
            bumped = list(block.entries)
            bumped[rng.randrange(len(bumped))] += 1
            g = _with_blocks(f, {v: Mat(QQ, block.rows, block.cols, tuple(bumped))})
            assert g.is_valid() == _natural_vertex_by_vertex(g)


def test_rep_equality_matches_the_lambda_q_modules():
    q, d, p, x = _kronecker_over_dual_numbers()
    eq = cats.rep_cat(q, d).obj_equal
    s = alg.simple_module(d, "1")
    again = rc.Rep(q, d, {"1": alg.AlgMod(d, dict(p.dims), dict(p.mats)), "2": p},
                   {"a": alg.identity_map(p), "b": alg.zero_map(p, p)})
    swapped = rc.Rep(q, d, {"1": p, "2": p}, {"a": alg.zero_map(p, p), "b": alg.identity_map(p)})
    other_module = rc.Rep(q, d, {"1": alg.AlgMod(d, {"1": 2}, {}), "2": p}, {})
    other_dims = rc.Rep(q, d, {"1": s, "2": p}, {})
    for y, want in ((x, True), (again, True), (swapped, False), (other_module, False),
                    (other_dims, False)):
        assert eq(x, y) == eq(y, x) == (x == y) == want


# -- malformed representations -----------------------------------------------------------

def test_rep_rejects_unknown_vertex():
    k = base_k()
    with pytest.raises(UnknownVertex):
        rc.Rep(qv.kronecker(), k, {"3": kmod(k)}, {})


def test_rep_rejects_unknown_arrow():
    k = base_k()
    m = kmod(k)
    with pytest.raises(QuivhomError, match="unknown arrow"):
        rc.Rep(qv.kronecker(), k, {"1": m, "2": m}, {"c": alg.identity_map(m)})


def test_rep_rejects_module_over_another_algebra():
    k, other = base_k(), alg.ground_field_algebra(GF(3))
    with pytest.raises(AlgebraMismatch):
        rc.Rep(qv.kronecker(), k, {"1": kmod(other)}, {})


def test_rep_rejects_arrow_map_of_wrong_shape():
    k = base_k()
    m1, m2 = kmod(k), kmod(k, 2)
    with pytest.raises(DimensionMismatch):
        rc.Rep(qv.kronecker(), k, {"1": m1, "2": m2}, {"a": alg.identity_map(m1)})


def test_rep_dimensions_are_natural_numbers():
    # refused at the vertex module, and again at the vertex (v, u) of Lambda Q
    # when a vertex module's dimensions were changed after it was made
    k = base_k()
    with pytest.raises(DimensionMismatch, match="vertex 1: dimension -1"):
        rc.Rep(qv.kronecker(), k, {"1": kmod(k, -1)}, {})
    m = kmod(k)
    m.dims["1"] = -1
    with pytest.raises(DimensionMismatch, match=r"vertex \('2', '1'\): dimension -1"):
        rc.Rep(qv.kronecker(), k, {"2": m}, {})


def test_rep_map_rejects_unknown_vertex():
    k = base_k()
    x = rc.Rep(qv.kronecker(), k, {"1": kmod(k)}, {})
    with pytest.raises(UnknownVertex):
        rc.RepMap(x, x, {"3": alg.identity_map(kmod(k))})


def test_rep_pd_rejects_negative_cap():
    q, k = qv.kronecker(), base_k()
    x = rc.Rep(q, k, {"1": kmod(k)}, {})
    with pytest.raises(QuivhomError, match="cap"):
        alg.pd(x, -1)
    with pytest.raises(QuivhomError, match="cap"):
        rc.gldim_pathalgebra(q, k, -1)


# -- adjoint plans -----------------------------------------------------------------

def _a3_orientations():
    return [qv.a_n(3), qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")]),
            qv.make_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "2", "3")])]


def _diag_copies(g, n):
    """n copies of g down the diagonal, entry by entry."""
    f, r, c = g.field, g.rows, g.cols
    ent = [[f.zero()] * (n * c) for _ in range(n * r)]
    for k in range(n):
        for i in range(r):
            for j in range(c):
                ent[k * r + i][k * c + j] = g.at(i, j)
    return Mat(f, n * r, n * c, tuple(x for row in ent for x in row))


def _reference_paths(q, side, v):
    return {w: tuple(qv.paths_between(q, v, w) if side == "lambda" else qv.paths_between(q, w, v))
            for w in q.vertices}


def _reference_adjoint(q, side, v, m):
    """e^v_side(m) straight from paths_between: one copy of m per path, and
    Q's arrow c taking copy p to copy p.c (lambda), or copy c.r to copy r
    (rho), by the identity."""
    f, paths = m.algebra.field, _reference_paths(q, side, v)
    dims, mats = {}, {}
    for w, ps in paths.items():
        dims.update({rc.lq_name(w, u): len(ps) * d for u, d in m.dims.items()})
        mats.update({rc.lq_name("base", w, b): _diag_copies(g, len(ps)) for b, g in m.mats.items()})
    for c in q.arrows:
        src, dst = paths[c.source], paths[c.target]
        for u, d in m.dims.items():
            ent = [[f.zero()] * (len(src) * d) for _ in range(len(dst) * d)]
            for i, p in enumerate(src):
                for j, r in enumerate(dst):
                    if (r.arrows == p.arrows + (c.name,) if side == "lambda"
                            else p.arrows == (c.name,) + r.arrows):
                        for t in range(d):
                            ent[j * d + t][i * d + t] = f.one()
            mats[rc.lq_name("quiver", c.name, u)] = Mat(f, len(dst) * d, len(src) * d,
                                                         tuple(x for row in ent for x in row))
    return alg.AlgMod(rc.path_algebra_over(q, m.algebra), dims, mats)


@pytest.mark.parametrize("q", [qv.kronecker(), *_a3_orientations(), qv.d4((0, 1, 0))],
                         ids=["kronecker", "a3", "a3_sink", "a3_source", "d4"])
def test_adjoints_and_their_maps_equal_the_path_reference(q):
    a, k = kA2(), base_k()
    p1, s2 = alg.projective_module(a, "1"), alg.simple_module(a, "2")
    # zero vertex spaces: S_2 and the zero module at vertex 1 of kA2, and
    # every vertex with no path to or from v
    mods = [p1, s2, alg.zero_module(a), kmod(k, 2), alg.zero_module(k)]
    maps = [g for m, n in [(p1, p1), (s2, p1), (s2, s2)] for g in alg.hom_basis(m, n)]
    maps += [alg.identity_map(kmod(k, 2)), alg.zero_map(alg.zero_module(a), p1)]
    for v in q.vertices:
        for side, adjoint in (("lambda", rc.left_adjoint), ("rho", rc.right_adjoint)):
            for m in mods:
                x = adjoint(q, v, m)
                assert x == _reference_adjoint(q, side, v, m)
                assert x._adjoint[:3] == (side, v, m)
                assert x._adjoint[3].paths == _reference_paths(q, side, v)
        for g in maps:
            src, dst = rc.left_adjoint(q, v, g.source), rc.left_adjoint(q, v, g.target)
            paths = _reference_paths(q, "lambda", v)
            want = alg.ModMap(src, dst, {rc.lq_name(w, u): _diag_copies(b, len(ps))
                                         for w, ps in paths.items() for u, b in g.mats.items()})
            got = rc.left_adjoint_map(src, dst, g)
            assert got == want and got.is_valid()


def _reference_copy_block(f, g, rows, cols, pairs):
    """g placed from column block i to row block j for each (i, j) in
    pairs, entry by entry."""
    ent = [[f.zero()] * cols for _ in range(rows)]
    for i, j in pairs:
        for r in range(g.rows):
            for c in range(g.cols):
                ent[j * g.rows + r][i * g.cols + c] = g.at(r, c)
    return Mat(f, rows, cols, tuple(x for row in ent for x in row))


def test_copy_blocks_build_no_matrix_for_empty_shapes_or_single_copies(monkeypatch):
    # count the copy blocks of the adjoints and their maps on the reference
    # quivers: a shape with no entries is the shared Mat.zeros, and one copy
    # at (0, 0) that fills the shape is the block itself, so only the other
    # calls build a matrix
    calls, real = [], rc._copy_block

    def counting(f, g, rows, cols, pairs):
        out = real(f, g, rows, cols, pairs)
        calls.append((f, g, rows, cols, tuple(pairs), out))
        return out

    monkeypatch.setattr(rc, "_copy_block", counting)
    a, k = kA2(), base_k()
    p1, s2 = alg.projective_module(a, "1"), alg.simple_module(a, "2")
    maps = [g for m, n in [(p1, p1), (s2, p1), (s2, s2)] for g in alg.hom_basis(m, n)]
    maps += [alg.identity_map(kmod(k, 2)), alg.zero_map(alg.zero_module(a), p1)]
    for q in [qv.kronecker(), *_a3_orientations(), qv.d4((0, 1, 0))]:
        for v in q.vertices:
            for g in maps:
                rc.left_adjoint_map(rc.left_adjoint(q, v, g.source), rc.left_adjoint(q, v, g.target), g)
    empty = single = built = 0
    for f, g, rows, cols, pairs, out in calls:
        assert out == _reference_copy_block(f, g, rows, cols, pairs)
        if not rows * cols:
            assert out is Mat.zeros(f, rows, cols)
            empty += 1
        elif (g.rows, g.cols) == (rows, cols) and pairs == ((0, 0),):
            assert out is g
            single += 1
        else:
            assert out is not g
            built += 1
    assert (empty, single, built) == (357, 159, 9)


def test_adjoint_plans_enumerate_paths_once_per_side_and_vertex_pair(monkeypatch):
    calls, real = [], rc.paths_between

    def counting(q, v, w):
        calls.append((v, w))
        return real(q, v, w)

    monkeypatch.setattr(rc, "paths_between", counting)
    k = base_k()  # a new base, so its Lambda Q holds no plan yet
    q = qv.d4((0, 1, 0))
    mods = [kmod(k), kmod(k, 2), alg.zero_module(k)]
    for _ in range(3):
        for v in q.vertices:
            for m in mods:
                rc.left_adjoint(q, v, m)
                rc.right_adjoint(q, v, m)
    # lambda enumerates (v, w) and rho (w, v), each once per pair of vertices
    pairs = [(v, w) for v in q.vertices for w in q.vertices]
    assert sorted(calls) == sorted(pairs * 2)
    # a plan and its identity-copy blocks are shared by the adjoints that use them
    x, y = rc.left_adjoint(q, "c", kmod(k)), rc.left_adjoint(q, "c", kmod(k))
    assert x._adjoint[3] is y._adjoint[3]
    names = [rc.lq_name("quiver", c.name, "1") for c in q.arrows]
    assert all(x.mats[n] is y.mats[n] for n in names)
    # another base gets plans of its own
    rc.left_adjoint(q, "c", kmod(base_k()))
    assert len(calls) == 2 * len(pairs) + len(q.vertices)
