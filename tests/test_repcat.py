import random

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


def dual_numbers():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(QQ, loop, [[(1, x)]], 2, name="k[x]/(x^2)")


def test_left_adjoint_a2():
    q = qv.a_n(2)
    k = base_k()
    p1 = rc.left_adjoint(q, "1", kmod(k))
    assert p1.dim_vector() == {"1": 1, "2": 1}
    assert p1.maps["a1"].mats["1"].is_identity()
    p2 = rc.left_adjoint(q, "2", kmod(k))
    assert p2.dim_vector() == {"1": 0, "2": 1}


def test_right_adjoint_a2():
    q = qv.a_n(2)
    k = base_k()
    i2 = rc.right_adjoint(q, "2", kmod(k))
    assert i2.dim_vector() == {"1": 1, "2": 1}
    i1 = rc.right_adjoint(q, "1", kmod(k))
    assert i1.dim_vector() == {"1": 1, "2": 0}


def test_left_adjoint_d4_center():
    q = qv.d4((0, 0, 0))
    pc = rc.left_adjoint(q, "c", kmod(base_k()))
    assert pc.dim_vector() == {"1": 1, "2": 1, "3": 1, "c": 1}


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
    assert rc.left_adjoint(q, "1", m).dim_vector() == {"1": 2}
    assert rc.right_adjoint(q, "1", m).dim_vector() == {"1": 2}


def test_rep_hom_examples():
    q = qv.a_n(2)
    k = base_k()
    p1 = rc.left_adjoint(q, "1", kmod(k))
    s1 = rc.rep_simple(q, k, "1", "1")
    s2 = rc.rep_simple(q, k, "2", "1")
    assert rc.rep_hom_dim(p1, s1) == 1
    assert rc.rep_hom_dim(s2, s1) == 0
    z = cats.rep_cat(q, k).zero_obj()
    assert rc.rep_hom_dim(z, z) == 0


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


def _verify_presentation(pres):
    """The presentation as a sequence of complexes concentrated in degree 0,
    checked by ``ComplexSES.verify``: (ok, details)."""
    x = pres.target
    q, a = x.quiver, x.algebra
    cat = cats.rep_cat(q, a)
    acx, bcx, ccx = (dv.concentrated(cat, o) for o in (pres.arrows_term, pres.vertices_term, x))
    ses = dv.ComplexSES(acx, bcx, ccx, dv.ChainMap(acx, bcx, {0: pres.incl}),
                        dv.ChainMap(bcx, ccx, {0: pres.epi}))
    details = {}
    return ses.verify(details), details


def test_standard_presentation_s1_over_kA2():
    q = qv.a_n(2)
    k = base_k()
    s1 = rc.rep_simple(q, k, "1", "1")
    pres = rc.standard_presentation(s1)
    ok, details = _verify_presentation(pres)
    assert ok, details
    # matches the minimal resolution 0 -> P_2 -> P_1 -> S_1 -> 0
    assert pres.vertices_term.dim_vector() == {"1": 1, "2": 1}
    assert pres.arrows_term.dim_vector() == {"1": 0, "2": 1}


def test_standard_presentation_single_vertex():
    q = qv.single_vertex()
    k = base_k()
    x = rc.left_adjoint(q, "1", kmod(k, 2))
    pres = rc.standard_presentation(x)
    ok, details = _verify_presentation(pres)
    assert ok, details
    assert pres.arrows_term.is_zero()


def test_standard_presentation_pc_over_d4():
    q = qv.d4((0, 0, 0))
    k = base_k()
    pc = rc.left_adjoint(q, "c", kmod(k))
    pres = rc.standard_presentation(pc)
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
            pres = rc.standard_presentation(x)
            ok, details = _verify_presentation(pres)
            assert ok, details


def test_rep_pd_projectives():
    k = base_k()
    for q in [qv.a_n(2), qv.d4((0, 0, 0)), qv.kronecker()]:
        for v in q.vertices:
            p = rc.left_adjoint(q, v, kmod(k))
            assert rc.rep_pd(p) == Dim.finite(0)


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
            pdv = alg.pd(x.mods[v])
            assert pdv.exact
            n = max(n, pdv.value)
        rp = rc.rep_pd(x)
        assert rp.exact and rp.value <= n + 1
        # the Ext oracle on the same Lambda Q-module
        assert rp == alg.pd_via_ext(rc.as_module(x))


def _random_rep_over_bqa(rng, q, a):
    """Random rep: random module per vertex, random hom-combination per arrow."""
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
    return rc.Rep(q, a, mods, maps)


def test_end_of_adjoint_matches_end_of_module():
    # dim End(e^v_lambda(A)) == dim End_Lambda(A) over acyclic quivers
    k = dual_numbers()
    reg = alg.projective_module(k, "1")
    for q in [qv.a_n(2), qv.d4((0, 0, 0))]:
        for v in q.vertices:
            el = rc.left_adjoint(q, v, reg)
            er = rc.right_adjoint(q, v, reg)
            d = len(alg.hom_basis(reg, reg))
            assert rc.rep_hom_dim(el, el) == d
            assert rc.rep_hom_dim(er, er) == d


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
        assert rc.rep_pd(rc.rep_simple(q, k, v, "1")) == Dim.finite(d)
        assert len(calls) == d + 1
    del calls[:]
    d = dual_numbers()
    assert rc.rep_pd(rc.rep_simple(qv.a_n(1), d, "1", "1"), cap=3) == Dim.at_least(3)
    assert len(calls) == 4


def test_rep_pd_reads_the_steps_of_an_equal_module(monkeypatch):
    # rep_pd builds a new Lambda Q-module on every call; the kept steps are
    # keyed by content, so asking again builds no cover
    calls = []
    real = alg.projective_cover

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(alg, "projective_cover", counting)
    x = rc.rep_simple(qv.a_n(3), dual_numbers(), "1", "1")
    assert rc.rep_pd(x, cap=4) == Dim.at_least(4)
    assert len(calls) == 5
    assert rc.rep_pd(x, cap=4) == Dim.at_least(4)
    assert len(calls) == 5


def _cover_one_adjoint_per_copy(x):
    """Reference assembly of the cover: a projective and its left adjoint
    rebuilt for every generator copy, one copy per top vector of X at (v, u)."""
    q, a = x.quiver, x.algebra
    f = a.field
    rad = alg.radical_submodule(rc.as_module(x))
    pieces, piece_maps = [], []
    for v in q.vertices:
        for u in a.quiver.vertices:
            units = Mat.identity(f, x.mods[v].dims[u])
            for j in alg.quotient_by_rows(rad[rc.lq_name(v, u)].transpose())[2]:
                pu = alg.projective_module(a, u)
                piece = rc.left_adjoint(q, v, pu)
                pieces.append(piece)
                # the map adjoint to h : P_u -> X_v, through the counit at v
                h = alg.map_from_projective(pu, x.mods[v], units.col(j))
                at_v = rc.left_adjoint(q, v, x.mods[v])
                piece_maps.append(rc._adjoint_transpose(x, at_v).compose(
                    rc.left_adjoint_map(q, v, piece, at_v, h)))
    total = rc.rep_sum(q, a, pieces)
    return total, rc._block_repmap(total, x, pieces, [x], {
        (0, i): g for i, g in enumerate(piece_maps)})


def test_cover_builds_one_adjoint_per_vertex_pair():
    # the projective of Lambda Q at (v, u) is e^v_lambda(P_u): the same dims
    # at every vertex, and each is a direct factor of the other
    q, d = qv.kronecker(), dual_numbers()
    lq = rc.path_algebra_over(q, d)
    mcat = cats.mod_cat(lq)
    for v in q.vertices:
        for u in d.quiver.vertices:
            proj = alg.projective_module(lq, rc.lq_name(v, u))
            adj = rc.as_module(rc.left_adjoint(q, v, alg.projective_module(d, u)))
            assert proj.dims == adj.dims
            assert mcat.split_into(proj, [adj]) is not None
            assert mcat.split_into(adj, [proj]) is not None
    # so the Lambda Q cover has the dims of the adjoint-based assembly
    x = rc.rep_sum(q, d, [rc.rep_simple(q, d, "1", "1")] * 3
                   + [rc.rep_simple(q, d, "2", "1")] * 3)
    ref_p, ref_pi = _cover_one_adjoint_per_copy(x)
    assert alg.cover_is_minimal(rc.as_module(ref_p), rc.as_module_map(ref_pi))
    p, pi = alg.projective_cover(rc.as_module(x))
    assert alg.cover_is_minimal(p, pi)
    assert p.dims == rc.as_module(ref_p).dims


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


def test_as_module_round_trip():
    rng = random.Random(5)
    a = kA2()
    q = qv.d4((0, 0, 1))
    x = _random_rep_over_bqa(rng, q, a)
    m = rc.as_module(x)
    assert m.check_relations() and x.check()
    y = rc.as_rep(q, a, m)
    assert (y.mods, y.maps) == (x.mods, x.maps)
    ident = cats.rep_cat(q, a).identity(x)
    assert rc.as_rep_map(x, y, rc.as_module_map(ident)).mats == ident.mats
    with pytest.raises(AlgebraMismatch):
        rc.as_rep(qv.kronecker(), a, m)


# -- validity and equality read vertex by vertex ------------------------------------------

def _kronecker_over_dual_numbers():
    """X_1 = X_2 = the regular module D of k[x]/x^2, X(a) = id and X(b) = 0."""
    q, d = qv.kronecker(), dual_numbers()
    p = alg.projective_module(d, "1")
    x = rc.Rep(q, d, {"1": p, "2": p}, {"a": alg.identity_map(p), "b": alg.zero_map(p, p)})
    return q, d, p, x


def _with_blocks(f, blocks):
    """f with the vertex maps of ``blocks`` (vertex -> Mat over D's vertex) replaced."""
    mats = dict(f.mats)
    for v, m in blocks.items():
        mats[v] = alg.ModMap(f.source.mods[v], f.target.mods[v], {"1": m})
    return rc.RepMap(f.source, f.target, mats)


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
        assert f.is_valid() == rc.as_module_map(f).is_valid() == want, name
    # every basis map of random representations over D, and each with one
    # block moved off its module maps
    rng = random.Random(11)
    for _ in range(6):
        y, z = _random_rep_over_bqa(rng, q, d), _random_rep_over_bqa(rng, q, d)
        for f in rc.rep_hom_basis(y, z):
            assert f.is_valid() and rc.as_module_map(f).is_valid()
            v = rng.choice(q.vertices)
            block = f.mats[v].mats["1"]
            if not block.rows or not block.cols:
                continue
            bumped = list(block.entries)
            bumped[rng.randrange(len(bumped))] += 1
            g = _with_blocks(f, {v: Mat(QQ, block.rows, block.cols, tuple(bumped))})
            assert g.is_valid() == rc.as_module_map(g).is_valid()


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
        assert eq(x, y) == eq(y, x) == (rc.as_module(x) == rc.as_module(y)) == want


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


def test_rep_map_rejects_unknown_vertex():
    k = base_k()
    x = rc.Rep(qv.kronecker(), k, {"1": kmod(k)}, {})
    with pytest.raises(UnknownVertex):
        rc.RepMap(x, x, {"3": alg.identity_map(kmod(k))})


def test_rep_pd_rejects_negative_cap():
    q, k = qv.kronecker(), base_k()
    x = rc.Rep(q, k, {"1": kmod(k)}, {})
    with pytest.raises(QuivhomError, match="cap"):
        rc.rep_pd(x, -1)
    with pytest.raises(QuivhomError, match="cap"):
        rc.gldim_pathalgebra(q, k, -1)
