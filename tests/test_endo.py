import types

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import endo
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.bounds import Dim
from quivhom.errors import IsoCheckFailed, NotSplit, QuivhomError
from quivhom.exactlin import GF, QQ, Mat, rank, solve_matrix


def base_k():
    return alg.ground_field_algebra(QQ)


def dual_numbers():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(QQ, loop, [[(1, x)]], 2)


def test_end_algebra_point():
    k = base_k()
    e = endo.end_algebra([alg.AlgMod(k, {"1": 1}, {})], cats.mod_cat(k))
    assert e.dim == 1
    assert e.sc.unit == (QQ.one(),)


def test_end_algebra_kA2_projectives():
    a = alg.path_algebra(QQ, qv.a_n(2))
    cat = cats.mod_cat(a)
    p1 = alg.projective_module(a, "1")
    p2 = alg.projective_module(a, "2")
    e = endo.end_algebra([p1, p2], cat)
    assert e.dim == 3  # 1 + 1 + Hom(P1,P2)=0 + Hom(P2,P1)=1
    assert scm.gldim_sc(e.sc) == Dim.finite(1)


def test_end_algebra_adjoint_summands():
    k = base_k()
    q = qv.a_n(2)
    cat = cats.rep_cat(q, k)
    s = [rc.left_adjoint(q, "1", alg.AlgMod(k, {"1": 1}, {})),
         rc.left_adjoint(q, "2", alg.AlgMod(k, {"1": 1}, {}))]
    e = endo.end_algebra(s, cat)
    assert e.dim == 3


def test_sc_gldim_auslander_of_dual_numbers():
    d = dual_numbers()
    cat = cats.mod_cat(d)
    simple = alg.simple_module(d, "1")
    reg = alg.projective_module(d, "1")
    e = endo.end_algebra([simple, reg], cat)
    assert e.dim == 5  # End(k)+End(L)+Hom both ways = 1+2+1+1
    assert scm.gldim_sc(e.sc) == Dim.finite(2)  # Auslander algebra of k[x]/(x^2)


def test_validate_summands():
    # build_xbar refuses a zero summand itself, and a decomposable one by the
    # radical certificate of End(A), which it builds once
    k, q = base_k(), qv.kronecker()
    with pytest.raises(QuivhomError, match="summand 0 is zero"):
        repdim.build_xbar(q, k, [alg.zero_module(k)])
    assert repdim.build_xbar(q, k, [alg.AlgMod(k, {"1": 1}, {})]).gamma.dim == 1
    d = dual_numbers()
    decomposable, _, _ = alg.direct_sum_mods(d, [alg.simple_module(d, "1")] * 2)
    with pytest.raises(QuivhomError):
        repdim.build_xbar(q, d, [decomposable])
    with pytest.raises(QuivhomError):
        endo.end_algebra([decomposable], cats.mod_cat(d))


def assert_radical_is_trace_form_radical(e):
    rad = list(e.sc.known_radical)
    oracle = alg.radical_sc(e.sc)
    assert len(rad) == len(oracle) == rank(Mat.from_rows(QQ, rad + oracle))


def xbar_summands(q, k):
    return repdim.build_xbar(q, k, [alg.AlgMod(k, {"1": 1}, {})]).all_summands()


def test_radical_oracle_kA2_projectives():
    a = alg.path_algebra(QQ, qv.a_n(2))
    e = endo.end_algebra([alg.projective_module(a, "1"), alg.projective_module(a, "2")],
                         cats.mod_cat(a))
    assert len(e.sc.known_radical) == 1  # the one map P2 -> P1
    assert_radical_is_trace_form_radical(e)


def test_radical_oracle_auslander_of_dual_numbers():
    d = dual_numbers()
    e = endo.end_algebra([alg.simple_module(d, "1"), alg.projective_module(d, "1")],
                         cats.mod_cat(d))
    assert len(e.sc.known_radical) == 3
    assert_radical_is_trace_form_radical(e)


def test_radical_oracle_a3_middle_sink_xbar():
    k = base_k()
    q = qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])
    e = endo.end_algebra(xbar_summands(q, k), cats.rep_cat(q, k))
    assert_radical_is_trace_form_radical(e)


def test_radical_oracle_kronecker_xbar_with_duplicate():
    k, q = base_k(), qv.kronecker()
    cat = cats.rep_cat(q, k)
    summands = xbar_summands(q, k)
    copy = len(summands)
    summands.append(summands[1])
    e = endo.end_algebra(summands, cat)
    assert_radical_is_trace_form_radical(e)
    # the identity of X_1, read as a map to its copy, is an isomorphism: not in J
    off, basis = e.blocks[(1, copy)]
    flat = Mat.hstack(QQ, [Mat.column(QQ, cat.flatten_map(b)) for b in basis])
    coords = solve_matrix(flat, Mat.column(QQ, cat.flatten_map(cat.identity(summands[1]))))
    iso = [QQ.zero()] * e.dim
    iso[off:off + len(basis)] = coords.entries
    rad = list(e.sc.known_radical)
    assert rank(Mat.from_rows(QQ, rad + [iso])) == len(rad) + 1


def test_radical_over_prime_fields_matches_rationals():
    q = qv.kronecker()
    k0 = base_k()
    dim_q = len(endo.end_algebra(xbar_summands(q, k0), cats.rep_cat(q, k0)).sc.known_radical)
    for p in (2, 3):
        k = alg.ground_field_algebra(GF(p))
        e = endo.end_algebra(xbar_summands(q, k), cats.rep_cat(q, k))
        assert len(e.sc.known_radical) == dim_q


def test_decomposable_summand_is_refused():
    d = dual_numbers()
    cat = cats.mod_cat(d)
    s_plus_s, _, _ = alg.direct_sum_mods(d, [alg.simple_module(d, "1")] * 2)
    with pytest.raises(QuivhomError, match="summand 1"):
        repdim.build_xbar(qv.kronecker(), d, [alg.simple_module(d, "1"), s_plus_s])
    with pytest.raises(NotSplit, match="summand 0"):
        endo.end_algebra([s_plus_s], cat)


def rotation_rep(field):
    """Kronecker rep (k^2, k^2, I, [[0, -1], [1, 0]]): End = k[i], i^2 = -1."""
    q, k = qv.kronecker(), alg.ground_field_algebra(field)
    m = alg.AlgMod(k, {"1": 2}, {})
    rot = Mat.from_rows(field, [[0, -1], [1, 0]])
    x = rc.Rep(q, k, {"1": m, "2": m},
               {"a": alg.identity_map(m), "b": alg.ModMap(m, m, {"1": rot})})
    return x, cats.rep_cat(q, k)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_non_split_or_decomposable_end_is_refused(field):
    # End is the field Q(i) over QQ, GF(9) over GF(3) (not split), and
    # GF(5) x GF(5) over GF(5) (decomposable)
    x, cat = rotation_rep(field)
    assert x.check_relations()
    with pytest.raises(NotSplit, match="summand 0"):
        endo.end_algebra([x], cat)
    with pytest.raises(NotSplit, match="summand 0"):
        repdim.build_xbar(qv.single_vertex(), x.algebra, [x])


def end_of(a, summands):
    return endo.end_algebra(summands, cats.mod_cat(a))


def adjoint_lhs(q, gamma, side, vertices):
    """End of the adjoints e^v_side(A_i), vertex-major over gamma's summands."""
    adjoint = rc.left_adjoint if side == "lambda" else rc.right_adjoint
    return endo.end_algebra([adjoint(q, v, m) for v in vertices for m in gamma.summands],
                            cats.rep_cat(q, gamma.summands[0].algebra))


def test_end_iso_k_a2():
    k = base_k()
    q, gamma = qv.a_n(2), end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    rep = endo.adjoint_end_iso(q, gamma, adjoint_lhs(q, gamma, "lambda", q.vertices))
    assert rep.verified and rep.lhs_dim == rep.rhs_dim == 3


def test_end_iso_k_d4():
    k = base_k()
    q, gamma = qv.d4((0, 0, 0)), end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    rep = endo.adjoint_end_iso(q, gamma, adjoint_lhs(q, gamma, "lambda", q.vertices))
    assert rep.verified and rep.lhs_dim == 7


def test_end_iso_dual_numbers_a2():
    d = dual_numbers()
    reg = alg.projective_module(d, "1")
    q, gamma = qv.a_n(2), end_of(d, [reg])
    rep = endo.adjoint_end_iso(q, gamma, adjoint_lhs(q, gamma, "lambda", q.vertices))
    assert rep.verified and rep.lhs_dim == 6


def test_end_iso_rho_side():
    k = base_k()
    q, gamma = qv.d4((0, 0, 0)), end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    rep = endo.adjoint_end_iso(q, gamma, adjoint_lhs(q, gamma, "rho", q.vertices))
    assert rep.verified and rep.lhs_dim == 7


def reference_adjoint_end_iso(q, gamma, side, vertices):
    """The isomorphism check built on End(sum of the adjoints of A's sum) over
    Lambda Q: its own hom space, and composites of maps of the sum solved in
    the span of the correspondence.  Returns (lhs_dim, rhs_dim, verified)."""
    a = gamma.summands[0].algebra
    total, sinjs, sprojs = alg.direct_sum_mods(a, gamma.summands)
    use_q = qv.subquiver(q, vertices)
    rhs, rhs_labels = endo.path_block_algebra(gamma.sc, use_q)
    adjoint = rc.left_adjoint if side == "lambda" else rc.right_adjoint
    pieces = {v: adjoint(q, v, total) for v in use_q.vertices}
    rcat, parts = cats.rep_cat(q, a), [pieces[v] for v in use_q.vertices]
    tot_rep = rcat.sum_obj(parts)
    ident = rcat.identity(tot_rep)
    injs, projs = rcat.restrictions(tot_rep, ident, parts), rcat.components(tot_rep, ident, parts)
    vindex = {v: i for i, v in enumerate(use_q.vertices)}
    f = a.field
    chi_maps = []
    for p, g in rhs_labels:
        src, dst, t = gamma.block_of(g)
        gm = sinjs[dst].compose(gamma.blocks[(src, dst)][1][t]).compose(sprojs[src])
        v, w = p.target, p.source
        src_piece, dst_piece = pieces[v], pieces[w]
        pairs = {}
        for x in q.vertices:
            if side == "lambda":
                dst_idx = {pp: i for i, pp in enumerate(dst_piece._adjoint[3].paths[x])}
                pairs[x] = [(i, dst_idx[qv.concat(p, qq)])
                            for i, qq in enumerate(src_piece._adjoint[3].paths[x])]
            else:
                src_idx = {pp: i for i, pp in enumerate(src_piece._adjoint[3].paths[x])}
                pairs[x] = [(src_idx[qv.concat(rr, p)], j)
                            for j, rr in enumerate(dst_piece._adjoint[3].paths[x])]
        comp = rc._copy_map(src_piece, dst_piece, gm.mats, pairs)
        chi_maps.append(injs[vindex[w]].compose(comp).compose(projs[vindex[v]]))
    if not all(chi.is_valid() for chi in chi_maps):
        raise IsoCheckFailed("a correspondence morphism is not natural")
    stacked = Mat.hstack(f, [Mat.column(f, chi.flatten()) for chi in chi_maps])
    lhs_dim = alg.hom_dim(tot_rep, tot_rep)
    if rank(stacked) != len(chi_maps) or lhs_dim != rhs.dim:
        raise IsoCheckFailed("correspondence is not bijective")
    for i, ci in enumerate(chi_maps):
        for j, cj in enumerate(chi_maps):
            coords = solve_matrix(stacked, Mat.column(f, ci.compose(cj).flatten()))
            if coords is None or tuple(coords.column_vector()) != rhs.mult[i][j]:
                raise IsoCheckFailed("structure constants disagree under the correspondence")
    return lhs_dim, rhs.dim, True


def k3():
    return qv.make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])


ISO_CASES = [(name, make_q, field, "k")
             for name, make_q in [("kronecker", qv.kronecker), ("k3", k3),
                                  ("a2", lambda: qv.a_n(2)), ("a3_sink", lambda: a3_middle_sink())]
             for field in (QQ, GF(2), GF(3))]
ISO_CASES += [(f"d4{bits}", lambda bits=bits: qv.d4(bits), QQ, "k")
              for bits, _ in qv.d4_orientations()]
ISO_CASES += [(name, make_q, QQ, "dual") for name, make_q in
              [("a2", lambda: qv.a_n(2)), ("kronecker", qv.kronecker)]]


@pytest.mark.parametrize("name,make_q,field,base", ISO_CASES,
                         ids=[f"{c[0]}-{'QQ' if c[2] is QQ else f'GF{c[2].p}'}-{c[3]}"
                              for c in ISO_CASES])
def test_end_iso_agrees_with_the_end_of_the_adjoint_of_the_sum(name, make_q, field, base):
    # on the vertex sets of X1 and X3, and on every vertex, for both sides;
    # base "dual" is A = Lambda = k[x]/x^2
    q = make_q()
    if base == "k":
        k = alg.ground_field_algebra(field)
        gamma = end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    else:
        d = dual_numbers()
        gamma = end_of(d, [alg.projective_module(d, "1")])
    s = qv.sinks(q)
    non = [v for v in q.vertices if v not in s]
    for side, verts in [("lambda", s), ("rho", non), ("lambda", q.vertices), ("rho", q.vertices)]:
        if not verts:
            continue
        rep = endo.adjoint_end_iso(q, gamma, adjoint_lhs(q, gamma, side, verts))
        assert rep.side == side
        assert (rep.lhs_dim, rep.rhs_dim, rep.verified) == \
            reference_adjoint_end_iso(q, gamma, side, verts), (side, verts)


def test_end_iso_catches_a_swapped_structure_constant(monkeypatch):
    k = base_k()
    q, gamma = qv.d4((0, 0, 0)), end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    lhs = adjoint_lhs(q, gamma, "lambda", q.vertices)
    real = endo.path_block_algebra

    def swapped(g, sub):
        sc, labels = real(g, sub)
        mult = [list(row) for row in sc.mult]
        i, j = next((i, j) for i in range(sc.dim) for j in range(sc.dim) if any(mult[i][j]))
        j2 = next(j2 for j2 in range(sc.dim) if mult[i][j2] != mult[i][j])
        mult[i][j], mult[i][j2] = mult[i][j2], mult[i][j]
        return types.SimpleNamespace(dim=sc.dim, mult=mult), labels

    assert endo.adjoint_end_iso(q, gamma, lhs).verified
    monkeypatch.setattr(endo, "path_block_algebra", swapped)
    with pytest.raises(IsoCheckFailed):
        endo.adjoint_end_iso(q, gamma, lhs)


@pytest.mark.parametrize("side", ["lambda", "rho"])
def test_end_iso_refuses_summands_of_the_other_side(side):
    k = base_k()
    q, gamma = qv.d4((0, 0, 0)), end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    other = rc.right_adjoint if side == "lambda" else rc.left_adjoint
    lhs = adjoint_lhs(q, gamma, side, q.vertices)
    mixed = endo.end_algebra(lhs.summands[:-1] + [other(q, q.vertices[-1], gamma.summands[0])],
                             lhs.cat)
    with pytest.raises(QuivhomError):
        endo.adjoint_end_iso(q, gamma, mixed)


def test_end_iso_takes_the_corner_at_x1_and_refuses_end_x2():
    # End(X2) mixes lambda at the non-sinks and rho at the sinks
    k = base_k()
    m = alg.AlgMod(k, {"1": 1}, {})
    xbar = repdim.build_xbar(qv.kronecker(), k, [m])
    e, n1, n2 = repdim.end_xbar(xbar), len(xbar.x1), len(xbar.x2)
    assert endo.adjoint_end_iso(xbar.quiver, end_of(k, [m]), e.corner(range(n1))).verified
    with pytest.raises(QuivhomError):
        endo.adjoint_end_iso(xbar.quiver, end_of(k, [m]), e.corner(range(n1, n1 + n2)))


def test_end_iso_refuses_reordered_summands():
    d = dual_numbers()
    q, gamma = qv.a_n(2), end_of(d, [alg.simple_module(d, "1"), alg.projective_module(d, "1")])
    lhs = adjoint_lhs(q, gamma, "lambda", q.vertices)
    assert endo.adjoint_end_iso(q, gamma, lhs).lhs_dim == lhs.dim == 15
    swapped = [lhs.summands[i] for i in (1, 0, 2, 3)]
    with pytest.raises(QuivhomError):
        endo.adjoint_end_iso(q, gamma, endo.end_algebra(swapped, lhs.cat))
    # vertex blocks out of the quiver's order, and gamma of another A
    reversed_blocks = lhs.summands[2:] + lhs.summands[:2]
    with pytest.raises(QuivhomError):
        endo.adjoint_end_iso(q, gamma, endo.end_algebra(reversed_blocks, lhs.cat))
    with pytest.raises(QuivhomError):
        endo.adjoint_end_iso(q, end_of(d, [alg.projective_module(d, "1")]), lhs)


def test_end_iso_builds_no_second_end_over_the_path_algebra(monkeypatch):
    k = base_k()
    q, gamma = qv.kronecker(), end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    lhs = adjoint_lhs(q, gamma, "rho", q.vertices)

    def refuse(*args, **kwargs):
        raise AssertionError("adjoint_end_iso rebuilt a sum, an adjoint or a hom space")

    for mod, name in [(alg, "hom_basis"), (alg, "sum_mods"), (rc, "left_adjoint"),
                      (rc, "right_adjoint"), (alg, "direct_sum_mods")]:
        monkeypatch.setattr(mod, name, refuse)
    rep = endo.adjoint_end_iso(q, gamma, lhs)
    assert rep.verified and rep.lhs_dim == rep.rhs_dim == lhs.dim


def test_end_indices_outside_the_summands_are_refused():
    k = base_k()
    e = endo.end_algebra(xbar_summands(qv.kronecker(), k), cats.rep_cat(qv.kronecker(), k))
    n = len(e.summands)
    with pytest.raises(QuivhomError):
        e.corner([n + 1])
    with pytest.raises(QuivhomError):
        e.positions([0], [n])
    with pytest.raises(QuivhomError):
        endo.hom_as_end_module(e, [0], [n + 3])


def test_corner_refuses_repeated_indices():
    k = base_k()
    e = end_of(k, [alg.AlgMod(k, {"1": 1}, {})])
    with pytest.raises(QuivhomError, match=r"indices \[0\] repeat"):
        e.corner([0, 0])
    e = endo.end_algebra(xbar_summands(qv.kronecker(), k), cats.rep_cat(qv.kronecker(), k))
    with pytest.raises(QuivhomError, match=r"indices \[1, 2\] repeat"):
        e.corner([2, 1, 0, 2, 1])
    assert e.corner([2, 1, 0]).dim == e.corner([0, 1, 2]).dim


def test_hom_as_end_module_regular():
    a = alg.path_algebra(QQ, qv.a_n(2))
    cat = cats.mod_cat(a)
    p1, p2 = alg.projective_module(a, "1"), alg.projective_module(a, "2")
    e = endo.end_algebra([p1, p2], cat)
    reg = endo.hom_as_end_module(e, [0, 1], [0, 1])
    assert reg.dim == e.dim
    assert reg.check()
    assert scm.is_projective_sc(reg)


def test_hom_as_end_module_example():
    a = alg.path_algebra(QQ, qv.a_n(2))
    cat = cats.mod_cat(a)
    p1, p2 = alg.projective_module(a, "1"), alg.projective_module(a, "2")
    e = endo.end_algebra([p1, p2], cat)
    n = endo.hom_as_end_module(e, [1], [0])
    assert n.dim == 1 and n.check()


def test_end_module_simple_top_is_not_projective():
    a = alg.path_algebra(QQ, qv.a_n(2))
    cat = cats.mod_cat(a)
    p1, p2 = alg.projective_module(a, "1"), alg.projective_module(a, "2")
    e = endo.end_algebra([p1, p2], cat)
    cd = scm.column_data(e.sc)
    # the simple top of the 2-dimensional column (End = kA_2 again) has pd 1
    two_col = [i for i in range(2) if cd.columns[i][0].dim == 2][0]
    s = cd.simple_top(two_col)
    assert not scm.is_projective_sc(s)
    assert scm.pd_sc(s) == Dim.finite(1)
    # column projectives themselves pass the test
    assert scm.is_projective_sc(cd.columns[0][0])


def test_hom_bimodule_left_action_is_the_end_module():
    q, k = qv.kronecker(), base_k()
    cat = cats.rep_cat(q, k)
    m = alg.AlgMod(k, {"1": 1}, {})
    sources = [rc.left_adjoint(q, "2", m), rc.right_adjoint(q, "2", m)]
    targets = [rc.left_adjoint(q, "1", m), rc.right_adjoint(q, "1", m), sources[0]]
    e = endo.end_algebra(sources + targets, cat)
    src, dst = [0, 1], [2, 3, 4]
    # in Sigma = e.triangular(src, dst) the sources come first
    sigma = e.triangular(src, dst)
    r, s = range(len(src)), range(len(src), len(src) + len(dst))
    m_pos = sigma.positions(r, s)
    left = scm.table_actions(sigma.sc, sigma.positions(s, s), m_pos)
    right = scm.table_actions(sigma.sc, sigma.positions(r, r), m_pos, left=False)
    module = endo.hom_as_end_module(e, src, dst)
    assert len(m_pos) == module.dim > 0
    assert left == module.action
    # the unit of End(from) acts on the right as the identity
    unit_action = Mat.zeros(QQ, module.dim, module.dim)
    for c, act in zip(e.corner(src).sc.unit, right):
        unit_action = unit_action.add(act.scale(c))
    assert unit_action.is_identity()


# -- End(X-bar) once: corners and sub-tables against rebuilt references ------------

def a3_middle_sink():
    return qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])


XBAR_CASES = {
    "kronecker-QQ": (qv.kronecker, QQ),
    "A3-middle-sink-QQ": (a3_middle_sink, QQ),
    "D4(1,0,1)-QQ": (lambda: qv.d4((1, 0, 1)), QQ),
    "kronecker-GF3": (qv.kronecker, GF(3)),
}


def xbar_end_and_parts(q, a, summands):
    """E = End(X-bar) and the index lists of X1, X2, X3, X2lambda, X2rho."""
    xbar = repdim.build_xbar(q, a, summands)
    n1, n2 = len(xbar.x1), len(xbar.x2)
    parts = {"X1": list(range(n1)), "X2": list(range(n1, n1 + n2)),
             "X3": list(range(n1 + n2, len(xbar.all_summands())))}
    for side in ("lambda", "rho"):
        parts["X2" + side] = [n1 + j for j, x in enumerate(xbar.x2) if x._adjoint[0] == side]
    return repdim.end_xbar(xbar), parts


def end_xbar_and_parts(name):
    make_q, field = XBAR_CASES[name]
    k = alg.ground_field_algebra(field)
    e, parts = xbar_end_and_parts(make_q(), k, [alg.AlgMod(k, {"1": 1}, {})])
    assert all(parts.values())
    return e, parts


@pytest.mark.parametrize("name", list(XBAR_CASES))
def test_corners_equal_the_end_algebras_of_their_summands(name):
    e, parts = end_xbar_and_parts(name)
    for part in ("X1", "X2", "X3", "X2rho"):
        corner = e.corner(parts[part])
        ref = endo.end_algebra([e.summands[i] for i in parts[part]], e.cat)
        assert corner.sc.mult == ref.sc.mult
        assert corner.sc.unit == ref.sc.unit
        assert corner.sc.idempotents == ref.sc.idempotents
        assert corner.sc.known_radical == ref.sc.known_radical
        assert e.corner(parts[part]) is corner
    # a reordered index list: X2 before X1, each reversed
    idx = (parts["X1"] + parts["X2"])[::-1]
    corner = e.corner(idx)
    ref = endo.end_algebra([e.summands[i] for i in idx], e.cat)
    assert corner.sc.mult == ref.sc.mult
    assert corner.sc.known_radical == ref.sc.known_radical


def reexpressed_actions(e, sources, targets, post):
    """Reference: End(targets) (post) or End(sources) (pre) rebuilt, and each
    of its basis maps composed with every hom-block basis map of
    Hom(sum sources, sum targets) and re-expressed in that block's basis."""
    cat, f = e.cat, e.cat.field
    acting = endo.end_algebra([e.summands[i] for i in (targets if post else sources)], cat)
    blocks, dim = {}, 0
    for i, s in enumerate(sources):
        for j, t in enumerate(targets):
            basis = cat.hom_basis(e.summands[s], e.summands[t])
            blocks[(i, j)] = (dim, basis)
            dim += len(basis)

    def express(i, j, h):
        vec = [f.zero()] * dim
        off, basis = blocks[(i, j)]
        flat = Mat.column(f, cat.flatten_map(h))
        if basis:
            x = solve_matrix(Mat.hstack(f, [Mat.column(f, cat.flatten_map(b)) for b in basis]), flat)
            vec[off:off + len(basis)] = x.entries
        else:
            assert flat.is_zero()
        return vec

    out = []
    for src, dst, t in map(acting.block_of, range(acting.dim)):
        gamma = acting.blocks[(src, dst)][1][t]
        cols = []
        for (i, j), (_, basis) in blocks.items():
            for h in basis:
                if post:
                    cols.append(express(i, dst, cat.compose(gamma, h)) if j == src else [f.zero()] * dim)
                else:
                    cols.append(express(src, j, cat.compose(h, gamma)) if i == dst else [f.zero()] * dim)
        out.append(Mat(f, dim, dim, tuple(col[r] for r in range(dim) for col in cols)))
    return out


@pytest.mark.parametrize("name", list(XBAR_CASES))
def test_hom_modules_and_sigma_are_sub_tables_of_end_xbar(name):
    e, parts = end_xbar_and_parts(name)
    for src, dst in (("X1", "X2"), ("X2", "X3"), ("X2lambda", "X2rho")):
        m = endo.hom_as_end_module(e, parts[src], parts[dst])
        assert m.sc is e.corner(parts[dst]).sc
        assert m.action == reexpressed_actions(e, parts[src], parts[dst], post=True)
        assert m.check()
    # Sigma's diagonal sub-tables are the corners End(X1), End(X2), and its
    # actions on the Hom(X1, X2) block are post- and pre-composition
    sigma = e.triangular(parts["X1"], parts["X2"])
    n1, n2 = len(parts["X1"]), len(parts["X2"])
    r, s = range(n1), range(n1, n1 + n2)
    for diag, part in ((r, "X1"), (s, "X2")):
        pos = sigma.positions(diag, diag)
        assert [[tuple(sigma.sc.mult[x][y][z] for z in pos) for y in pos] for x in pos] \
            == [list(row) for row in e.corner(parts[part]).sc.mult]
    m_pos = sigma.positions(r, s)
    left = scm.table_actions(sigma.sc, sigma.positions(s, s), m_pos)
    right = scm.table_actions(sigma.sc, sigma.positions(r, r), m_pos, left=False)
    assert left == reexpressed_actions(e, parts["X1"], parts["X2"], post=True)
    assert right == reexpressed_actions(e, parts["X1"], parts["X2"], post=False)
    bimod = tm.Bimodule(e.corner(parts["X2"]).sc, e.corner(parts["X1"]).sc, len(m_pos), left, right)
    assert bimod.check()


SIGMA_CASES = [*XBAR_CASES, "single-vertex-QQ", "single-vertex-GF3", "dual-numbers-kronecker"]


def sigma_case(name):
    if name in XBAR_CASES:
        return end_xbar_and_parts(name)
    if name == "dual-numbers-kronecker":
        d = dual_numbers()
        return xbar_end_and_parts(qv.kronecker(), d,
                                  [alg.simple_module(d, "1"), alg.projective_module(d, "1")])
    k = alg.ground_field_algebra(QQ if name.endswith("QQ") else GF(3))
    return xbar_end_and_parts(qv.single_vertex(), k, [alg.AlgMod(k, {"1": 1}, {})])


@pytest.mark.parametrize("name", SIGMA_CASES)
def test_sigma_sub_table_against_the_triangular_ring(name):
    # reference: Sigma as the triangular ring [[End X1, 0], [Hom(X1, X2), End X2]]
    # of triples, its bimodule read off E's structure constants
    e, parts = sigma_case(name)
    x1, x2 = parts["X1"], parts["X2"]
    sigma = e.triangular(x1, x2)
    m_pos = e.positions(x1, x2)
    bimod = tm.Bimodule(e.corner(x2).sc, e.corner(x1).sc, len(m_pos),
                        scm.table_actions(e.sc, e.positions(x2, x2), m_pos),
                        scm.table_actions(e.sc, e.positions(x1, x1), m_pos, left=False))
    spec = tm.TriRingSpec(e.corner(x1).sc, e.corner(x2).sc, bimod, name="Sigma")
    g_sigma = scm.gldim_sc(sigma.sc)
    assert g_sigma == tm.trimat_gldim(spec)
    if name.startswith("single-vertex"):
        # X1 = X2 = k: the block Hom(X2, X1) = k is dropped, so Sigma is kA2,
        # while the corner End(X1 + X2) is the matrix ring M2(k)
        assert len(e.positions(x2, x1)) == 1
        assert g_sigma == Dim.finite(1)
        assert scm.gldim_sc(e.corner(x1 + x2).sc) == Dim.finite(0)
    if e.cat.field.kind == "q":
        assert_radical_is_trace_form_radical(sigma)


# -- the radical certificate: its failure branches and the products it skips ---------------

def block_radical_parts(e):
    n = len(e.summands)
    return endo._block_radical(e.cat.field, e.blocks, e.sc.mult, n)


def test_certificate_refuses_a_candidate_that_is_not_an_ideal():
    e, _ = end_xbar_and_parts("kronecker-QQ")
    parts = block_radical_parts(e)
    assert endo._certify_radical(e.sc, e.blocks, parts) is None
    # cut the candidate down to zero on one off-diagonal block: x o id = x
    # still lands there, so the candidate is no longer an ideal
    keys = [k for k, (_, vecs) in parts.items() if k[0] != k[1] and vecs]
    assert keys
    for key in keys:
        planted = dict(parts)
        planted[key] = (Mat.identity(QQ, len(e.blocks[key][1])).row_list(), parts[key][1])
        with pytest.raises(NotSplit, match="not an ideal"):
            endo._certify_radical(e.sc, e.blocks, planted)


@pytest.mark.parametrize("side", ["left", "right"])
def test_certificate_tests_both_sides_of_the_ideal(side):
    # a candidate that only products on one side leave: on the left, x in
    # (i, j) times e in (j, m) lands in (i, m), and with every J_(b, m),
    # b != m, emptied no right product lands there; on the right, x times
    # e in (m, i) lands in (m, j), and no left product does once every
    # J_(m, b), b != m, is empty
    e, _ = end_xbar_and_parts("kronecker-QQ")
    sc, parts = e.sc, block_radical_parts(e)
    units = Mat.identity(QQ, sc.dim).row_list()
    found = None
    for (i, j), (_, vecs) in parts.items():
        for x in vecs:
            for b, (src, dst, _) in enumerate(map(e.block_of, range(sc.dim))):
                if side == "left" and src == j and dst not in (i, j) and any(sc.multiply(units[b], x)):
                    found = (i, dst), lambda key, m=dst: key[1] == m and key[0] != m
                elif side == "right" and dst == i and src not in (i, j) and any(sc.multiply(x, units[b])):
                    found = (src, j), lambda key, m=src: key[0] == m and key[1] != m
    assert found is not None
    target, emptied = found
    planted = {key: (rows, [] if emptied(key) else vecs) for key, (rows, vecs) in parts.items()}
    assert endo._certify_radical(sc, e.blocks, planted) is None
    planted[target] = (Mat.identity(QQ, len(e.blocks[target][1])).row_list(), planted[target][1])
    with pytest.raises(NotSplit, match="not an ideal"):
        endo._certify_radical(sc, e.blocks, planted)


def test_certificate_refuses_a_candidate_that_is_not_nilpotent():
    e, _ = end_xbar_and_parts("kronecker-QQ")
    sc = e.sc
    # the same ideal test, but the unit among the radical vectors
    planted = alg.SCAlgebra(QQ, sc.mult, sc.unit, idempotents=sc.idempotents,
                            radical=list(sc.known_radical) + [sc.unit])
    with pytest.raises(NotSplit, match="not nilpotent"):
        endo._certify_radical(planted, e.blocks, block_radical_parts(e))


@pytest.mark.parametrize("make_q", [qv.kronecker, lambda: qv.d4((0, 0, 0))], ids=["kronecker", "d4_000"])
def test_ideal_check_skips_only_zero_products(make_q):
    # x in the block (i, j) is multiplied only by the blocks (j, k) on the
    # left and (k, i) on the right; every other product must vanish
    k = base_k()
    e, _ = xbar_end_and_parts(make_q(), k, [alg.AlgMod(k, {"1": 1}, {})])
    sc = e.sc
    units = Mat.identity(QQ, sc.dim).row_list()
    skipped = 0
    for x in sc.known_radical:
        i, j, _ = e.block_of(next(b for b, c in enumerate(x) if c))
        for b, (src, dst, _) in enumerate(map(e.block_of, range(sc.dim))):
            if src != j:
                assert not any(sc.multiply(units[b], x))
                skipped += 1
            if dst != i:
                assert not any(sc.multiply(x, units[b]))
                skipped += 1
    assert skipped > len(sc.known_radical) * sc.dim  # most products are skipped
