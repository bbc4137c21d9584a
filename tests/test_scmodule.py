import random

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import endo
from quivhom import exactlin
from quivhom import quiver as qv
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.bounds import Dim, dim_max, syzygy_steps
from quivhom.errors import AlgebraMismatch, DimensionMismatch, NotSplit, QuivhomError
from quivhom.exactlin import (GF, QQ, Mat, _commuting_rows, _kernel_blocks, _null_space, rank, rref,
                              solve_matrix)


def radical_submodule_sc(m):
    """J*M as the columns of its reduced basis, read grade by grade by the
    cover's ``_radical_parts``: the reference for quotients by J*M."""
    return scm._join(m, *scm._radical_parts(m))


def restrict_sc(m, basis, units):
    """(the submodule spanned by the columns of ``basis``, its inclusion),
    for a basis that is the identity at the rows ``units``: the basis cut
    into grades and handed to ``scmodule._submodule``, which reads the
    restricted actions off those rows grade by grade."""
    of, parts = [m.grade[u] for u in units], []
    place = {c: p for cs in m.coords for p, c in enumerate(cs)}  # c's place in its grade
    for g, cs in enumerate(m.coords):
        ks = [t for t, h in enumerate(of) if h == g]
        parts.append((scm._take(basis, cs, ks), [place[units[t]] for t in ks]))
    if sum(scm._nonzeros(b) for b, _ in parts) != scm._nonzeros(basis):
        raise QuivhomError("span is not action-stable: a column mixes grades")
    sub = scm._submodule(m, of, parts)
    return sub, scm.SCMap(sub, m, basis)


def sc_kA2():
    return alg.sc_of_bqa(alg.path_algebra(QQ, qv.a_n(2)))


def sc_dual():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.sc_of_bqa(alg.build_bqa(QQ, loop, [[(1, x)]], 2))


def test_regular_module_checks():
    for sc in [sc_kA2(), sc_dual()]:
        reg = scm.regular_module(sc)
        assert reg.check()


def test_columns_and_classes_basic():
    cd = scm.ColumnData(sc_kA2())
    assert len(cd.classes) == 2
    dims = sorted(col.dim for col, _ in cd.columns)
    assert dims == [1, 2]  # P_2 and P_1 of kA2


def test_flatten_algmod_matches():
    a = alg.path_algebra(QQ, qv.a_n(2))
    sc = alg.sc_of_bqa(a)
    p1 = alg.projective_module(a, "1")
    raw = scm.sc_module_of_algmod(p1, sc)
    assert raw.dim == 2 and raw.check()


def test_gldim_sc_matches_bqa_gldim():
    for mk, expected in [(sc_kA2, Dim.finite(1)), (sc_dual, Dim.at_least(8))]:
        sc = mk()
        got = scm.gldim_sc(sc, cap=8)
        assert got == expected


def test_pd_sc_simple():
    sc = sc_kA2()
    cd = scm.column_data(sc)
    # simple top of P_1 has pd 1, of P_2 pd 0
    tops = {cd.columns[i][0].dim: scm.pd_sc(cd.simple_top(i), 10) for i in cd.classes}
    assert tops[2] == Dim.finite(1)
    assert tops[1] == Dim.finite(0)


def test_projectivity_split_test():
    sc = sc_kA2()
    cd = scm.column_data(sc)
    reg = scm.regular_module(sc)
    assert scm.is_projective_sc(reg)
    s = cd.simple_top(0) if cd.columns[0][0].dim == 2 else cd.simple_top(1)
    # the 2-dim column has a 1-dim non-projective top
    two_idx = 0 if cd.columns[0][0].dim == 2 else 1
    top = cd.simple_top(two_idx)
    assert not scm.is_projective_sc(top)


def test_duplicate_idempotents_matrix_block():
    # End of k^2 over k: M_2(k), two equal primitive idempotents, one class
    f = QQ
    # basis: e11, e12, e21, e22 of 2x2 matrices, product = matrix product
    def unit(i):
        return tuple(f.one() if j == i else f.zero() for j in range(4))

    def mprod(i, j):
        # e_{ab} e_{cd} = delta_{bc} e_{ad}; basis order 11,12,21,22
        a, b = divmod(i, 2)
        c, d = divmod(j, 2)
        out = [f.zero()] * 4
        if b == c:
            out[a * 2 + d] = f.one()
        return tuple(out)

    mult = [[mprod(i, j) for j in range(4)] for i in range(4)]
    unit_vec = tuple(f.of_int(x) for x in (1, 0, 0, 1))
    sc = alg.SCAlgebra(f, mult, unit_vec, idempotents=[unit(0), unit(3)])
    sc.validate()
    cd = scm.column_data(sc)
    assert len(cd.classes) == 1
    assert scm.gldim_sc(sc) == Dim.finite(0)
    # the 2-dim simple is projective and its cover is a single column
    simple = cd.simple_top(0)
    assert simple.dim == 2
    p, pi = scm.projective_cover_sc(simple)
    assert p.dim == 2
    k, _ = scm.kernel_of_sc(pi)
    assert k.is_zero()


def test_hom_basis_sc():
    sc = sc_kA2()
    reg = scm.regular_module(sc)
    endo = scm.hom_basis_sc(reg, reg)
    assert len(endo) == 3  # End of the regular module has the algebra's dimension
    for h in endo:
        assert h.is_valid()


def test_not_split_without_idempotents():
    sc = sc_kA2()
    bare = alg.SCAlgebra(sc.field, sc.mult, sc.unit, idempotents=None, radical=sc.known_radical)
    with pytest.raises(NotSplit):
        scm.ColumnData(bare)



def dual_numbers():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(QQ, loop, [[(1, x)]], 2)


@pytest.mark.parametrize("make", [lambda: alg.path_algebra(QQ, qv.a_n(3)), dual_numbers])
def test_hom_dims_agree_with_base_algebra(make):
    """The quiver-module and structure-constant hom solvers see the same Hom."""
    a = make()
    sc = alg.sc_of_bqa(a)
    mods = [alg.projective_module(a, v) for v in a.quiver.vertices]
    mods += [alg.simple_module(a, v) for v in a.quiver.vertices]
    mods.append(alg.direct_sum_mods(a, mods[:2])[0])
    for m in mods:
        for n in mods:
            raw = scm.hom_basis_sc(scm.sc_module_of_algmod(m, sc), scm.sc_module_of_algmod(n, sc))
            assert len(alg.hom_basis(m, n)) == len(raw)


def test_simple_top_is_computed_once():
    for sc in [sc_kA2(), sc_dual()]:
        cd = scm.ColumnData(sc)
        for i, (col, _) in enumerate(cd.columns):
            top = cd.simple_top(i)
            assert cd.simple_top(i) is top
            fresh, _, _ = scm.quotient_sc(col, radical_submodule_sc(col))
            assert top == fresh and top.dim == 1


# -- cover generators against the greedy orbit search they replace -----------------

def _row_space(field, rows):
    """The nonzero rows of the RREF of ``rows``, as one matrix."""
    m = Mat.from_rows(field, rows)
    red, rk, _ = rref(m)
    keep = red.row_list()[:rk]
    if not keep:
        return Mat.zeros(field, 0, m.cols)
    return Mat.from_rows(field, keep)


def _greedy_cover_generators(m, cd):
    """Reference: per class, the first columns of e_i acting on M whose images
    in M/JM leave the span of the Gamma-orbits of the generators chosen so
    far, as many as the class occurs in the top; each generator is given by
    its column, a coordinate of M."""
    f = m.sc.field
    proj, _, _ = alg.quotient_by_rows(radical_submodule_sc(m).transpose())
    if proj.rows == 0:
        return [], []
    reached = Mat.zeros(f, 0, proj.rows)
    pieces, gens = [], []
    for members in cd.classes.values():
        i0 = members[0]
        e_act = m.act_vector(cd.sc.idempotents[i0])
        cls_top = sum(rank(proj.mul(m.act_vector(cd.sc.idempotents[i]))) for i in members)
        cand = proj.mul(e_act)
        for _ in range(cls_top // cd.simple_top(i0).dim):
            j = next(j for j in range(cand.cols) if not cand.col(j).is_zero()
                     and (reached.rows == 0 or solve_matrix(reached.transpose(), cand.col(j)) is None))
            pieces.append(i0)
            gens.append(j)
            rows = reached.row_list() + [proj.mul(a).mul(e_act.col(j)).column_vector()
                                         for a in m.action]
            reached = _row_space(f, rows)
    assert reached.rows == proj.rows
    return pieces, gens


def _a3_rad2(field):
    q = qv.a_n(3)
    return alg.build_bqa(field, q, [[(1, qv.Path("1", "3", ("a1", "a2")))]], 2)


def _dual(field):
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    return alg.build_bqa(field, loop, [[(1, qv.Path("1", "1", ("x", "x")))]], 2)


def _end_with_duplicate(field):
    # End(P1 + P2 + P1) over kA2: one isomorphism class with two members
    a = alg.path_algebra(field, qv.a_n(2))
    p1, p2 = alg.projective_module(a, "1"), alg.projective_module(a, "2")
    return endo.end_algebra([p1, p2, p1], cats.mod_cat(a)).sc


SC_ALGEBRAS = {
    "kA2": lambda f: alg.sc_of_bqa(alg.path_algebra(f, qv.a_n(2))),
    "dual": lambda f: alg.sc_of_bqa(_dual(f)),
    "A3/rad2": lambda f: alg.sc_of_bqa(_a3_rad2(f)),
    "End(P1+P2+P1)": _end_with_duplicate,
}


def _test_modules(sc, cd):
    """Regular, column, simple-top and sum modules, the radical of the
    regular module and the first syzygies of the simple tops."""
    reg = scm.regular_module(sc)
    cols = [col for col, _ in cd.columns]
    tops = [cd.simple_top(i) for i in range(len(cols))]
    rad, _ = restrict_sc(reg, *alg._column_basis(sc.field, [radical_submodule_sc(reg)]))
    sums = [scm.sum_sc(sc, [cols[0], tops[-1], tops[0]]), scm.sum_sc(sc, tops + tops[:1])]
    syz = [scm.kernel_of_sc(scm.projective_cover_sc(t)[1])[0] for t in tops]
    return [reg, rad] + cols + tops + sums + syz


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
@pytest.mark.parametrize("name", list(SC_ALGEBRAS))
def test_cover_generators_are_the_greedy_ones(name, field):
    sc = SC_ALGEBRAS[name](field)
    cd = scm.column_data(sc)
    if name == "End(P1+P2+P1)":
        assert sorted(len(members) for members in cd.classes.values()) == [1, 2]
    for m in _test_modules(sc, cd):
        pieces, gens = scm._cover_generators(m, *scm._radical_parts(m))
        assert (pieces, gens) == _greedy_cover_generators(m, cd)
        p, pi = scm.projective_cover_sc(m)
        assert pi.is_valid() and rank(pi.mat) == m.dim
        k, incl = scm.kernel_of_sc(pi)
        rad_p = radical_submodule_sc(p)
        assert rank(Mat.hstack(field, [rad_p, incl.mat])) == rad_p.cols  # ker in rad P


def _connecting_block_modules():
    """Hom(X1, X2) over End(X2) and Hom(X2 lambda-part, X2 rho-part) of
    repdim's X-bar on the Kronecker quiver and on two D4 orientations."""
    k = alg.ground_field_algebra(QQ)
    out = []
    for q in (qv.kronecker(), qv.d4((0, 0, 0)), qv.d4((1, 0, 1))):
        xbar = repdim.build_xbar(q, k, [alg.AlgMod(k, {"1": 1}, {})])
        n1, n2 = len(xbar.x1), len(xbar.x2)
        e = endo.end_algebra(xbar.x1 + xbar.x2, cats.rep_cat(q, k))
        out.append(endo.hom_as_end_module(e, range(n1), range(n1, n1 + n2)))
        lam2 = [n1 + j for j, x in enumerate(xbar.x2) if x._adjoint[0] == "lambda"]
        rho2 = [n1 + j for j, x in enumerate(xbar.x2) if x._adjoint[0] == "rho"]
        out.append(endo.hom_as_end_module(e, lam2, rho2))
    return out


def test_projectivity_read_off_the_cover_agrees_with_the_split_test():
    seen = set()
    cases = _connecting_block_modules()
    for name, make in SC_ALGEBRAS.items():
        sc = make(QQ)
        cases += _test_modules(sc, scm.column_data(sc))
    for m in cases:
        _, pi = scm.projective_cover_sc(m)
        split = cats.sc_cat(m.sc).section(pi) is not None
        assert scm.is_projective_sc(m) == split
        seen.add(split)
    assert seen == {True, False}


def test_cover_generators_act_once_per_class_and_solve_nothing(monkeypatch):
    sc = _end_with_duplicate(QQ)
    cd = scm.column_data(sc)
    mods = _test_modules(sc, cd)
    subs = [scm._radical_parts(m) for m in mods]
    acts = []
    real_act = scm._act_blocks

    def counting(m, coeffs):
        acts.append(coeffs)
        return real_act(m, coeffs)

    def refuse(*args):
        raise AssertionError("cover generators solved a linear system")

    monkeypatch.setattr(scm, "_act_blocks", counting)
    for mod in (exactlin, alg):  # alg binds the name only while it imports it
        monkeypatch.setattr(mod, "solve_matrix", refuse, raising=False)
    for m, sub in zip(mods, subs):
        acts.clear()
        scm._cover_generators(m, *sub)
        assert len(acts) == (len(cd.classes) if len(sub[0]) < m.dim else 0)


def test_is_projective_sc_solves_no_hom_system(monkeypatch):
    sc = sc_kA2()
    mods = _test_modules(sc, scm.column_data(sc))

    def refuse(m, n):
        raise AssertionError("projectivity test solved for module maps")

    monkeypatch.setattr(scm, "hom_basis_sc", refuse)
    assert {scm.is_projective_sc(m) for m in mods} == {True, False}


# -- column projectives against the regular-module construction they replace ----------

def _reference_column_data(sc):
    """Reference: Gamma*e_i as the span of right multiplication by e_i inside
    the regular module, acted on by one solve per basis element; classes
    from the ranks of the corners e_i Gamma e_j and e_i J e_j, spanned by
    e_i g e_j over all g; tops as quotients by the radical submodule.
    Returns (columns with their reduced bases in Gamma, class_of, simple tops)."""
    f = sc.field
    units = [tuple(u) for u in Mat.identity(f, sc.dim).row_list()]
    reg = scm.SCModule(sc, sc.dim, [Mat.hstack(f, [Mat.column(f, sc.multiply(a, u)) for u in units])
                                    for a in units])
    columns = []
    for e in sc.idempotents:
        right_e = Mat.hstack(f, [Mat.column(f, sc.multiply(u, e)) for u in units])
        basis = alg.column_space(f, [right_e])
        columns.append((scm.SCModule(sc, basis.cols, [solve_matrix(basis, a.mul(basis))
                                                      for a in reg.action]), basis))

    def corner_dim(ei, ej, gens):
        vecs = [v for v in (sc.multiply(sc.multiply(ei, g), ej) for g in gens) if any(v)]
        return rank(Mat.from_rows(f, vecs)) if vecs else 0

    class_of = list(range(len(sc.idempotents)))
    for i, ei in enumerate(sc.idempotents):
        for j, ej in enumerate(sc.idempotents[:i]):
            if corner_dim(ei, ej, units) > corner_dim(ei, ej, scm.radical_of(sc)):
                class_of[i] = class_of[j]
                break
    tops = [scm.quotient_sc(col, radical_submodule_sc(col))[0] for col, _ in columns]
    return columns, class_of, tops


def _m2(field, unit_last=False):
    """M_2(k), semisimple, with idempotents e11 and e22, in the basis e11,
    e12, e21 and e22, or e11 + e22 in place of e22 if ``unit_last``."""
    def coords(a, b, c, d):  # of [[a, b], [c, d]]
        return tuple(field.of_int(x) for x in ((a - d, b, c, d) if unit_last else (a, b, c, d)))

    mats = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1) if unit_last else (0, 0, 0, 1)]
    mult = [[coords(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
             for p, q, r, s in mats] for a, b, c, d in mats]
    return alg.SCAlgebra(field, mult, coords(1, 0, 0, 1), radical=[],
                         idempotents=[coords(1, 0, 0, 0), coords(0, 0, 0, 1)])


def _auslander_dual(field):
    # End(Lambda + S) for Lambda the dual numbers
    d = _dual(field)
    mods = [alg.projective_module(d, "1"), alg.simple_module(d, "1")]
    return endo.end_algebra(mods, cats.mod_cat(d)).sc


def _end_xbar(q):
    def make(field):
        k = alg.ground_field_algebra(field)
        xbar = repdim.build_xbar(q, k, [alg.AlgMod(k, {"1": 1}, {})])
        return repdim.end_xbar(xbar).sc
    return make


COLUMN_ALGEBRAS = {
    **SC_ALGEBRAS,
    "M2": _m2,
    "Auslander(dual)": _auslander_dual,
    "End(Xbar) Kronecker": _end_xbar(qv.kronecker()),
    "End(Xbar) D4 (1,0,1)": _end_xbar(qv.d4((1, 0, 1))),
}


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
@pytest.mark.parametrize("name", list(COLUMN_ALGEBRAS))
def test_column_data_equals_the_regular_module_construction(name, field):
    sc = COLUMN_ALGEBRAS[name](field)
    columns, class_of, tops = _reference_column_data(sc)
    cd = scm.ColumnData(sc)
    assert [col for col, _ in cd.columns] == [col for col, _ in columns]
    # Gamma*e_i is spanned by the unit vectors at its kept positions
    units = Mat.identity(sc.field, sc.dim)
    assert [basis for _, basis in columns] == [Mat.hstack(sc.field, [units.col(b) for b in pos])
                                               for _, pos in cd.columns]
    assert cd.class_of == class_of
    assert [cd.simple_top(i) for i in range(len(columns))] == tops


def test_a_column_keeps_its_positions_once():
    # columns[i] pairs Gamma*e_i with its positions in Gamma, the list that
    # _positions[i] holds, and no 0/1 inclusion matrix beside them
    cd = scm.ColumnData(_end_xbar(qv.kronecker())(QQ))
    assert all(pos is cd._positions[i] for i, (_, pos) in enumerate(cd.columns))


def test_basis_not_adapted_to_the_idempotents_is_not_split():
    assert scm.column_data(_m2(QQ)).class_of == [0, 0]
    with pytest.raises(NotSplit):
        scm.column_data(_m2(QQ, unit_last=True))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_submodule_from_columns_solves_nothing(field, monkeypatch):
    # restricted to a span, the actions are read off the pivot rows of the
    # span's RREF basis
    calls = []
    real_solve = exactlin.solve_matrix

    def counting(a, b):
        calls.append(b.cols)
        return real_solve(a, b)

    for make in SC_ALGEBRAS.values():
        sc = make(field)
        for m in _test_modules(sc, scm.column_data(sc)):
            cols = radical_submodule_sc(m)
            for mod in (exactlin, alg):  # alg binds the name only while it imports it
                monkeypatch.setattr(mod, "solve_matrix", counting, raising=False)
            calls.clear()
            sub, incl = restrict_sc(m, *alg._column_basis(field, [cols]))
            monkeypatch.undo()
            assert calls == []
            assert incl.mat == cols and sub.check()
            assert sub.action == [solve_matrix(cols, a.mul(cols)) for a in m.action]


def test_pd_sc_rejects_negative_cap():
    sc = sc_kA2()
    cd = scm.column_data(sc)
    for m in (cd.simple_top(0), scm.zero_sc_module(sc)):
        with pytest.raises(QuivhomError, match="cap"):
            scm.pd_sc(m, -1)
    with pytest.raises(QuivhomError, match="cap"):
        scm.gldim_sc(sc, -1)


# -- graded modules against the dense module code they replace --------------------------
#
# The references below are the dense forms of sum_sc, restrict_sc,
# radical_submodule_sc and hom_basis_sc, and of the cover, kernel and
# quotient they fed: every action a full matrix, every submodule read off
# [a_1 basis | ... | a_d basis].  The graded code must give the same
# matrices, entry for entry and in the same order.

def _dense_sum(sc, mods):
    f = sc.field
    return [Mat.block_diag(f, [m.action[i] for m in mods]) if mods else Mat.zeros(f, 0, 0)
            for i in range(sc.dim)]


def _dense_hom_basis(m, n):
    f = m.sc.field
    shapes = [(n.dim, m.dim)]
    rows = _commuting_rows(f, shapes, [(0, ma, 0, na) for ma, na in zip(m.action, n.action)])
    return [blocks[0] for blocks in _kernel_blocks(f, rows, shapes)]


def _dense_restrict(m, basis, units):
    f = m.sc.field
    x = alg._read_off_units(basis, units, Mat.hstack(f, [a.mul(basis) for a in m.action]))
    r, w = basis.cols, x.cols
    return [Mat(f, r, r, tuple(x.entries[i * w + t * r + c] for i in range(r) for c in range(r)))
            for t in range(len(m.action))]


def _dense_radical(m, rad):
    f = m.sc.field
    images = [m.act_vector(r) for r in rad]
    return alg.column_space(f, images) if images else Mat.zeros(f, m.dim, 0)


def _dense_cover(m, rad):
    """(pieces, pi) of the minimal cover, generators the pivot columns of e_i
    acting on M beyond JM, pi pushing each along its column's basis."""
    f, cd = m.sc.field, scm.column_data(m.sc)
    sub = _dense_radical(m, rad)
    pieces, gens = [], []
    if sub.cols < m.dim:
        for members in cd.classes.values():
            e_act = m.act_vector(cd.sc.idempotents[members[0]])
            chosen = alg._pivot_columns(f, sub, e_act)
            pieces += [members[0]] * len(chosen)
            gens += [e_act.col(j) for j in chosen]
    cols = [m.action[b].mul(g) for i, g in zip(pieces, gens) for b in cd._positions[i]]
    return pieces, Mat.hstack(f, cols) if cols else Mat.zeros(f, m.dim, 0)


def _assert_graded_is_dense(m, others, rad):
    """Sum, J*M, cover, kernel, quotient and hom bases of m, each against
    its dense reference."""
    f, sc = m.sc.field, m.sc
    assert list(scm.sum_sc(sc, [m, m]).action) == _dense_sum(sc, [m, m])
    jm = radical_submodule_sc(m)
    assert jm == _dense_radical(m, rad)
    pieces, total, pi = scm.column_cover_sc(m)
    assert (pieces, pi.mat) == _dense_cover(m, rad)
    assert list(total.action) == _dense_sum(sc, [scm.column_data(sc).columns[i][0] for i in pieces])
    k, incl = scm.kernel_of_sc(pi)
    basis, units = _null_space(pi.mat)
    assert incl.mat == basis and list(k.action) == _dense_restrict(total, basis, units)
    q, proj, sect = scm.quotient_sc(m, jm)
    dproj, dsect, _ = alg.quotient_by_rows(jm.transpose())
    assert (proj, sect) == (dproj, dsect)
    assert list(q.action) == [dproj.mul(a).mul(dsect) for a in m.action]
    sub, sub_incl = restrict_sc(m, *alg._column_basis(f, [jm]))
    assert list(sub.action) == _dense_restrict(m, *alg._column_basis(f, [jm]))
    for n in others:
        assert [h.mat for h in scm.hom_basis_sc(m, n)] == _dense_hom_basis(m, n)
        assert [h.mat for h in scm.hom_basis_sc(n, m)] == _dense_hom_basis(n, m)


def _a4_rad2(field):
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, 3)]
    return alg.build_bqa(field, qv.a_n(4), rels, 2)


def test_graded_sums_over_t2_a4_rad2_are_the_dense_ones():
    # seeded sums of simple triples, projectives and their syzygies over
    # T2(A4/rad2) over GF(101); J*M against the trace-form radical, the
    # characteristic-p oracle for p > dim T = 21
    spec = tm.t2_spec(_a4_rad2(GF(101)))
    t, cd = spec.t, scm.column_data(spec.t)
    rad = alg.radical_sc(t)
    pool = [cd.simple_top(i) for i in range(len(cd.columns))] + [col for col, _ in cd.columns]
    pool += [scm.kernel_of_sc(scm.projective_cover_sc(s)[1])[0] for s in pool[:4]]
    rng = random.Random(7)
    sums = [scm.sum_sc(t, [rng.choice(pool) for _ in range(rng.randint(2, 3))]) for _ in range(6)]
    # a sum interleaves its summands' grades, so hom unknowns are reordered
    assert any(list(m.grade) != sorted(m.grade) for m in sums)
    for m in sums:
        assert len(m.coords) == len(t.idempotents)
        _assert_graded_is_dense(m, rng.sample(pool, 2) + sums, rad)


def test_graded_end_xbar_hom_modules_are_the_dense_ones():
    # the Hom modules of the Kronecker report over QQ, graded by the
    # idempotents of their corners of End(X-bar)
    mods = _connecting_block_modules()[:2]
    for m in mods:
        corner = m.sc
        assert len(m.coords) == len(corner.idempotents)
        cd = scm.column_data(corner)
        tops = [cd.simple_top(members[0]) for members in cd.classes.values()]
        _assert_graded_is_dense(m, tops[:2], alg.radical_sc(corner))


def _in_mixed_basis(m):
    """m in the basis g = I + (ones above the diagonal), which mixes grades."""
    f, n = m.sc.field, m.dim
    g = Mat.from_rows(f, [[1 if j >= i else 0 for j in range(n)] for i in range(n)])
    ginv = exactlin.inverse(g)
    return scm.SCModule(m.sc, n, [g.mul(a).mul(ginv) for a in m.action])


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_one_grade_modules_run_the_same_code(field):
    # the regular module (and its radical) in a basis that mixes grades has
    # one grade: the same code computes on full blocks, agrees with the
    # dense references, and keeps pd and hom dimensions
    sc = alg.sc_of_bqa(_a3_rad2(field))
    reg = scm.regular_module(sc)
    rad = restrict_sc(reg, *alg._column_basis(field, [radical_submodule_sc(reg)]))[0]
    cd = scm.column_data(sc)
    tops = [cd.simple_top(i) for i in range(len(cd.columns))]
    for m in (reg, rad):
        mixed = _in_mixed_basis(m)
        assert (len(m.coords), len(mixed.coords)) == (3, 1)
        assert mixed.check() and scm.pd_sc(mixed) == scm.pd_sc(m)
        for n in tops + [reg]:
            assert len(scm.hom_basis_sc(n, mixed)) == len(scm.hom_basis_sc(n, m))
            assert len(scm.hom_basis_sc(mixed, n)) == len(scm.hom_basis_sc(m, n))
        _assert_graded_is_dense(mixed, tops, scm.radical_of(sc))
        # a graded and a one-grade module meet with one grade each
        total = scm.sum_sc(sc, [m, mixed])
        assert len(total.coords) == 1 and list(total.action) == _dense_sum(sc, [m, mixed])


# -- maps of the wrong shape ----------------------------------------------------------------

def test_maps_of_the_wrong_shape_are_refused():
    # the grade blocks are cut by the ends' coordinates when first read, so
    # a matrix that is too small must be refused before any cut, and one
    # that is too large must not be cut down to a module map when its extra
    # entries are zero
    sc = sc_kA2()
    reg = scm.regular_module(sc)
    assert reg.dim == 3
    for bad in (Mat.identity(QQ, 2), Mat.vstack(QQ, [Mat.identity(QQ, 3), Mat.zeros(QQ, 1, 3)])):
        with pytest.raises(DimensionMismatch):
            scm.SCMap(reg, reg, bad)
    assert scm.SCMap(reg, reg, Mat.identity(QQ, 3)).is_valid()


def _wrong_maps():
    """(error, thunk) per way to build a map wrongly between modules of kA2."""
    sc = sc_kA2()
    reg = scm.regular_module(sc)
    twin = scm.regular_module(alg.SCAlgebra(sc.field, sc.mult, sc.unit, sc.idempotents,
                                            sc.known_radical))
    return {"rows, no Mat": (DimensionMismatch, lambda: scm.SCMap(reg, reg, Mat.identity(QQ, 3).row_list())),
            "into another algebra": (AlgebraMismatch, lambda: scm.SCMap(reg, twin, Mat.identity(QQ, 3))),
            "from another algebra": (AlgebraMismatch, lambda: scm.SCMap(twin, reg, Mat.identity(QQ, 3))),
            "over GF(5)": (DimensionMismatch, lambda: scm.SCMap(reg, reg, Mat.identity(GF(5), 3)))}


@pytest.mark.parametrize("name", list(_wrong_maps()))
def test_maps_are_checked_where_they_are_built(name):
    # a map needs a Mat over the ends' field, and ends over one algebra:
    # before, a list failed later with a bare AttributeError, ends over two
    # algebras passed is_valid, and a matrix over GF(5) got a kernel
    error, build = _wrong_maps()[name]
    with pytest.raises(error):
        build()


def test_a_map_keeps_its_grade_blocks():
    # a map built from a full matrix is cut into its grades, keeps the
    # matrix, and is no module map when an entry lies between two grades;
    # ends of different gradings meet with one grade, the matrix one block
    sc = sc_kA2()
    reg = scm.regular_module(sc)
    ident = scm.SCMap(reg, reg, Mat.identity(QQ, 3))
    assert [b.rows for b in ident.blocks] == [len(cs) for cs in reg.coords]
    assert len(reg.coords) == 2 and ident.is_valid()
    mixed = Mat.from_rows(QQ, [[1 if (r, c) == (reg.coords[0][0], reg.coords[1][0]) else 0
                                for c in range(3)] for r in range(3)])
    cross = scm.SCMap(reg, reg, mixed)
    assert cross.blocks is None and not cross.is_valid() and cross.mat is mixed
    with pytest.raises(QuivhomError, match="different grades"):
        scm.kernel_of_sc(cross)
    flat = _in_mixed_basis(reg)
    to_flat = scm.SCMap(reg, flat, Mat.identity(QQ, 3))
    assert len(flat.coords) == 1 and to_flat.blocks == [to_flat.mat]
    placed = scm.SCMap._of_blocks(reg, reg, ident.blocks)
    assert placed.mat == ident.mat and placed == ident


def _counting_cuts(monkeypatch):
    """The rows of every ``scmodule._take`` call from now on."""
    cuts, real = [], scm._take
    monkeypatch.setattr(scm, "_take", lambda m, rows, cols: cuts.append(rows) or real(m, rows, cols))
    return cuts


def test_a_map_cuts_its_grade_blocks_once_when_first_read(monkeypatch):
    # SCMap(source, target, mat) keeps the matrix it is given and cuts
    # nothing where it is built; the blocks are cut once, on first read
    reg = scm.regular_module(sc_kA2())
    cuts = _counting_cuts(monkeypatch)
    f = scm.SCMap(reg, reg, Mat.identity(QQ, 3))
    assert cuts == []
    blocks = f.blocks
    assert len(cuts) == len(reg.coords) == 2
    assert f.blocks is blocks and len(cuts) == 2


def test_a_triple_hom_basis_cuts_no_grade_block(monkeypatch):
    # hom_basis_sc builds its maps from matrices and triple_cat reads them
    # back as u and w, so no grade block of a basis map is cut
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))

    def triple(a, b, phi):
        return tm.TripleModule(spec, scm.SCModule(spec.r, a, [Mat.identity(QQ, a)]),
                               scm.SCModule(spec.s, b, [Mat.identity(QQ, b)]), Mat(QQ, b, a, phi))

    x, y = triple(2, 1, (1, 2)), triple(1, 2, (1, -1))
    assert len(x.coords) == len(y.coords) == 2
    cuts = _counting_cuts(monkeypatch)
    basis = cats.triple_cat(spec).hom_basis(x, y)
    assert basis and cuts == []


def test_a_non_unital_action_is_refused():
    # over k the action [0] makes no unital module; a module with one grade
    # is checked at the constructor, a Peirce-graded one sums its
    # idempotents to the identity by its grading
    k = alg.SCAlgebra(QQ, [[(1,)]], (1,))
    with pytest.raises(QuivhomError, match="unit"):
        scm.SCModule(k, 1, [Mat(QQ, 1, 1, (0,))])
    assert scm.SCModule(k, 1, [Mat.identity(QQ, 1)]).check()
    with pytest.raises(QuivhomError, match="unit"):
        scm.SCModule(sc_kA2(), 1, [Mat.zeros(QQ, 1, 1)] * 3)


# -- quotients by spans that are no submodules -------------------------------------------

def test_quotient_by_a_span_that_is_no_submodule_is_refused():
    # over kA2 the arrow moves e_1 out of its span in the regular module:
    # before the check, sc_cat's quotient returned a projection that is no
    # module map
    sc = sc_kA2()
    reg = scm.regular_module(sc)
    e1 = Mat.column(QQ, sc.idempotents[0])
    with pytest.raises(QuivhomError, match="not a submodule"):
        cats.sc_cat(sc).quotient(reg, {"*": e1})
    # e_1 + e_2 spans no sum of grades
    with pytest.raises(QuivhomError, match="not the sum of its grades"):
        scm.quotient_sc(reg, Mat.column(QQ, sc.unit))
    q, proj = cats.sc_cat(sc).quotient(reg, {"*": radical_submodule_sc(reg)})
    assert proj.is_valid() and q.check()


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
@pytest.mark.parametrize("name", list(SC_ALGEBRAS))
def test_quotient_by_a_zero_span_is_the_module_itself(name, field):
    # M / 0 is answered directly: M with the identity as projection and
    # section, the dense quotient by the zero span entry for entry
    sc = SC_ALGEBRAS[name](field)
    for m in _test_modules(sc, scm.column_data(sc)):
        for width in (0, 2):
            zero = Mat.zeros(field, m.dim, width)
            q, proj, sect = scm.quotient_sc(m, zero)
            dproj, dsect, _ = alg.quotient_by_rows(zero.transpose())
            assert q is m and (proj, sect) == (dproj, dsect)
            assert list(q.action) == [dproj.mul(a).mul(dsect) for a in m.action]


WRONG_SPANS = {"height 4": lambda: Mat.identity(QQ, 4), "zero of height 2": lambda: Mat.zeros(QQ, 2, 1),
               "zero of height 4": lambda: Mat.zeros(QQ, 4, 2),
               "zero over GF(5)": lambda: Mat.zeros(GF(5), 3, 1),
               "over GF(5)": lambda: Mat.identity(GF(5), 3)}


@pytest.mark.parametrize("name", list(WRONG_SPANS))
def test_quotient_by_a_span_of_the_wrong_shape_or_field_is_refused(name):
    # the regular module of kA2 has dimension 3: a span of another height
    # is no span in it, zero or not (before, the identity of size 4 gave the
    # zero module and a zero span of height 2 or 4 gave M), and a span over
    # another field is refused, zero or not
    with pytest.raises(DimensionMismatch):
        scm.quotient_sc(scm.regular_module(sc_kA2()), WRONG_SPANS[name]())


def test_quotient_of_a_triple_by_a_span_that_is_no_subtriple_is_refused():
    # (k, k)_id over T2(k): x + y mixes the grades X and Y, and y alone is
    # stable but x alone is not (phi carries it onto y)
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))
    x = scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])
    y = scm.SCModule(spec.s, 1, [Mat.identity(QQ, 1)])
    t = tm.TripleModule(spec, x, y, Mat.identity(QQ, 1))
    with pytest.raises(QuivhomError, match="not the sum of its grades"):
        scm.quotient_sc(t, Mat.column(QQ, [1, 1]))
    cat = cats.triple_cat(spec)
    with pytest.raises(QuivhomError, match="not action-stable"):
        cat.quotient(t, {"x": Mat.identity(QQ, 1), "y": Mat.zeros(QQ, 1, 0)})
    q, proj = cat.quotient(t, {"x": Mat.zeros(QQ, 1, 0), "y": Mat.identity(QQ, 1)})
    assert proj.is_valid() and q.check() and (q.x.dim, q.y.dim) == (1, 0)


def test_a_repeated_cover_sums_its_columns_once(monkeypatch):
    # P, the sum of the column projectives of a cover, is kept per list of
    # pieces on the algebra's ColumnData: a repeated cover does not rebuild it
    a = alg.path_algebra(QQ, qv.a_n(3))
    sc = alg.sc_of_bqa(a)
    cd = scm.column_data(sc)
    sums, sum_sc = [], scm.sum_sc

    def counting(over, mods):
        mods = list(mods)
        sums.append(len(mods))
        return sum_sc(over, mods)

    monkeypatch.setattr(scm, "sum_sc", counting)

    def module():
        return scm.sc_module_of_algmod(alg.sum_mods(a, [alg.projective_module(a, "1"),
                                                        alg.simple_module(a, "3")]), sc)

    covers = [scm.column_cover_sc(m) for m in (module(), module(), module())]
    pieces, total, _ = covers[0]
    assert len(pieces) == 2 and sums == [2]
    assert all(c[0] == pieces and c[1] is total for c in covers)
    assert list(total.action) == list(sum_sc(sc, [cd.columns[i][0] for i in pieces]).action)


def test_modules_over_different_algebras_are_refused():
    a = alg.path_algebra(QQ, qv.a_n(2))
    p1 = alg.projective_module(a, "1")
    x, y = scm.sc_module_of_algmod(p1), scm.sc_module_of_algmod(p1)
    # the structure-constant view is kept once per algebra, so flattening
    # one module twice gives two equal modules over it
    assert x.sc is y.sc is alg.sc_of_bqa(a) and x == y
    assert len(scm.hom_basis_sc(x, y)) == 1 and scm.sum_sc(x.sc, [x, y]).dim == 4
    sc = x.sc
    other = alg.SCAlgebra(sc.field, sc.mult, sc.unit, sc.idempotents, sc.known_radical)
    z = scm.sc_module_of_algmod(p1, other)
    assert z != x
    for call in (lambda: scm.hom_basis_sc(x, z), lambda: scm.hom_basis_sc(z, x),
                 lambda: scm.sum_sc(sc, [x, z]), lambda: scm.sum_sc(other, [x])):
        with pytest.raises(AlgebraMismatch):
            call()


def test_sc_map_validity_skips_only_equations_with_no_entries():
    # M = k at 2 and 3 of kA4, zero at 1 and 4, flattened: the basis
    # elements at the grades of 1 and 4 give equations with no entries
    a = alg.path_algebra(QQ, qv.a_n(4))
    m = scm.sc_module_of_algmod(
        alg.AlgMod(a, {"2": 1, "3": 1}, {"a2": Mat.from_rows(QQ, [[1]])}))
    assert m.dim == 2
    for c2, c3, want in [(1, 1, True), (3, 3, True), (1, 2, False), (0, 1, False)]:
        g = scm.SCMap(m, m, Mat.from_rows(QQ, [[c2, 0], [0, c3]]))
        every = all(g.mat.mul(act) == act.mul(g.mat) for act in m.action)
        assert g.is_valid() == every == want, (c2, c3)


# -- simple tops and gl.dim against the per-simple constructions they replace ----------
#
# A simple top is read off the Peirce blocks, and gl.dim is one resolution
# of the top Gamma/J.  The references: the quotient of the column by the
# radical submodule, and the largest pd of the simple tops, each resolved on
# its own.

def _k3():
    return qv.make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])


def _a3_middle_sink():
    return qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])


REPORT_QUIVERS = {"Kronecker": qv.kronecker, "k3": _k3, "A2": lambda: qv.a_n(2),
                  "A3 middle sink": _a3_middle_sink,
                  **{f"D4{bits}": (lambda bits=bits: qv.d4(bits)) for bits, _ in qv.d4_orientations()}}


def _report_algebras(q, field=QQ):
    """The algebras whose gl.dim the report over q with A = k computes:
    E = End(X-bar), Sigma and End(X2)."""
    k = alg.ground_field_algebra(field)
    xbar = repdim.build_xbar(q, k, [alg.AlgMod(k, {"1": 1}, {})])
    n1, n2 = len(xbar.x1), len(xbar.x2)
    i1, i2 = range(n1), range(n1, n1 + n2)
    e = repdim.end_xbar(xbar)
    return {"E": e.sc, "Sigma": e.triangular(i1, i2).sc, "End(X2)": e.corner(i2).sc}


def _kronecker_end_with_duplicate(field):
    # End(X-bar + X_1) over the Kronecker quiver: X_1 and its copy form a class of two
    k, q = alg.ground_field_algebra(field), qv.kronecker()
    summands = repdim.build_xbar(q, k, [alg.AlgMod(k, {"1": 1}, {})]).all_summands()
    return endo.end_algebra(summands + [summands[1]], cats.rep_cat(q, k)).sc


def _nakayama(field, n, length):
    """The cyclic quiver on n vertices with every path of the given length zero."""
    arrows = [(f"c{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    q = qv.make_quiver([str(i) for i in range(1, n + 1)], arrows, require_acyclic=False)
    rels = [[(1, qv.Path(str(i), str((i - 1 + length) % n + 1),
                         tuple(f"c{(i - 1 + t) % n + 1}" for t in range(length))))]
            for i in range(1, n + 1)]
    return alg.build_bqa(field, q, rels, length)


def _linear_rad2(field, n):
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, n - 1)]
    return alg.build_bqa(field, qv.a_n(n), rels, 2)


TOP_ALGEBRAS = {
    **{f"{part} {name}": (lambda name=name, part=part: _report_algebras(REPORT_QUIVERS[name]())[part])
       for name in REPORT_QUIVERS for part in ("E", "Sigma", "End(X2)")},
    "E Kronecker + X_1": lambda: _kronecker_end_with_duplicate(QQ),
    "E Kronecker + X_1 over GF(3)": lambda: _kronecker_end_with_duplicate(GF(3)),
    "E Kronecker over GF(2)": lambda: _report_algebras(qv.kronecker(), GF(2))["E"],
    "E k3 over GF(3)": lambda: _report_algebras(_k3(), GF(3))["E"],
    "E D4(1, 0, 1) over GF(2)": lambda: _report_algebras(qv.d4((1, 0, 1)), GF(2))["E"],
    "End(P1+P2+P1) over GF(2)": lambda: _end_with_duplicate(GF(2)),
    "Auslander(dual) over GF(3)": lambda: _auslander_dual(GF(3)),
    "M2": lambda: _m2(QQ),
    "N(4,3)": lambda: alg.sc_of_bqa(_nakayama(GF(101), 4, 3)),
    "N(5,4)": lambda: alg.sc_of_bqa(_nakayama(QQ, 5, 4)),
    "N(3,2) over GF(2)": lambda: alg.sc_of_bqa(_nakayama(GF(2), 3, 2)),
    "A8/rad2": lambda: alg.sc_of_bqa(_linear_rad2(GF(101), 8)),
    "dual": lambda: alg.sc_of_bqa(_dual(QQ)),
    "T2(A4/rad2)": lambda: tm.t2_spec(_a4_rad2(GF(101))).t,
    "T2(k)": lambda: tm.t2_spec(alg.ground_field_algebra(QQ)).t,
    "T2(dual)": lambda: tm.t2_spec(_dual(QQ)).t,
}


def _typed(m):
    """m's grading and blocks, with the type of every entry."""
    return (m.grade, m.at, [(b.rows, b.cols, b.entries, tuple(map(type, b.entries)))
                            for b in m.blocks])


@pytest.mark.parametrize("name", list(TOP_ALGEBRAS))
def test_simple_tops_are_the_quotients_by_the_radical_submodule(name):
    sc = TOP_ALGEBRAS[name]()
    cd = scm.column_data(sc)
    for i, (col, _) in enumerate(cd.columns):
        top = cd.simple_top(i)
        ref = scm.quotient_sc(col, radical_submodule_sc(col))[0]
        assert top.at is ref.at and _typed(top) == _typed(ref), i
        assert top.dim == len(cd.classes[cd.class_of[i]]) and top.check()


def test_the_reference_algebras_have_classes_of_two():
    # the tops of a class of two have two grades, one scalar per basis
    # element between them
    for name in ("E Kronecker + X_1", "E Kronecker + X_1 over GF(3)", "End(P1+P2+P1) over GF(2)", "M2"):
        cd = scm.column_data(TOP_ALGEBRAS[name]())
        assert max(map(len, cd.classes.values())) == 2, name


@pytest.mark.parametrize("name", list(TOP_ALGEBRAS))
def test_gldim_sc_is_the_largest_pd_of_a_simple_top(name):
    # the minimal resolution of the top is the sum of those of its simples,
    # so the values agree finite and capped
    sc = TOP_ALGEBRAS[name]()
    cd = scm.column_data(sc)
    tops = [cd.simple_top(members[0]) for members in cd.classes.values()]
    for cap in (0, 1, 2, 3, 8, 20):
        assert scm.gldim_sc(sc, cap) == dim_max(scm.pd_sc(top, cap) for top in tops), cap


def test_gldim_sc_reaches_its_cap_on_the_reference_algebras():
    got = {name: scm.gldim_sc(TOP_ALGEBRAS[name](), 3)
           for name in ("N(4,3)", "N(5,4)", "dual", "A8/rad2", "T2(A4/rad2)", "E Kronecker")}
    assert got == {"N(4,3)": Dim.at_least(3), "N(5,4)": Dim.at_least(3), "dual": Dim.at_least(3),
                   "A8/rad2": Dim.at_least(3), "T2(A4/rad2)": Dim.at_least(3),
                   "E Kronecker": Dim.finite(3)}


CARTAN_ALGEBRAS = [f"{part} {name}" for name in REPORT_QUIVERS
                   for part in ("E", "Sigma", "End(X2)")] + ["T2(A4/rad2)", "A8/rad2"]


@pytest.mark.parametrize("name", CARTAN_ALGEBRAS)
def test_the_top_resolution_satisfies_the_cartan_identity(name):
    # over an algebra of finite gl.dim, sum_i (-1)^i [P_i] = [Gamma/J] in the
    # Grothendieck group: with C the Cartan matrix (C[j][i] = dim e_j Gamma
    # e_i, read off the Peirce blocks), C times the alternating sum of the
    # piece counts of the P_i is dim e_j (Gamma/J) = 1 at every idempotent
    sc = TOP_ALGEBRAS[name]()
    cd = scm.column_data(sc)
    n = len(sc.idempotents)
    cartan = [[0] * n for _ in range(n)]
    for j, i in scm._gradings(sc)[0]:
        cartan[j][i] += 1
    top = scm.sum_sc(sc, [cd.simple_top(members[0]) for members in cd.classes.values()])
    pieces = []

    def cover(m):
        got, p, pi = scm.column_cover_sc(m)
        pieces.append(got)
        return p, pi

    steps = syzygy_steps(top, [], 21, cover, scm.kernel_of_sc)
    assert steps[-1][2].is_zero() and len(pieces) == len(steps)
    assert scm.gldim_sc(sc) == Dim.finite(len(steps) - 1)
    euler = [0] * n
    for t, got in enumerate(pieces):
        for i in got:
            euler[i] += (-1) ** t
    assert [sum(c * x for c, x in zip(row, euler)) for row in cartan] == [1] * n


def test_radical_of_computes_the_trace_form_radical_once_per_algebra(monkeypatch):
    # a table built without a radical: covers, classes and tops all read it,
    # and radical_of computes it once and keeps it on the algebra
    known = alg.sc_of_bqa(_a3_rad2(QQ))
    bare = alg.SCAlgebra(known.field, known.mult, known.unit, idempotents=known.idempotents)
    want = scm.gldim_sc(known)
    calls, real = [], scm.radical_sc

    def counting(sc):
        calls.append(sc)
        return real(sc)

    monkeypatch.setattr(scm, "radical_sc", counting)
    assert scm.gldim_sc(bare) == want == Dim.finite(2)
    assert scm.is_projective_sc(scm.regular_module(bare))
    assert calls == [bare]
    assert scm.radical_of(bare) == list(real(bare))
    assert len(calls) == 1 and scm.radical_of(known) == list(known.known_radical)


def test_a_radical_that_is_no_left_ideal_is_refused_by_the_top():
    # kA3 given span(a1, a2) as its radical, without the path a1*a2: a2 moves
    # a1 in J e_1 out of it, so the top of Gamma*e_1 is no quotient module
    a = alg.path_algebra(QQ, qv.a_n(3))
    sc = alg.sc_of_bqa(a)
    rad = [tuple(int(str(p) == name) for p in a.basis) for name in ("a1", "a2")]
    bad = alg.SCAlgebra(QQ, sc.mult, sc.unit, idempotents=sc.idempotents, radical=rad)
    cd = scm.column_data(bad)
    first = next(i for i, (col, _) in enumerate(cd.columns) if col.dim == 3)
    with pytest.raises(QuivhomError, match="not action-stable"):
        cd.simple_top(first)


# -- syzygy steps place only what they read --------------------------------------------
#
# A cover's pi and a kernel's inclusion are kept as their grade blocks, and
# a sum's blocks are placed when first read.  The references: pi as the
# columns a_b*u of the full actions, the inclusion as the null space of the
# full pi, and the placement of the kept blocks by ``_reference_join``, the
# full matrices as the steps placed them before maps kept their blocks.

def _reference_join(m, of, blocks):
    """The matrix whose column t is the next column of blocks[of[t]],
    placed at the rows of its grade in m."""
    f, w = m.sc.field, len(of)
    ent, nxt = [f.zero()] * (m.dim * w), [0] * len(blocks)
    for t, g in enumerate(of):
        blk, q = blocks[g], nxt[g]
        nxt[g] += 1
        for p, r in enumerate(m.coords[g]):
            ent[r * w + t] = blk.entries[p * blk.cols + q]
    return Mat(f, m.dim, w, tuple(ent))


def _t2_a4_pool():
    spec = tm.t2_spec(_a4_rad2(GF(101)))
    pool = [t for _, _, t in tm.simple_triples(spec)]
    pool += [tm.e1_lambda(spec, col) for col, _ in spec.coldata_r().columns]
    pool += [tm.e2_lambda(spec, col) for col, _ in spec.coldata_s().columns]
    return pool + [tm.triple_sum(spec, pool[::3]), tm.triple_sum(spec, pool[1::2])]


STEP_CASES = {
    **{f"gldim E {name}": (lambda name=name: [_report_algebras(REPORT_QUIVERS[name]())["E"]], scm.gldim_sc)
       for name in REPORT_QUIVERS},
    "pd t2_a4 pool": (_t2_a4_pool, lambda t: tm.triple_pd(t, 12)),
}


@pytest.mark.parametrize("name", list(STEP_CASES))
def test_syzygy_steps_place_no_full_matrix(name, monkeypatch):
    make, run = STEP_CASES[name]
    inputs = make()
    covers, steps, joins = [], [], []
    real_map, real_steps, real_join = scm._map_from_columns, scm.syzygy_steps, scm._join

    def recording(m, pieces, gens):
        got = real_map(m, pieces, gens)
        covers.append((m, list(pieces), list(gens), got[1]))
        return got

    def keeping(m, held, n, cover, kernel):
        steps.append(real_steps(m, held, n, cover, kernel))
        return steps[-1]

    def counting(*args):
        joins.append(args)
        return real_join(*args)

    monkeypatch.setattr(scm, "_map_from_columns", recording)
    monkeypatch.setattr(scm, "syzygy_steps", keeping)
    monkeypatch.setattr(scm, "_join", counting)
    for x in inputs:
        run(x)
    assert covers and steps and joins == []
    monkeypatch.undo()
    for m, pieces, gens, pi in covers:
        f, cd = m.sc.field, scm.column_data(m.sc)
        assert pi.mat == Mat.hstack(f, [m.action[b].col(c) for i, c in zip(pieces, gens)
                                        for b in cd._positions[i]])
    for held in steps:
        for _, pi, _, incl in held:
            assert incl.mat == _null_space(pi.mat)[0]
            for g in (pi, incl):
                placed = g.blocks[0] if len(g.blocks) == 1 else \
                    _reference_join(g.target, g.source.grade, g.blocks)
                assert g.mat == placed and g.is_valid()


def test_a_cover_with_zero_kernel_places_no_block_of_its_sum():
    # the projective P1 + P3 of kA3: its cover is an isomorphism, so neither
    # the cover nor the kernel, nor is_projective_sc, reads a block of P;
    # the blocks read later are placed once and kept
    a = alg.path_algebra(QQ, qv.a_n(3))
    sc = alg.sc_of_bqa(a)
    m = scm.sc_module_of_algmod(alg.sum_mods(a, [alg.projective_module(a, "1"),
                                                 alg.projective_module(a, "3")]), sc)
    p, pi = scm.projective_cover_sc(m)
    k, _ = scm.kernel_of_sc(pi)
    assert k.is_zero() and scm.is_projective_sc(m) and p.dim == m.dim
    assert p.blocks.placed == [None] * sc.dim
    first = list(p.blocks)
    assert all(x is y for x, y in zip(first, p.blocks))
    assert list(p.action) == _dense_sum(sc, [scm.column_data(sc).columns[i][0]
                                             for i in scm.column_cover_sc(m)[0]])
