import random

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import endo
from quivhom import exactlin
from quivhom import quiver as qv
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom.bounds import Dim
from quivhom.errors import NotSplit, QuivhomError
from quivhom.exactlin import GF, QQ, Mat, rank, solve_matrix


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
            fresh, _, _ = scm.quotient_sc(col, scm.radical_submodule_sc(col))
            assert top == fresh and top.dim == 1


# -- cover generators against the greedy orbit search they replace -----------------

def _greedy_cover_generators(m, cd):
    """Reference: per class, the first columns of e_i acting on M whose images
    in M/JM leave the span of the Gamma-orbits of the generators chosen so
    far, as many as the class occurs in the top."""
    f = m.sc.field
    proj, _, _ = alg.quotient_by_rows(scm.radical_submodule_sc(m).transpose())
    if proj.rows == 0:
        return [], []
    reached = Mat.zeros(f, 0, proj.rows)
    pieces, gens = [], []
    for members in cd.classes.values():
        i0 = members[0]
        e_act = m.act_vector(cd.idem_mats[i0])
        cls_top = sum(rank(proj.mul(m.act_vector(cd.idem_mats[i]))) for i in members)
        cand = proj.mul(e_act)
        for _ in range(cls_top // cd.simple_top(i0).dim):
            j = next(j for j in range(cand.cols) if not cand.col(j).is_zero()
                     and (reached.rows == 0 or solve_matrix(reached.transpose(), cand.col(j)) is None))
            pieces.append(i0)
            gens.append(e_act.col(j))
            rows = reached.row_list() + [proj.mul(a).mul(e_act.col(j)).column_vector()
                                         for a in m.action]
            reached = alg.row_space(f, rows)
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
    rad, _ = scm.submodule_from_columns(reg, scm.radical_submodule_sc(reg))
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
        pieces, gens = scm._cover_generators(m, scm.radical_submodule_sc(m))
        assert (pieces, gens) == _greedy_cover_generators(m, cd)
        p, pi = scm.projective_cover_sc(m)
        assert pi.is_valid() and rank(pi.mat) == m.dim
        k, incl = scm.kernel_of_sc(pi)
        rad_p = scm.radical_submodule_sc(p)
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
        lam2 = [n1 + j for j, l in enumerate(xbar.labels2) if l[0] == "lambda"]
        rho2 = [n1 + j for j, l in enumerate(xbar.labels2) if l[0] == "rho"]
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
    subs = [scm.radical_submodule_sc(m) for m in mods]
    acts = []
    real_act = scm.SCModule.act_vector

    def counting(self, coeffs):
        acts.append(coeffs)
        return real_act(self, coeffs)

    def refuse(*args):
        raise AssertionError("cover generators solved a linear system")

    monkeypatch.setattr(scm.SCModule, "act_vector", counting)
    for mod in (exactlin, alg):
        monkeypatch.setattr(mod, "solve_matrix", refuse)
    for m, sub in zip(mods, subs):
        acts.clear()
        scm._cover_generators(m, sub)
        assert len(acts) == (len(cd.classes) if sub.cols < m.dim else 0)


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
    Returns (columns with inclusions, class_of, simple tops)."""
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
    tops = [scm.quotient_sc(col, scm.radical_submodule_sc(col))[0] for col, _ in columns]
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
    assert cd.columns == columns
    assert cd.class_of == class_of
    assert [cd.simple_top(i) for i in range(len(columns))] == tops


def test_basis_not_adapted_to_the_idempotents_is_not_split():
    assert scm.column_data(_m2(QQ)).class_of == [0, 0]
    with pytest.raises(NotSplit):
        scm.column_data(_m2(QQ, unit_last=True))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_submodule_from_columns_solves_nothing(field, monkeypatch):
    # the actions are read off the pivot rows of the span's RREF basis
    calls = []
    real_solve = exactlin.solve_matrix

    def counting(a, b):
        calls.append(b.cols)
        return real_solve(a, b)

    for make in SC_ALGEBRAS.values():
        sc = make(field)
        for m in _test_modules(sc, scm.column_data(sc)):
            cols = scm.radical_submodule_sc(m)
            for mod in (exactlin, alg):
                monkeypatch.setattr(mod, "solve_matrix", counting)
            calls.clear()
            sub, incl = scm.submodule_from_columns(m, cols)
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
