import random

import pytest

from quivhom import algebra as alg
from quivhom import quiver as qv
from quivhom import scmodule as scm
from quivhom.bounds import Dim
from quivhom.errors import NotSplit
from quivhom.exactlin import QQ, Mat


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
    cd = scm.ColumnData(sc)
    # simple top of P_1 has pd 1, of P_2 pd 0
    tops = {cd.columns[i][0].dim: scm.pd_sc(cd.simple_top(i), 10, cd) for i in cd.classes}
    assert tops[2] == Dim.finite(1)
    assert tops[1] == Dim.finite(0)


def test_projectivity_split_test():
    sc = sc_kA2()
    cd = scm.ColumnData(sc)
    reg = scm.regular_module(sc)
    assert scm.is_projective_sc(reg, cd)
    s = cd.simple_top(0) if cd.columns[0][0].dim == 2 else cd.simple_top(1)
    # the 2-dim column has a 1-dim non-projective top
    two_idx = 0 if cd.columns[0][0].dim == 2 else 1
    top = cd.simple_top(two_idx)
    assert not scm.is_projective_sc(top, cd)


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
    sc = alg.SCAlgebra(f, mult, unit_vec, idempotents=[unit(0), unit(3)], check=True)
    cd = scm.ColumnData(sc)
    assert len(cd.classes) == 1
    assert scm.gldim_sc(sc) == Dim.finite(0)
    # the 2-dim simple is projective and its cover is a single column
    simple = cd.simple_top(0)
    assert simple.dim == 2
    p, pi = scm.projective_cover_sc(simple, cd)
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
            proj, sect = scm.top_projection(col)
            fresh = scm.SCModule(sc, proj.rows, [proj.mul(a).mul(sect) for a in col.action])
            assert top == fresh and top.dim == 1
