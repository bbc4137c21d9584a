import itertools
import random
import sys
import threading

import pytest

from quivhom import algebra as alg
from quivhom import exactlin
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.bounds import Dim, dim_max, syzygy_steps
from quivhom.errors import (
    AlgebraMismatch,
    CharPNotSupported,
    CompositionInconsistent,
    DimensionMismatch,
    NotAdmissible,
    NotAPath,
    QuivhomError,
    RelationNotParallel,
    UnknownVertex,
)
from quivhom.exactlin import GF, QQ, Mat, rank, rref, solve_matrix


def kA2():
    return alg.path_algebra(QQ, qv.a_n(2), name="kA2")


def kA3():
    return alg.path_algebra(QQ, qv.a_n(3), name="kA3")


def dual_numbers(field=QQ):
    """k[x]/(x^2) as a one-loop bound quiver algebra."""
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(field, loop, [[(1, x)]], 2, name="k[x]/(x^2)")


def test_build_kA2_dimension():
    a = kA2()
    assert a.dim == 3
    assert sorted(str(p) for p in a.basis) == ["a1", "e_1", "e_2"]


def test_build_dual_numbers():
    a = dual_numbers()
    assert a.dim == 2
    assert not a.is_semisimple()


def test_build_kd4_dimension():
    a = alg.path_algebra(QQ, qv.d4((0, 0, 0)))
    assert a.dim == 7  # 4 trivial + 3 arrows


def test_not_admissible():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    with pytest.raises(NotAdmissible):
        alg.build_bqa(QQ, loop, [], 3)  # no relations: x^3 survives


def test_relation_not_parallel():
    q = qv.a_n(3)
    p12 = qv.paths_between(q, "1", "2")[0]
    with pytest.raises(RelationNotParallel):
        alg.build_bqa(QQ, q, [[(1, p12)]], 3)


# a relation term that is no path of A3, or a coefficient or bound that is no
# scalar or int, is refused by name, not by a KeyError, a TypeError or a
# NotAdmissible about another path
@pytest.mark.parametrize("path", [qv.Path("1", "3", ("zz", "a2")),  # unknown arrow
                                  qv.Path("1", "3", ("a2", "a1")),  # arrows that do not chain
                                  qv.Path("2", "3", ("a1", "a2"))],  # ends that disagree
                         ids=["unknown-arrow", "no-chain", "wrong-source"])
def test_relation_term_that_is_no_path_is_refused(path):
    with pytest.raises(NotAPath):
        alg.build_bqa(QQ, qv.a_n(3), [[(1, path)]], 2)


def test_relation_term_with_an_end_outside_the_quiver_is_refused():
    with pytest.raises(UnknownVertex):
        alg.build_bqa(QQ, qv.a_n(3), [[(1, qv.Path("9", "3", ("a1", "a2")))]], 2)


@pytest.mark.parametrize("coeff", [1.5, "1"], ids=["float", "string"])
def test_relation_coefficient_that_is_no_scalar_is_refused(coeff):
    with pytest.raises(QuivhomError, match="not a scalar"):
        alg.build_bqa(QQ, qv.a_n(3), [[(coeff, qv.Path("1", "3", ("a1", "a2")))]], 2)


def test_nilpotency_bound_that_is_no_int_is_refused():
    with pytest.raises(QuivhomError, match="must be an int"):
        alg.build_bqa(QQ, qv.a_n(3), [], "2")


def test_commutative_square_with_relation():
    q = qv.make_quiver(["1", "2", "3", "4"],
                       [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    ab = qv.Path("1", "4", ("a", "b"))
    cd = qv.Path("1", "4", ("c", "d"))
    a = alg.build_bqa(QQ, q, [[(1, ab), (-1, cd)]], 3)
    # 4 trivial + 4 arrows + one surviving length-2 class
    assert a.dim == 9


def test_path_count_identity():
    for q in [qv.a_n(3), qv.d4((0, 1, 0)), qv.kronecker()]:
        a = alg.path_algebra(QQ, q)
        total = sum(len(qv.paths_between(q, v, w)) for v in q.vertices for w in q.vertices)
        assert a.dim == total


def test_structure_constant_associativity():
    for a in [kA2(), dual_numbers(), alg.path_algebra(QQ, qv.kronecker())]:
        sc = alg.sc_of_bqa(a)
        sc.validate()


def test_validate_catches_one_perturbed_product():
    # kA2 with a*a = a for the arrow a: unit and idempotents still pass, so
    # only the associativity check sees it ((a e1) a = a, a (e1 a) = 0)
    sc = alg.sc_of_bqa(kA2())
    a = next(b for b in range(sc.dim) if all(not e[b] for e in sc.idempotents))
    mult = [list(row) for row in sc.mult]
    mult[a][a] = tuple(QQ.one() if c == a else QQ.zero() for c in range(sc.dim))
    bad = alg.SCAlgebra(QQ, mult, sc.unit, idempotents=sc.idempotents)
    with pytest.raises(CompositionInconsistent, match="associativity"):
        bad.validate()


def test_construction_checks_unit_and_idempotents():
    sc = alg.sc_of_bqa(kA2())
    e1, e2 = sc.idempotents
    with pytest.raises(CompositionInconsistent, match="unit"):
        alg.SCAlgebra(QQ, sc.mult, e1)
    with pytest.raises(CompositionInconsistent, match="orthogonal"):
        alg.SCAlgebra(QQ, sc.mult, sc.unit, idempotents=[e1, e1, e2])
    with pytest.raises(CompositionInconsistent, match="sum to the unit"):
        alg.SCAlgebra(QQ, sc.mult, sc.unit, idempotents=[e1])


def test_module_relation_check():
    a = dual_numbers()
    good = alg.AlgMod(a, {"1": 2}, {"x": Mat.from_rows(QQ, [[0, 1], [0, 0]])})
    assert good.check_relations()
    bad = alg.AlgMod(a, {"1": 2}, {"x": Mat.from_rows(QQ, [[0, 1], [1, 0]])})
    assert not bad.check_relations()


def test_hom_simple_cases():
    a = kA2()
    s1 = alg.simple_module(a, "1")
    s2 = alg.simple_module(a, "2")
    p1 = alg.projective_module(a, "1")
    assert alg.hom_dim(s1, s1) == 1
    assert alg.hom_dim(s1, s2) == 0
    assert alg.hom_dim(p1, p1) == 1


def _hom_dim_oracle(m, n):
    """Kronecker-product assembly of the naturality system, independent path."""
    a = m.algebra
    f = a.field
    verts = list(a.quiver.vertices)
    offs, total = {}, 0
    for v in verts:
        offs[v] = total
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return 0
    blocks = []
    for arr in a.quiver.arrows:
        u, w = arr.source, arr.target
        rows_count = n.dims[w] * m.dims[u]
        if rows_count == 0:
            continue
        row_block = Mat.zeros(f, rows_count, total)
        left = Mat.kron(Mat.identity(f, n.dims[w]), m.mats[arr.name].transpose())
        right = Mat.kron(n.mats[arr.name], Mat.identity(f, m.dims[u]))
        pieces = []
        pos = 0
        for v in verts:
            width = n.dims[v] * m.dims[v]
            if v == w and v == u:
                pieces.append(left.sub(right))
            elif v == w:
                pieces.append(left)
            elif v == u:
                pieces.append(right.neg())
            else:
                pieces.append(Mat.zeros(f, rows_count, width))
            pos += width
        blocks.append(Mat.hstack(f, pieces))
    if not blocks:
        return total
    big = Mat.vstack(f, blocks)
    return big.cols - rank(big)


def test_hom_matches_kron_oracle_randomized():
    rng = random.Random(42)
    a = kA3()
    indecs = _kA3_indecomposables(a)
    for _ in range(25):
        m = _random_sum(rng, a, indecs)
        n = _random_sum(rng, a, indecs)
        assert len(alg.hom_basis(m, n)) == _hom_dim_oracle(m, n)


def _kA3_indecomposables(a):
    """Interval modules of the A_3 linear quiver."""
    out = []
    for lo in range(1, 4):
        for hi in range(lo, 4):
            dims = {str(v): 1 if lo <= v <= hi else 0 for v in range(1, 4)}
            mats = {}
            for arr in a.quiver.arrows:
                s, t = int(arr.source), int(arr.target)
                if lo <= s and t <= hi:
                    mats[arr.name] = Mat.from_rows(a.field, [[1]])
            out.append(alg.AlgMod(a, dims, mats))
    return out


def _random_sum(rng, a, indecs, max_parts=3):
    parts = [indecs[rng.randrange(len(indecs))] for _ in range(rng.randint(1, max_parts))]
    total, _, _ = alg.direct_sum_mods(a, parts)
    return total


def test_hom_mismatched_algebras():
    with pytest.raises(AlgebraMismatch):
        alg.hom_basis(alg.simple_module(kA2(), "1"), alg.simple_module(kA2(), "1"))


def test_projective_cover_cases():
    a = kA2()
    p1 = alg.projective_module(a, "1")
    cov, pi = alg.projective_cover(p1)
    assert cov.dims == p1.dims
    k, _ = alg.kernel_of(pi)
    assert k.is_zero()

    s1 = alg.simple_module(a, "1")
    cov, pi = alg.projective_cover(s1)
    assert cov.dims == p1.dims  # cover of S_1 is P_1
    k, _ = alg.kernel_of(pi)
    assert k.dims == {"1": 0, "2": 1}  # kernel is P_2
    assert alg.cover_is_minimal(cov, pi)

    z = alg.zero_module(a)
    cov, pi = alg.projective_cover(z)
    assert cov.is_zero()


def test_pd_and_gldim():
    a = kA2()
    assert alg.pd(alg.projective_module(a, "1")) == Dim.finite(0)
    assert alg.pd(alg.simple_module(a, "1")) == Dim.finite(1)
    assert alg.gldim(a) == Dim.finite(1)

    k = alg.ground_field_algebra(QQ)
    assert alg.gldim(k) == Dim.finite(0)

    d = dual_numbers()
    s = alg.simple_module(d, "1")
    assert alg.pd(s, cap=10) == Dim.at_least(10)
    assert alg.gldim(d, cap=6) == Dim.at_least(6)


def test_injectives_kA2():
    a = kA2()
    i1, i2 = alg.injective_indecomposables(a)
    assert i1.dims == {"1": 1, "2": 0}
    assert i2.dims == {"1": 1, "2": 1}
    for i in (i1, i2):
        assert i.check_relations()


def test_injectives_semisimple():
    k = alg.ground_field_algebra(QQ)
    (i,) = alg.injective_indecomposables(k)
    assert i.dims == {"1": 1}


def test_radical_sc_examples():
    k = alg.ground_field_algebra(QQ)
    assert alg.radical_sc(alg.sc_of_bqa(k)) == []

    d = alg.sc_of_bqa(dual_numbers())
    rad = alg.radical_sc(d)
    assert len(rad) == 1

    a2 = alg.sc_of_bqa(kA2())
    rad = alg.radical_sc(a2)
    assert len(rad) == 1

    kron = alg.sc_of_bqa(alg.path_algebra(QQ, qv.kronecker()))
    assert len(alg.radical_sc(kron)) == 2


def test_radical_sc_agrees_with_arrow_radical():
    for a in [kA2(), kA3(), dual_numbers(), alg.path_algebra(QQ, qv.d4((1, 0, 1)))]:
        sc = alg.sc_of_bqa(a)
        dickson = alg.radical_sc(sc)
        assert len(dickson) == len(sc.known_radical)
        # same span
        joint = list(dickson) + list(sc.known_radical)
        assert rank(Mat.from_rows(sc.field, joint)) == len(dickson)


def test_nilpotency_check():
    for field in (QQ, GF(2)):
        sc = alg.sc_of_bqa(dual_numbers(field))
        assert alg._is_nilpotent(sc, sc.known_radical)
        assert alg._is_nilpotent(sc, [])
        assert not alg._is_nilpotent(sc, [sc.unit])
    kron = alg.sc_of_bqa(alg.path_algebra(QQ, qv.kronecker()))
    assert alg._is_nilpotent(kron, kron.known_radical)
    assert not alg._is_nilpotent(kron, list(kron.known_radical) + [kron.idempotents[0]])


def test_radical_sc_reduces_its_trace_form_once(monkeypatch):
    # the kernel's size is rank-nullity of its own rref, so the 6 x 6 trace
    # form of kA3 is row-reduced once; the other reduction is the nilpotency
    # check's
    sc = alg.sc_of_bqa(kA3())
    shapes = []
    real = exactlin.rref

    def counting(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(exactlin, "rref", counting)
    assert len(alg.radical_sc(sc)) == 3
    assert shapes.count((6, 6)) == 1


def test_radical_sc_charp_refused():
    # the trace form gives the radical only for p > dim A: over GF(2) the
    # trace-form kernel of kA2 (dim 3) has dim 2, its radical dim 1
    a = alg.path_algebra(GF(2), qv.a_n(2))
    with pytest.raises(CharPNotSupported, match="p = 2, dim A = 3"):
        alg.radical_sc(alg.sc_of_bqa(a))


def _linear_rad2(field, n):
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, n - 1)]
    return alg.build_bqa(field, qv.a_n(n), rels, 2)


def _cyclic_nakayama(field, n, length):
    arrows = [(f"c{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    q = qv.make_quiver([str(i) for i in range(1, n + 1)], arrows, require_acyclic=False)
    rels = []
    for i in range(1, n + 1):
        names = [f"c{(i - 1 + k) % n + 1}" for k in range(length)]
        rels.append([(1, qv.Path(str(i), str((i - 1 + length) % n + 1), tuple(names)))])
    return alg.build_bqa(field, q, rels, length)


def _t2_a4_rad2(field):
    return tm.t2_spec(_linear_rad2(field, 4)).t


@pytest.mark.parametrize("name, make, dims", [
    ("T2(A4/rad2)", _t2_a4_rad2, (21, 13)),
    ("A8/rad2", lambda f: alg.sc_of_bqa(_linear_rad2(f, 8)), (15, 7)),
    ("N(4,3)", lambda f: alg.sc_of_bqa(_cyclic_nakayama(f, 4, 3)), (12, 8)),
    ("kA2", lambda f: alg.sc_of_bqa(alg.path_algebra(f, qv.a_n(2))), (3, 1)),
])
def test_radical_sc_in_characteristic_above_the_dimension(name, make, dims):
    # p = 101 > dim A: the trace-form kernel is the radical the algebra carries
    sc = make(GF(101))
    rad = alg.radical_sc(sc)
    assert (sc.dim, len(rad)) == dims
    assert rank(Mat.from_rows(sc.field, list(rad) + list(sc.known_radical))) == len(rad)


@pytest.mark.parametrize("name, make", [
    ("A8/rad2", lambda: _linear_rad2(GF(101), 8)),
    ("N(4,3)", lambda: _cyclic_nakayama(GF(101), 4, 3)),
    ("N(5,4)", lambda: _cyclic_nakayama(QQ, 5, 4)),
    ("(k[x]/x2)Q", lambda: rc.path_algebra_over(qv.kronecker(), dual_numbers())),
    ("kA3", lambda: alg.path_algebra(QQ, qv.a_n(3))),
])
def test_gldim_is_the_largest_pd_of_a_simple(name, make):
    # gldim resolves A/J once; the minimal resolution of a sum is the sum of
    # those of its summands, so the values agree finite and capped
    a = make()
    for cap in (0, 1, 2, 3, 8, 20):
        want = dim_max(alg.pd(alg.simple_module(a, v), cap) for v in a.quiver.vertices)
        assert alg.gldim(a, cap) == want, cap


def test_hereditary_gldim_bound():
    # gl.dim kQ <= 1 for every quiver without relations
    for q in [qv.a_n(4), qv.kronecker(), qv.d4((0, 0, 1))]:
        a = alg.path_algebra(QQ, q)
        g = alg.gldim(a)
        assert g.exact and g.value <= 1


def test_ext_oracle_small():
    a = kA2()
    s1 = alg.simple_module(a, "1")
    s2 = alg.simple_module(a, "2")
    assert alg.ext_dims(s1, s2, 2) == [0, 1, 0]
    assert alg.ext_dims(s1, s1, 2) == [1, 0, 0]
    assert alg.pd_via_ext(s1) == Dim.finite(1)


def test_pd_cross_oracle_randomized():
    rng = random.Random(7)
    a = kA3()
    indecs = _kA3_indecomposables(a)
    for _ in range(15):
        m = _random_sum(rng, a, indecs)
        assert alg.pd(m) == alg.pd_via_ext(m)


# -- covers built once per syzygy step ---------------------------------------------

def kA3_rad2(field=GF(101)):
    q = qv.a_n(3)
    return alg.build_bqa(field, q, [[(1, qv.Path("1", "3", ("a1", "a2")))]], 2, name="A3/rad2")


def nakayama(n, length, field=GF(101)):
    """Cyclic quiver on n vertices with every path of the given length zero."""
    arrows = [(f"c{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    q = qv.make_quiver([str(i) for i in range(1, n + 1)], arrows, require_acyclic=False)
    rels = []
    for i in range(1, n + 1):
        names, v = [], i
        for _ in range(length):
            names.append(f"c{v}")
            v = v % n + 1
        rels.append([(1, qv.Path(str(i), str(v), tuple(names)))])
    return alg.build_bqa(field, q, rels, length, name=f"N({n},{length})")


def _standard_modules(a):
    verts = a.quiver.vertices
    return ([alg.simple_module(a, v) for v in verts] + [alg.projective_module(a, v) for v in verts]
            + alg.injective_indecomposables(a))


def _reference_cover(m):
    """The cover assembled piece by piece: one map_from_projective per top
    generator, summed with direct_sum_mods."""
    a, f = m.algebra, m.algebra.field
    rad = alg.radical_submodule(m)
    pieces, maps = [], []
    for v in a.quiver.vertices:
        _, sect, _ = alg.quotient_by_rows(rad[v].transpose())
        for j in range(sect.cols):
            pv = alg.projective_module(a, v)
            pieces.append(pv)
            maps.append(alg.map_from_projective(pv, m, sect.col(j)))
    if not pieces:
        z = alg.zero_module(a)
        return z, alg.zero_map(z, m)
    total, _, _ = alg.direct_sum_mods(a, pieces)
    mats = {v: Mat.hstack(f, [mp.mats[v] for mp in maps]) for v in a.quiver.vertices}
    return total, alg.ModMap(total, m, mats)


def kronecker():
    return alg.path_algebra(QQ, qv.kronecker(), name="kK")


# on the Kronecker quiver P_1 has two paths to vertex 2, so the column order
# of pi (generator by generator, paths within each) is pinned down
@pytest.mark.parametrize("make", [kA3_rad2, lambda: nakayama(4, 3), kA2, kronecker])
def test_projective_cover_matches_reference_assembly(make):
    a = make()
    mods = _standard_modules(a)
    mods.append(alg.direct_sum_mods(a, mods[:3] + mods[-2:])[0])
    mods.append(alg.zero_module(a))
    for m in mods:
        p, pi = alg.projective_cover(m)
        p_ref, pi_ref = _reference_cover(m)
        assert p == p_ref
        assert pi.mats == pi_ref.mats
        assert pi.is_valid() and alg.cover_is_minimal(p, pi)


# -- quotients of k^n, read off one rref ---------------------------------------------

def _complement_projection_by_solve(field, basis_cols):
    """Reference quotient by a full-column-rank B in k^n: the unit vectors
    e_j outside span(B, e_<j), the pivots beyond B of rref([B | I]), complete
    B to a basis T of k^n; proj is the last rows of T^-1, sect those e_j."""
    n, r = basis_cols.rows, basis_cols.cols
    if r == 0:
        return Mat.identity(field, n), Mat.identity(field, n)
    _, _, pivots = rref(Mat.hstack(field, [basis_cols, Mat.identity(field, n)]))
    t_cols = [basis_cols.col(j) for j in range(r)]
    t_cols += [Mat.identity(field, n).col(c - r) for c in pivots if c >= r]
    tinv = solve_matrix(Mat.hstack(field, t_cols), Mat.identity(field, n))
    proj_rows = tinv.row_list()[r:]
    proj = Mat.from_rows(field, proj_rows) if proj_rows else Mat.zeros(field, 0, n)
    sect = Mat.hstack(field, t_cols[r:]) if proj_rows else Mat.zeros(field, n, 0)
    return proj, sect


def _spanning_sets(field, rng):
    """(n, rows): n = 0, an empty span, a full span, a dependent spanning
    set, and random ones."""
    r1, r2 = [1, 2, 0, -1], [0, 1, 1, 3]
    out = [(0, []), (4, []), (3, Mat.identity(field, 3).row_list()),
           (4, [r1, r2, [a + b for a, b in zip(r1, r2)], [2 * a for a in r1], r2])]
    for _ in range(20):
        n = rng.randint(1, 6)
        out.append((n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 7))]))
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_quotient_by_rows(field):
    for n, rows in _spanning_sets(field, random.Random(13)):
        span = Mat.from_rows(field, rows) if rows else Mat.zeros(field, 0, n)
        proj, lift, free = alg.quotient_by_rows(span)
        _, rk, pivots = rref(span)
        assert free == [c for c in range(n) if c not in pivots]
        assert (proj.rows, proj.cols, lift.rows, lift.cols) == (n - rk, n, n, n - rk)
        assert proj.mul(span.transpose()).is_zero()
        assert proj.mul(lift).is_identity()
        unit = Mat.identity(field, n)
        assert lift == (Mat.hstack(field, [unit.col(c) for c in free]) if free
                        else Mat.zeros(field, n, 0))


def _intertwines(new_proj, old_sect, old_acts, new_acts):
    """new_proj * old_sect is an isomorphism from the quotient in the old
    complement to the one in the new, and carries each old action to the
    new one."""
    t = new_proj.mul(old_sect)
    return (t.rows == t.cols == rank(t)
            and all(t.mul(a) == b.mul(t) for a, b in zip(old_acts, new_acts)))


def _random_submodule_gens(rng, m, count):
    """Images of ``count`` random maps from projectives into m."""
    a = m.algebra
    out = []
    for _ in range(count):
        v = rng.choice([w for w in a.quiver.vertices if m.dims[w]])
        gen = Mat.column(a.field, [rng.randint(-2, 2) for _ in range(m.dims[v])])
        out.append(alg.map_from_projective(alg.projective_module(a, v), m, gen))
    return out


@pytest.mark.parametrize("make", [kA3_rad2, lambda: nakayama(4, 3), kA3, kronecker])
def test_quotient_modules_agree_with_the_solve_based_complement(make):
    a = make()
    f = a.field
    sc = alg.sc_of_bqa(a)
    mods = _standard_modules(a)
    rng = random.Random(17)
    for _ in range(12):
        m = alg.direct_sum_mods(a, rng.sample(mods, rng.randint(1, 3)))[0]
        maps = _random_submodule_gens(rng, m, rng.randint(0, 3))
        incl = {v: Mat.hstack(f, [g.mats[v] for g in maps]) if maps else Mat.zeros(f, m.dims[v], 0)
                for v in a.quiver.vertices}
        # over the bound quiver algebra, vertex by vertex
        q, qmap, sects = alg.quotient_module(m, incl)
        old = {v: _complement_projection_by_solve(f, alg.column_space(f, [incl[v]]))
               for v in a.quiver.vertices}
        for v in a.quiver.vertices:
            assert q.dims[v] == old[v][0].rows == m.dims[v] - rank(incl[v])
            assert qmap.mats[v].mul(incl[v]).is_zero()
        for arr in a.quiver.arrows:
            u, w = arr.source, arr.target
            t_u, t_w = qmap.mats[u].mul(old[u][1]), qmap.mats[w].mul(old[w][1])
            old_act = old[w][0].mul(m.mats[arr.name]).mul(old[u][1])
            assert rank(t_u) == q.dims[u] and rank(t_w) == q.dims[w]
            assert t_w.mul(old_act) == q.mats[arr.name].mul(t_u)
        # over its structure constants, as one vector space
        sm = scm.sc_module_of_algmod(m, sc)
        gens = [Mat.column(f, [rng.randint(-1, 1) for _ in range(sm.dim)])
                for _ in range(rng.randint(0, 2))]
        cols = Mat.hstack(f, [act.mul(g) for g in gens for act in sm.action]) \
            if gens else Mat.zeros(f, sm.dim, 0)
        sq, proj, sect = scm.quotient_sc(sm, cols)
        old_proj, old_sect = _complement_projection_by_solve(f, alg.column_space(f, [cols]))
        assert sq.dim == old_proj.rows == sm.dim - rank(cols)
        assert proj.mul(cols).is_zero() and proj.mul(sect).is_identity()
        assert _intertwines(proj, old_sect, [old_proj.mul(x).mul(old_sect) for x in sm.action],
                            sq.action)


def test_quotient_module_by_a_span_that_is_no_submodule_is_refused():
    # P_1 over kA2 modulo its top at vertex 1: the arrow carries that top
    # out of the span, so no quotient module exists
    a = kA2()
    p1 = alg.projective_module(a, "1")
    assert p1.dims == {"1": 1, "2": 1}
    with pytest.raises(QuivhomError, match="not a submodule"):
        alg.quotient_module(p1, {"1": Mat.identity(QQ, 1), "2": Mat.zeros(QQ, 1, 0)})
    q, qmap, _ = alg.quotient_module(p1, {"1": Mat.zeros(QQ, 1, 0), "2": Mat.identity(QQ, 1)})
    assert q.dims == {"1": 1, "2": 0} and qmap.is_valid()


@pytest.mark.parametrize("make", [lambda: nakayama(4, 3), lambda: _linear_rad2(GF(101), 8),
                                  lambda: kA3_rad2(QQ), dual_numbers],
                         ids=["N(4,3)", "A8/rad2", "kA3/rad2", "k[x]/x^2"])
def test_a_module_and_its_structure_constant_image_agree(make):
    # the same module as an AlgMod and as its sc_module_of_algmod image over
    # sc_of_bqa: equal hom dimensions, kernel and quotient dimension vectors
    # (an SCModule's grades are the vertices, in quiver order) and pd
    a = make()
    f, sc, verts = a.field, alg.sc_of_bqa(a), a.quiver.vertices
    rng = random.Random(5)
    mods = _standard_modules(a)
    mods.append(alg.direct_sum_mods(a, rng.sample(mods, 3))[0])
    flat = [scm.sc_module_of_algmod(m, sc) for m in mods]

    def dims(m):
        return [m.dims[v] for v in verts] if isinstance(m, alg.AlgMod) else [len(c) for c in m.coords]

    for m, sm in zip(mods, flat):
        assert dims(sm) == dims(m) and scm.pd_sc(sm, 6) == alg.pd(m, 6)
    pairs = list(itertools.product(zip(mods, flat), repeat=2))
    for (m, sm), (n, sn) in rng.sample(pairs, min(24, len(pairs))):
        basis = alg.hom_basis(m, n)
        assert len(scm.hom_basis_sc(sm, sn)) == len(basis)
        g = alg.ModMap(m, n, {v: Mat.zeros(f, n.dims[v], m.dims[v]) for v in verts})
        for b, c in zip(basis, (f.of_int(rng.randint(1, 3)) for _ in basis)):
            g = alg.ModMap(m, n, {v: g.mats[v].add(b.mats[v].scale(c)) for v in verts})
        sg = scm.SCMap(sm, sn, Mat.block_diag(f, [g.mats[v] for v in verts]))
        assert sg.is_valid()
        assert dims(scm.kernel_of_sc(sg)[0]) == dims(alg.kernel_of(g)[0])
        assert dims(scm.quotient_sc(sn, sg.mat)[0]) == dims(alg.quotient_module(n, g.mats)[0])


def test_projective_module_is_built_once():
    a = kA3_rad2()
    aop = a.opposite()
    for v in a.quiver.vertices:
        p = alg.projective_module(a, v)
        assert alg.projective_module(a, v) is p
        pop = alg.projective_module(aop, v)
        assert pop is not p and pop.algebra is aop and p.algebra is a
    assert alg.projective_module(a, 1) is alg.projective_module(a, "1")


def test_unknown_vertices_are_refused():
    a = kA3_rad2()
    with pytest.raises(UnknownVertex):
        alg.projective_module(a, "9")
    assert "9" not in a._projectives
    with pytest.raises(UnknownVertex):
        a.idempotent_vector("9")
    assert a.idempotent_vector("2") == tuple(int(p == qv.trivial_path("2")) for p in a.basis)


@pytest.mark.parametrize("bad", [-1, 1.5, "2"])
def test_module_dimensions_are_natural_numbers(bad):
    # a negative or fractional dimension is refused where the module is made,
    # naming its vertex, over k and over kA2 alike
    k = alg.ground_field_algebra(QQ)
    with pytest.raises(DimensionMismatch, match=f"vertex 1: dimension {bad!r}"):
        alg.AlgMod(k, {"1": bad}, {})
    with pytest.raises(DimensionMismatch, match=f"vertex 2: dimension {bad!r}"):
        alg.AlgMod(kA2(), {"1": 1, "2": bad}, {})
    m = alg.AlgMod(k, {"1": 0}, {})
    assert m.is_zero() and m.dim_total() == 0 and alg.pd(m) == Dim.finite(0)


def _count_covers(monkeypatch):
    calls = []
    real = alg.projective_cover

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(alg, "projective_cover", counting)
    return calls


def test_pd_builds_one_cover_per_step(monkeypatch):
    calls = _count_covers(monkeypatch)
    a = kA3_rad2()
    for v, d in (("1", 2), ("2", 1), ("3", 0)):
        del calls[:]
        assert alg.pd(alg.simple_module(a, v)) == Dim.finite(d)
        assert len(calls) == d + 1
    del calls[:]
    assert alg.pd(alg.zero_module(a)) == Dim.finite(0)
    assert not calls
    # self-injective: a non-projective simple runs into the cap
    n = nakayama(4, 3)
    assert alg.pd(alg.simple_module(n, "1"), cap=5) == Dim.at_least(5)
    assert len(calls) == 6


def test_pd_via_ext_reads_termination_from_its_resolution():
    a = kA3_rad2()
    s1 = alg.simple_module(a, "1")
    assert alg.pd_via_ext(s1, cap=2) == Dim.finite(2) == alg.pd(s1, cap=2)
    assert alg.pd_via_ext(s1, cap=1) == Dim.at_least(1) == alg.pd(s1, cap=1)
    s = alg.simple_module(nakayama(4, 3), "2")
    assert alg.pd_via_ext(s, cap=4) == Dim.at_least(4) == alg.pd(s, cap=4)


def test_pd_via_ext_builds_one_resolution(monkeypatch):
    # A8/rad2: the simples are uniserial chains, S1+S3+S5 has pd 7 and a
    # resolution of 8 steps; the Ext ranks for all 8 simples reuse it
    q = qv.a_n(8)
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, 7)]
    a = alg.build_bqa(GF(101), q, rels, 2, name="A8/rad2")
    m = alg.direct_sum_mods(a, [alg.simple_module(a, v) for v in "135"])[0]
    want = alg.pd(m)
    calls = _count_covers(monkeypatch)

    def no_pd(*args, **kwargs):
        raise AssertionError("the oracle must not call pd")

    monkeypatch.setattr(alg, "pd", no_pd)
    assert alg.pd_via_ext(m) == want == Dim.finite(7)
    assert len(calls) == 8


def test_pd_via_ext_builds_as_many_steps_as_pd(monkeypatch):
    # N(4,3) is self-injective, so S1 runs into the cap: cap + 1 syzygy
    # steps decide it, for the oracle as for pd; its syzygies have period 8,
    # so both build the 9 covers up to the first repeated kernel
    s1 = alg.simple_module(nakayama(4, 3), "1")
    calls = _count_covers(monkeypatch)
    assert alg.pd_via_ext(s1, cap=12) == Dim.at_least(12)
    assert len(calls) == 9
    del calls[:]
    assert alg.pd(s1, cap=12) == Dim.at_least(12)
    assert len(calls) == 9


def test_pd_rejects_negative_cap():
    a = kA2()
    s = alg.simple_module(a, "1")
    for m in (s, alg.zero_module(a)):
        for pd in (alg.pd, alg.pd_via_ext):
            with pytest.raises(QuivhomError, match="cap"):
                pd(m, -1)
    with pytest.raises(QuivhomError, match="cap"):
        alg.gldim(a, -1)


def test_resolution_lengths_reject_negative_values(monkeypatch):
    a = kA2()
    s1, s2 = alg.simple_module(a, "1"), alg.simple_module(a, "2")
    calls = _count_covers(monkeypatch)
    for m in (s1, alg.zero_module(a)):
        with pytest.raises(QuivhomError, match="upto"):
            alg.ext_dims(m, s2, -1)
        with pytest.raises(QuivhomError, match="length"):
            alg.minimal_resolution(m, -1)
    assert not calls


def test_ext_dims_checks_the_algebras_before_resolving(monkeypatch):
    a, b = kA2(), kA2()
    m = alg.simple_module(a, "1")
    assert alg.pd(m) == Dim.finite(1)
    calls = _count_covers(monkeypatch)
    with pytest.raises(AlgebraMismatch):
        alg.ext_dims(m, alg.simple_module(b, "2"), 2)
    assert not calls
    # nor did the refused call drop m's kept steps
    assert alg.ext_dims(m, alg.simple_module(a, "2"), 2) == [0, 1, 0]
    assert not calls


# -- one kept resolution for pd, ext_dims and minimal_resolution --------------------------

def a8_rad2():
    q = qv.a_n(8)
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, 7)]
    return alg.build_bqa(GF(101), q, rels, 2, name="A8/rad2")


def _simples_and_injectives(a):
    """A sum of two simples and two injectives, shaped like the module jobs
    of the resolutions benchmark."""
    verts = a.quiver.vertices
    parts = [alg.simple_module(a, verts[0]), alg.simple_module(a, verts[2])]
    return alg.direct_sum_mods(a, parts + alg.injective_indecomposables(a)[1:3])[0]


# the covers pd(m, 12) builds: one per step up to the first zero kernel
# (A8/rad2, pd 7) or up to the first kernel equal to an earlier one (N(4,3):
# the fifth kernel repeats one, and the steps after it are read off)
@pytest.mark.parametrize("make, covers", [(a8_rad2, 8), (lambda: nakayama(4, 3), 5)],
                         ids=["A8/rad2", "N(4,3)"])
def test_pd_and_ext_dims_build_each_cover_once(monkeypatch, make, covers):
    a = make()
    simples = [alg.simple_module(a, v) for v in a.quiver.vertices]
    m = _simples_and_injectives(a)
    calls = _count_covers(monkeypatch)
    # pd first: ext_dims at every simple reads pd's steps
    d = alg.pd(m, 12)
    assert len(calls) == covers
    exts = [alg.ext_dims(m, s, 3) for s in simples]
    assert len(calls) == covers
    # ext_dims first: pd extends its prefix, and no module is covered twice
    monkeypatch.setattr(alg, "_kept", None)
    del calls[:]
    assert alg.ext_dims(m, simples[0], 3) == exts[0]
    assert len(calls) == min(5, covers)
    assert alg.pd(m, 12) == d
    assert len(calls) == covers == len({id(c) for c in calls})
    # the slot holds one module: a second one evicts m's steps
    other = alg.direct_sum_mods(a, simples[1:3])[0]
    alg.pd(other, 12)
    del calls[:]
    assert alg.ext_dims(m, simples[1], 3) == exts[1]
    assert len(calls) == min(5, covers)
    # an equal module built separately hits
    alg.pd(m, 12)
    del calls[:]
    again = _simples_and_injectives(a)
    assert again is not m and again == m
    assert alg.pd(again, 12) == d and [alg.ext_dims(again, s, 3) for s in simples] == exts
    assert not calls
    # replacing an arrow matrix misses: an arrow scaled by 2 gives a module
    # (the relations are monomial) that pd resolves afresh
    arrow = next(n for n, x in m.mats.items() if not x.is_zero())
    m.mats[arrow] = m.mats[arrow].scale(a.field.of_int(2))
    assert m.check_relations()
    d2 = alg.pd(m, 12)
    assert len(calls) == covers
    assert d2 == alg.pd_via_ext(m, 12)


def _two_loop_resolution(m, length):
    """The resolution as its own cover/kernel loop, apart from pd's: up to
    length + 1 steps (P_i, d_i, K_i -> P_i), ending at the first zero
    kernel."""
    out = []
    current = m
    for _ in range(length + 1):
        p, pi = alg.projective_cover(current)
        d = out[-1][2].compose(pi) if out else pi
        k, incl = alg.kernel_of(pi)
        out.append((p, d, incl))
        current = k
        if k.is_zero():
            break
    return out


ORACLE_CASES = {"A8/rad2": a8_rad2, "N(4,3)": lambda: nakayama(4, 3),
                "N(5,4)": lambda: nakayama(5, 4), "A3/rad2 over QQ": lambda: kA3_rad2(QQ)}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_kept_resolution_matches_a_separate_loop(monkeypatch, name):
    a = ORACLE_CASES[name]()
    rng = random.Random(sorted(ORACLE_CASES).index(name))
    pool = _standard_modules(a)
    simples = pool[:len(a.quiver.vertices)]
    mods = [alg.direct_sum_mods(a, rng.sample(pool, rng.randint(2, 6)))[0] for _ in range(3)]
    lengths = (0, 3, 13)
    for m in mods + [pool[0], alg.zero_module(a)]:
        ref = _two_loop_resolution(m, max(lengths))
        want_res = {n: [(p, d) for p, d, _ in ref[:n + 1]] for n in lengths}
        want_ext = [alg._ext_dims(ref[:5], s, 3) for s in simples]
        want_pd = alg.pd_via_ext(m, 12)
        # cold and warm: the slot starts empty, then the first call fills it
        for first in ("resolution", "pd", "ext"):
            monkeypatch.setattr(alg, "_kept", None)
            runs = {"resolution": lambda: [alg.minimal_resolution(m, n) for n in lengths],
                    "pd": lambda: alg.pd(m, 12),
                    "ext": lambda: [alg.ext_dims(m, s, 3) for s in simples]}
            got = {first: runs.pop(first)()}
            got.update((k, run()) for k, run in runs.items())
            assert got["resolution"] == [want_res[n] for n in lengths]
            assert [alg.minimal_resolution(m, n) for n in reversed(lengths)] \
                == [want_res[n] for n in reversed(lengths)]
            assert got["ext"] == want_ext
            assert got["pd"] == want_pd


def test_kept_steps_stay_consistent_across_threads():
    # the slot is replaced, never mutated: threads that evict each other's
    # steps, or extend the same module's at once, all read whole resolutions
    a = a8_rad2()
    s = alg.simple_module(a, "2")
    mods = [_simples_and_injectives(a), alg.direct_sum_mods(a, [alg.simple_module(a, v) for v in "135"])[0]]
    want = [(alg.pd_via_ext(m, 12), alg._ext_dims(_two_loop_resolution(m, 4), s, 3)) for m in mods]
    errors = []

    def work(t):
        try:
            for i in range(8):
                j = (i + t) % 2
                if i % 3:
                    got = (alg.pd(mods[j], 12), alg.ext_dims(mods[j], s, 3))
                else:
                    ext = alg.ext_dims(mods[j], s, 3)
                    got = (alg.pd(mods[j], 12), ext)
                if got != want[j]:
                    errors.append((t, i, got))
        except Exception as exc:  # reported through errors, read after join
            errors.append((t, i, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors


# -- periodic resolutions are built once -------------------------------------------------

def _plain_steps(m, n, cover, kernel):
    """The syzygy steps as a loop that covers every kernel and compares
    none: n steps, or up to the first zero kernel."""
    steps, current = [], m
    for _ in range(n):
        p, pi = cover(current)
        k, incl = kernel(pi)
        steps.append((p, pi, k, incl))
        if k.is_zero():
            break
        current = k
    return steps


def _periodic_cases():
    """(module kind, modules): BQA simples and sums over N(4,3) and N(5,4),
    the dual-number representations of the representation tests, modules
    over sc_of_bqa(N(4,3)), and triples over T2(A4/rad2)."""
    cases = []
    for a in (nakayama(4, 3), nakayama(5, 4)):
        simples = [alg.simple_module(a, v) for v in a.quiver.vertices]
        pool = _standard_modules(a)
        rng = random.Random(a.dim)
        sums = [alg.sum_mods(a, rng.sample(pool, rng.randint(2, 5))) for _ in range(4)]
        cases.append(("bqa", simples + [alg.sum_mods(a, simples[:2])] + sums))
    d = dual_numbers()
    cases.append(("bqa", [rc.rep_simple(qv.a_n(1), d, "1", "1"), rc.rep_simple(qv.a_n(3), d, "1", "1"),
                          rc.rep_simple(qv.a_n(2), d, "2", "1")]))
    n43 = nakayama(4, 3)
    sc = alg.sc_of_bqa(n43)
    cases.append(("sc", [scm.sc_module_of_algmod(m, sc) for m in _standard_modules(n43)[:4]]
                  + [scm.sc_module_of_algmod(alg.sum_mods(n43, _standard_modules(n43)[::3]), sc)]))
    spec = tm.t2_spec(_linear_rad2(GF(101), 4))
    triples = [t for _, _, t in tm.simple_triples(spec)]
    triples += [tm.e2_lambda(spec, col) for col, _ in spec.coldata_s().columns[:2]]
    cases.append(("sc", triples + [tm.triple_sum(spec, triples[::2])]))
    return cases


_LOOPS = {"bqa": (alg.projective_cover, alg.kernel_of), "sc": (scm.projective_cover_sc, scm.kernel_of_sc)}


def test_periodic_steps_match_a_plain_loop():
    # the tail after a repeated kernel holds the steps a plain loop builds,
    # matrix for matrix: P, pi, K and incl; also when a later call extends
    # the list and finds the period again from its last kernel
    cap, repeated = 12, 0
    for kind, mods in _periodic_cases():
        cover, kernel = _LOOPS[kind]
        for m in mods:
            want = _plain_steps(m, cap + 1, cover, kernel)
            built = []

            def counting(x):
                built.append(x)
                return cover(x)

            got = syzygy_steps(m, [], cap + 1, counting, kernel)
            assert got == want
            repeated += len(built) < len(got)
            assert syzygy_steps(m, syzygy_steps(m, [], 3, cover, kernel), cap + 1, cover, kernel) == want
    assert repeated >= 10  # the cases reach the periodic tail


def test_pd_builds_as_many_covers_at_any_cap(monkeypatch):
    # S1 over N(4,3) has period 8: its ninth kernel equals the first, and
    # the steps after it are read off, not built, so the cap sets no count
    s1 = alg.simple_module(nakayama(4, 3), "1")
    calls = _count_covers(monkeypatch)
    assert alg.pd(s1, cap=12) == Dim.at_least(12)
    assert len(calls) == 9
    monkeypatch.setattr(alg, "_kept", None)
    del calls[:]
    assert alg.pd(s1, cap=1000) == Dim.at_least(1000)
    assert len(calls) == 9
    steps = alg._kept[3]
    assert len(steps) == 1001 and steps[1000] is steps[1000 - 8]


def _ext_dims_by_hom_bases(res, s, upto):
    """The Ext ranks that ``_ext_dims`` computed before it read Hom(P_i, S)
    off the cover's pieces, kept as the reference: a ``hom_basis`` per term,
    and each column of delta_i by solving b o d_(i+1) in the next basis."""
    f = s.algebra.field
    homs = [alg.hom_basis(res[i][0], s) if i < len(res) else [] for i in range(upto + 2)]
    deltas = []
    for i in range(upto + 1):
        if i + 1 < len(res) and homs[i]:
            d, basis_next = res[i + 1][1], homs[i + 1]
            flat_next = Mat.hstack(f, [Mat.column(f, b.flatten()) for b in basis_next]) \
                if basis_next else None
            cols = []
            for b in homs[i]:
                flat = Mat.column(f, b.compose(d).flatten())
                if flat_next is not None:
                    x = solve_matrix(flat_next, flat)
                    assert x is not None
                    cols.append(x)
                else:
                    assert flat.is_zero()
                    cols.append(Mat.zeros(f, 0, 1))
            deltas.append(Mat.hstack(f, cols))
        else:
            deltas.append(Mat.zeros(f, len(homs[i + 1]), len(homs[i])))
    return [len(homs[i]) - rank(deltas[i]) - (rank(deltas[i - 1]) if i else 0)
            for i in range(upto + 1)]


# N(2,3) and the dual numbers have paths from a vertex back to itself, so a
# generator is told apart from the other paths at its vertex
EXT_ROUTE_CASES = {"N(4,3)": lambda: nakayama(4, 3), "N(5,4)": lambda: nakayama(5, 4),
                   "A8/rad2": a8_rad2, "A3/rad2": kA3_rad2, "N(2,3)": lambda: nakayama(2, 3),
                   "dual-numbers": lambda: dual_numbers(GF(101))}


@pytest.mark.parametrize("name", sorted(EXT_ROUTE_CASES))
def test_ext_dims_read_off_the_pieces_match_the_hom_basis_route(name):
    a = EXT_ROUTE_CASES[name]()
    pool = _standard_modules(a)
    rng = random.Random(len(name))

    def sums():
        return [alg.sum_mods(a, rng.sample(pool, rng.randint(2, min(5, len(pool))))) for _ in range(3)]

    mods = [pool[0], pool[-1]] + sums()
    # simple, projective and injective, and sums, whose spaces of dimension
    # above 1 tell the basis maps' values apart from their coordinates
    targets = pool + sums()
    for m in mods:
        res = _two_loop_resolution(m, 4)
        for n in targets:
            assert alg._ext_dims(res, n, 3) == _ext_dims_by_hom_bases(res, n, 3)


# -- malformed modules and maps ----------------------------------------------------------

def test_module_rejects_unknown_vertex_and_arrow():
    k = alg.ground_field_algebra(QQ)
    with pytest.raises(UnknownVertex):
        alg.AlgMod(k, {"3": 2}, {})
    with pytest.raises(QuivhomError, match="unknown arrow"):
        alg.AlgMod(k, {"1": 2}, {"x": Mat.identity(QQ, 2)})


def test_module_map_rejects_unknown_vertex():
    a = kA2()
    p = alg.projective_module(a, "1")
    with pytest.raises(UnknownVertex):
        alg.ModMap(p, p, {"3": Mat.identity(QQ, 1)})
    # a key mapped to None is a known vertex whose map is zero
    assert alg.ModMap(p, p, {"1": None}).is_zero()


# -- structure-constant products over the sparse view of the table ------------------------

def _dense_multiply(sc, x, y):
    """The product over the dense table that ``SCAlgebra.multiply`` replaced,
    kept as the reference: every y_j is read again for every nonzero x_i."""
    f = sc.field
    out = [f.zero()] * sc.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = sc.mult[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = f.mul(xi, yj)
            for k, m in enumerate(row[j]):
                if m:
                    out[k] = f.add(out[k], f.mul(c, m))
    return tuple(out)


def _xbar_tables(make_q):
    k = alg.ground_field_algebra(QQ)
    xbar = repdim.build_xbar(make_q(), k, [alg.AlgMod(k, {"1": 1}, {})])
    e = repdim.end_xbar(xbar)
    n1, n2 = len(xbar.x1), len(xbar.x2)
    return e, range(n1), range(n1, n1 + n2)


def _sc_tables():
    kron, x1, x2 = _xbar_tables(qv.kronecker)
    d4, _, _ = _xbar_tables(lambda: qv.d4((1, 0, 1)))
    return {"A8/rad2": alg.sc_of_bqa(a8_rad2()), "N(4,3)": alg.sc_of_bqa(nakayama(4, 3)),
            "dual-numbers-QQ": alg.sc_of_bqa(dual_numbers()), "End(Xbar)-kronecker": kron.sc,
            "End(Xbar)-D4(1,0,1)": d4.sc, "corner-X2": kron.corner(x2).sc,
            "triangular-X1-X2": kron.triangular(x1, x2).sc}


def test_structure_constant_products_match_the_dense_table():
    rng = random.Random(1919)
    for name, sc in _sc_tables().items():
        f = sc.field
        units = [tuple(r) for r in Mat.identity(f, sc.dim).row_list()]
        vecs = [tuple(f.zero() for _ in range(sc.dim))] + rng.sample(units, min(8, sc.dim))
        for density in (0.1, 0.3, 1.0):
            for _ in range(3):
                vecs.append(tuple(f.of_int(rng.randint(-3, 3)) if rng.random() < density else f.zero()
                                  for _ in range(sc.dim)))
        if f.kind == "q":
            vecs.append(tuple(QQ.parse(f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}") for _ in range(sc.dim)))
        for x in vecs:
            for y in vecs:
                got, want = sc.multiply(x, y), _dense_multiply(sc, x, y)
                assert repr(got) == repr(want), name
        for b in rng.sample(range(sc.dim), min(6, sc.dim)):  # whole rows of the table
            for c in range(sc.dim):
                assert sc.multiply(units[b], units[c]) == sc.mult[b][c], name


# -- malformed inputs raise typed errors at the constructor ------------------------------

def test_a_ragged_structure_table_is_refused():
    with pytest.raises(DimensionMismatch):
        alg.SCAlgebra(QQ, [[(1, 0)], [(0, 1)]], (1, 0))
    with pytest.raises(DimensionMismatch):
        alg.SCAlgebra(QQ, [[(1, 0), (0, 1)], [(0, 1), (0,)]], (1, 0))


def test_a_unit_or_idempotent_of_the_wrong_length_is_refused():
    with pytest.raises(DimensionMismatch):
        alg.SCAlgebra(QQ, [[(1,)]], (1, 0))
    with pytest.raises(DimensionMismatch):
        alg.SCAlgebra(QQ, [[(1,)]], (1,), idempotents=[(1, 0)])
    assert alg.SCAlgebra(QQ, [[(1,)]], (1,), idempotents=[(1,)]).dim == 1


def test_a_module_map_with_a_block_over_another_field_is_refused():
    x = alg.simple_module(alg.ground_field_algebra(QQ), "1")
    with pytest.raises(AlgebraMismatch):
        alg.ModMap(x, x, {"1": Mat.identity(GF(3), 1)})
    # an equal field built apart is the same field
    assert alg.ModMap(x, x, {"1": Mat.identity(exactlin.Field("q"), 1)}).is_valid()


def test_a_module_with_an_arrow_matrix_over_another_field_is_refused():
    a = alg.path_algebra(QQ, qv.a_n(2))
    with pytest.raises(AlgebraMismatch):
        alg.AlgMod(a, {"1": 1, "2": 1}, {"a1": Mat.identity(GF(3), 1)})
    # an equal field built apart is the same field
    m = alg.AlgMod(a, {"1": 1, "2": 1}, {"a1": Mat.identity(exactlin.Field("q"), 1)})
    assert m.check_relations()


def _a4_with_zero_ends():
    """Over kA4 (1 -> 2 -> 3 -> 4), M = k at 2 and 3, zero at 1 and 4: the
    arrows a1 and a3 have a zero-dimensional end, a2 acts by 1."""
    a = alg.path_algebra(QQ, qv.a_n(4))
    m = alg.AlgMod(a, {"2": 1, "3": 1}, {"a2": Mat.from_rows(QQ, [[1]])})
    return a, m


def _every_equation(f):
    """The equations of a module map, each compared, empty ones included."""
    s, t = f.source, f.target
    return all(f.mats[c.target].mul(s.mats[c.name]) == t.mats[c.name].mul(f.mats[c.source])
               for c in s.algebra.quiver.arrows)


def test_map_validity_skips_only_equations_with_no_entries():
    _, m = _a4_with_zero_ends()
    for c2, c3, want in [(1, 1, True), (3, 3, True), (1, 2, False), (0, 1, False), (2, 0, False)]:
        f = alg.ModMap(m, m, {"2": Mat.from_rows(QQ, [[c2]]), "3": Mat.from_rows(QQ, [[c3]])})
        assert f.is_valid() == _every_equation(f) == want, (c2, c3)
    # into N = k -> k -> k -> 0, which M embeds in: a1's equation is empty
    # at the source only, a3's at the target only
    one = Mat.from_rows(QQ, [[1]])
    n = alg.AlgMod(m.algebra, {"1": 1, "2": 1, "3": 1}, {"a1": one, "a2": one})
    (f,) = alg.hom_basis(m, n)
    assert f.is_valid() and _every_equation(f)
    bumped = alg.ModMap(m, n, {**f.mats, "3": f.mats["3"].scale(2)})
    assert not bumped.is_valid() and not _every_equation(bumped)
