import random
import sys
import threading

import pytest

from quivhom import algebra as alg
from quivhom import exactlin
from quivhom import quiver as qv
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom.bounds import Dim
from quivhom.errors import (
    AlgebraMismatch,
    CharPNotSupported,
    CompositionInconsistent,
    DimensionMismatch,
    NotAdmissible,
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
    a = alg.path_algebra(GF(5), qv.a_n(2))
    with pytest.raises(CharPNotSupported):
        alg.radical_sc(alg.sc_of_bqa(a))


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
    # steps decide it, for the oracle as for pd
    s1 = alg.simple_module(nakayama(4, 3), "1")
    calls = _count_covers(monkeypatch)
    assert alg.pd_via_ext(s1, cap=12) == Dim.at_least(12)
    assert len(calls) == 13
    del calls[:]
    assert alg.pd(s1, cap=12) == Dim.at_least(12)
    assert len(calls) == 13


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


def _pd_covers(d, cap):
    """The covers pd builds: one per step up to the first zero kernel."""
    return d.value + 1 if d.exact else cap + 1


@pytest.mark.parametrize("make", [a8_rad2, lambda: nakayama(4, 3)], ids=["A8/rad2", "N(4,3)"])
def test_pd_and_ext_dims_build_each_cover_once(monkeypatch, make):
    a = make()
    simples = [alg.simple_module(a, v) for v in a.quiver.vertices]
    m = _simples_and_injectives(a)
    calls = _count_covers(monkeypatch)
    # pd first: ext_dims at every simple reads pd's steps
    d = alg.pd(m, 12)
    assert len(calls) == _pd_covers(d, 12)
    exts = [alg.ext_dims(m, s, 3) for s in simples]
    assert len(calls) == _pd_covers(d, 12)
    # ext_dims first: pd extends its prefix, and no module is covered twice
    monkeypatch.setattr(alg, "_kept", None)
    del calls[:]
    assert alg.ext_dims(m, simples[0], 3) == exts[0]
    assert len(calls) == min(5, _pd_covers(d, 12))
    assert alg.pd(m, 12) == d
    assert len(calls) == _pd_covers(d, 12) == len({id(c) for c in calls})
    # the slot holds one module: a second one evicts m's steps
    other = alg.direct_sum_mods(a, simples[1:3])[0]
    alg.pd(other, 12)
    del calls[:]
    assert alg.ext_dims(m, simples[1], 3) == exts[1]
    assert len(calls) == min(5, _pd_covers(d, 12))
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
    assert len(calls) == _pd_covers(d2, 12)
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
