import itertools
import random

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.bounds import Dim
from quivhom.errors import AlgebraMismatch, DimensionMismatch, QuivhomError
from quivhom.exactlin import (GF, QQ, Mat, _commuting_rows, _kernel_blocks, inverse, rank, rref,
                              solve_matrix)


def k_bqa(field=QQ):
    return alg.ground_field_algebra(field)


def dual_numbers(field=QQ):
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(field, loop, [[(1, x)]], 2)


def t2k(field=QQ):
    return tm.t2_spec(k_bqa(field))


def radical_submodule_sc(m):
    """J*M as the columns of its reduced basis, read grade by grade by the
    cover's ``_radical_parts``."""
    return scm._join(m, *scm._radical_parts(m))


def vec_module(spec_alg, d):
    """k^d over a one-dimensional algebra."""
    return scm.SCModule(spec_alg, d, [Mat.identity(spec_alg.field, d)])


def triple_over_t2(spec, a, b, phi_rows):
    x = vec_module(spec.r, a)
    y = vec_module(spec.s, b)
    f = spec.r.field
    phi = Mat.from_rows(f, phi_rows) if phi_rows else Mat.zeros(f, b, a)
    return tm.TripleModule(spec, x, y, phi)


def test_tensor_dim_k():
    spec = t2k()
    td = tm.tensor_basis(spec, vec_module(spec.r, 1))
    assert td.dim == 1


def test_tensor_dim_k_squared():
    # M = k^2 over R = S = k
    base = alg.sc_of_bqa(k_bqa())
    m = tm.Bimodule(base, base, 2, [Mat.identity(QQ, 2)], [Mat.identity(QQ, 2)])
    spec = tm.TriRingSpec(base, base, m)
    td = tm.tensor_basis(spec, vec_module(base, 1))
    assert td.dim == 2


def test_tensor_collapses_over_dual_numbers():
    # M = k[x]/(x^2) over itself, X = k with x acting by zero: dim M (x) X = 1
    d = dual_numbers()
    sc = alg.sc_of_bqa(d)
    left = scm.regular_module(sc).action
    right = scm.table_actions(sc, range(2), range(2), left=False)
    m = tm.Bimodule(sc, sc, 2, left, right)
    spec = tm.TriRingSpec(sc, sc, m)
    x_simple = scm.SCModule(sc, 1, [Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)])
    td = tm.tensor_basis(spec, x_simple)
    assert td.dim == 1


def _ses_terms(t):
    """(left, middle) of the sequence of t: (0, M(x)X)_0 and the sum
    (X, M(x)X)_1 + (0, Y)_0, built here as ``derived``'s functors build them."""
    spec = t.spec
    left = tm.e2_lambda(spec, t.tensor.module)
    return left, tm.triple_sum(spec, [tm.e1_lambda(spec, t.x), tm.e2_lambda(spec, t.y)])


def _verify_ses(left, middle, target, f_map, g_map):
    """The sequence as complexes concentrated in degree 0, checked by
    ``ComplexSES.verify``: (ok, details)."""
    cat = cats.triple_cat(target.spec)
    a, b, c = (dv.concentrated(cat, o) for o in (left, middle, target))
    cses = dv.ComplexSES(a, b, c, dv.ChainMap(a, b, {0: f_map}), dv.ChainMap(b, c, {0: g_map}))
    details = {}
    return cses.verify(details), details


def test_triple_ses_identity_phi_splits():
    spec = t2k()
    t = tm.e1_lambda(spec, vec_module(spec.r, 1))
    left, middle = _ses_terms(t)
    ok, details = _verify_ses(left, middle, t, *tm.triple_ses(t, left, middle))
    assert ok, details


def test_triple_ses_e2():
    spec = t2k()
    t = tm.e2_lambda(spec, vec_module(spec.s, 2))
    left, middle = _ses_terms(t)
    ok, details = _verify_ses(left, middle, t, *tm.triple_ses(t, left, middle))
    assert ok, details
    assert left.dim == 0
    assert middle.dim == t.dim


def test_triple_ses_ranks_t2k():
    spec = t2k()
    t = triple_over_t2(spec, 1, 1, [[1]])  # (k, k)_1, the projective column
    left, middle = _ses_terms(t)
    ok, details = _verify_ses(left, middle, t, *tm.triple_ses(t, left, middle))
    assert ok, details
    assert (left.dim, middle.dim, t.dim) == (1, 3, 2)


def test_projective_examples():
    spec = t2k()
    col = tm.e1_lambda(spec, vec_module(spec.r, 1))  # (R, M(x)R)_1
    ok, det = tm.is_projective_triple(col)
    assert ok and det["projective_over_t"]
    row = tm.e2_lambda(spec, vec_module(spec.s, 1))  # (0, S)_0
    ok, _ = tm.is_projective_triple(row)
    assert ok
    bad = triple_over_t2(spec, 1, 0, [])  # (k, 0)_0: phi not mono
    ok, det = tm.is_projective_triple(bad)
    assert not ok and not det["phi_mono"]


def test_projectivity_exhaustive_f2():
    spec = t2k(GF(2))
    count = 0
    for a in range(0, 5):
        for b in range(0, 5 - a):
            for bits in itertools.product([0, 1], repeat=a * b):
                rows = [[bits[i * a + j] for j in range(a)] for i in range(b)]
                t = triple_over_t2(spec, a, b, rows)
                tm.is_projective_triple(t)  # raises if criterion != lifting test
                count += 1
    assert count == 51  # all triples of total dimension <= 4


def test_projectivity_random_rational():
    rng = random.Random(99)
    spec = t2k()
    for _ in range(40):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        rows = [[rng.randint(-2, 2) for _ in range(a)] for _ in range(b)]
        t = triple_over_t2(spec, a, b, rows)
        tm.is_projective_triple(t)


def test_triple_pd_projective():
    spec = t2k()
    t = tm.e1_lambda(spec, vec_module(spec.r, 2))
    assert tm.triple_pd(t) == Dim.finite(0)


def test_t2k_gldim_one():
    spec = t2k()
    assert tm.trimat_gldim(spec) == Dim.finite(1)
    # T2(k) is kA2: the path algebra's own gl.dim agrees
    assert rc.gldim_pathalgebra(qv.a_n(2), k_bqa()) == Dim.finite(1)
    rep = tm.gldim_sandwich_report(spec)
    assert rep.lower == Dim.finite(1) and rep.upper == Dim.finite(1)
    assert rep.lower_check is True and rep.upper_check is True


def test_infinite_instance_atleast():
    # R = k[x]/(x^2), S = k, M = k with trivial right action
    r = alg.sc_of_bqa(dual_numbers())
    s = alg.sc_of_bqa(k_bqa())
    right = [Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)]  # e -> 1, x -> 0
    m = tm.Bimodule(s, r, 1, [Mat.identity(QQ, 1)], right)
    spec = tm.TriRingSpec(r, s, m)
    rep = tm.gldim_sandwich_report(spec, cap=6)
    assert not rep.gldim_r.exact
    assert not rep.gldim_total.exact
    assert rep.lower_check is None or rep.lower_check is True
    assert rep.skipped  # cap bites somewhere


def test_t2_kA2_gldim_two():
    base = alg.path_algebra(QQ, qv.a_n(2))
    spec = tm.t2_spec(base)
    g = tm.trimat_gldim(spec)
    assert g == Dim.finite(2)
    # T2(kA2) is (kA2)A2: its gl.dim as a bound quiver algebra agrees
    assert rc.gldim_pathalgebra(qv.a_n(2), base) == Dim.finite(2)
    rep = tm.gldim_sandwich_report(spec)
    assert rep.lower_check is True and rep.upper_check is True


def test_triple_pd_bound_property():
    # pd_R X <= n and pd_S Y <= n with M projective over S gives pd <= n+1
    rng = random.Random(5)
    spec = tm.t2_spec(alg.path_algebra(QQ, qv.a_n(2)))
    cdr = spec.coldata_r()
    cds = spec.coldata_s()
    assert scm.is_projective_sc(spec.m_as_left_s_module())
    pool_r = [cdr.columns[i][0] for i in range(len(cdr.columns))] + \
             [cdr.simple_top(i) for i in range(len(cdr.columns))]
    pool_s = [cds.columns[i][0] for i in range(len(cds.columns))] + \
             [cds.simple_top(i) for i in range(len(cds.columns))]
    for _ in range(10):
        xs = [pool_r[rng.randrange(len(pool_r))] for _ in range(rng.randint(1, 2))]
        ys = [pool_s[rng.randrange(len(pool_s))] for _ in range(rng.randint(1, 2))]
        x, y = scm.sum_sc(spec.r, xs), scm.sum_sc(spec.s, ys)
        td = tm.tensor_basis(spec, x)
        tmod = td.module
        basis = scm.hom_basis_sc(tmod, y)
        phi = Mat.zeros(QQ, y.dim, td.dim)
        for b in basis:
            phi = phi.add(b.mat.scale(QQ.of_int(rng.randint(-1, 1))))
        t = tm.TripleModule(spec, x, y, phi)
        assert t.check()
        n = 0
        for d in (scm.pd_sc(x, 10), scm.pd_sc(y, 10)):
            assert d.exact
            n = max(n, d.value)
        got = tm.triple_pd(t, 10)
        assert got.exact and got.value <= n + 1


def test_triple_hom_basis_identity():
    spec = t2k()
    t = triple_over_t2(spec, 1, 1, [[1]])
    basis = scm.hom_basis_sc(t, t)
    assert len(basis) == 1  # End of the projective column is k
    for b in basis:
        assert b.is_valid()


def test_triple_direct_sum_maps_valid():
    spec = t2k()
    t1 = triple_over_t2(spec, 1, 1, [[1]])
    t2 = triple_over_t2(spec, 1, 2, [[1], [0]])
    total, injs, projs = tm.triple_direct_sum(spec, [t1, t2])
    assert total.dim == t1.dim + t2.dim
    for m in injs + projs:
        assert m.is_valid()


# -- triple covers lifted from their generators -------------------------------------

def a4_rad2(field=GF(101)):
    q = qv.a_n(4)
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, 3)]
    return alg.build_bqa(field, q, rels, 2, name="A4/rad2")


def t2_a4_rad2(field=GF(101)):
    return tm.t2_spec(a4_rad2(field), name="T2(A4/rad2)")


def _y_in_new_basis(t):
    """The same triple with Y in the basis g = I + (ones above the diagonal),
    which mixes the idempotent pieces of Y."""
    f = t.spec.r.field
    n = t.y.dim
    g = Mat.from_rows(f, [[1 if j >= i else 0 for j in range(n)] for i in range(n)])
    ginv = inverse(g)
    y = scm.SCModule(t.spec.s, n, [g.mul(a).mul(ginv) for a in t.y.action])
    return tm.TripleModule(t.spec, t.x, y, g.mul(t.phi))


def _cover_test_triples(spec):
    out = [t for _, _, t in tm.simple_triples(spec)]
    out += [tm.e1_lambda(spec, col) for col, _ in spec.coldata_r().columns]
    out += [tm.e2_lambda(spec, col) for col, _ in spec.coldata_s().columns]
    total, _, _ = tm.triple_direct_sum(spec, [out[0], out[-1], out[len(out) // 2]])
    mixed = _y_in_new_basis(tm.triple_direct_sum(spec, out)[0])
    assert mixed.check()
    return out + [total, mixed]


def _triple_cover(t):
    """``scmodule``'s cover of t over T as a map of triples: each column
    projective T e_i keeps its X coordinates (R e_i) first, so the cover
    is their ``triple_sum``, and pi's columns are reordered as it orders
    the coordinates, X parts first."""
    spec = t.spec
    pieces, _, pi = scm.column_cover_sc(t)
    columns = [tm.TripleModule.of_module(spec, scm.column_data(spec.t).columns[i][0])
               for i in pieces]
    cover = tm.triple_sum(spec, columns)
    xs, ys, at = [], [], 0
    for c in columns:
        xs.extend(range(at, at + c.xdim))
        ys.extend(range(at + c.xdim, at + c.dim))
        at += c.dim
    mat = Mat.hstack(t.spec.r.field, [pi.mat.col(j) for j in xs + ys]) if at \
        else Mat.zeros(t.spec.r.field, t.dim, 0)
    return cover, scm.SCMap(cover, t, mat)


@pytest.mark.parametrize("make", [t2_a4_rad2, t2k])
def test_triple_covers_are_surjective_and_minimal(make):
    # scmodule's cover over T: onto, with its kernel inside the radical
    # rad P = (rad X_P, rad Y_P + im phi_P)
    spec = make()
    f = spec.r.field
    for t in _cover_test_triples(spec):
        cover, pi = _triple_cover(t)
        assert cover.check() and pi.is_valid()
        blocks = tm.TripleMap.of_map(pi)
        assert rank(blocks.u) == t.x.dim and rank(blocks.w) == t.y.dim
        _, incl = tm.triple_kernel(pi)
        rad = radical_submodule_sc(cover)
        assert rank(Mat.hstack(f, [rad, incl.mat])) == rank(rad)
        rad_y = Mat.hstack(f, [radical_submodule_sc(cover.y), cover.phi])
        assert rank(rad) == rank(radical_submodule_sc(cover.x)) + rank(rad_y)


def test_t2_a4_rad2_gldim():
    assert tm.trimat_gldim(t2_a4_rad2()) == Dim.finite(4)
    # T2(A4/rad2) is (A4/rad2)A2: its gl.dim as a bound quiver algebra agrees
    assert rc.gldim_pathalgebra(qv.a_n(2), a4_rad2()) == Dim.finite(4)


def test_triple_cover_solves_no_hom_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("hom_basis_sc called by a triple cover")

    monkeypatch.setattr(scm, "hom_basis_sc", refuse)
    spec = t2_a4_rad2()
    for t in _cover_test_triples(spec):
        scm.projective_cover_sc(t)


# -- tensors of direct sums, placed ---------------------------------------------------

def t2_kA2(field=QQ):
    return tm.t2_spec(alg.path_algebra(field, qv.a_n(2)))


def m_zero(field=QQ):
    """R = S = kA2 with M = 0: every tensor is zero."""
    sc = alg.sc_of_bqa(alg.path_algebra(field, qv.a_n(2)))
    z = Mat.zeros(field, 0, 0)
    return tm.TriRingSpec(sc, sc, tm.Bimodule(sc, sc, 0, [z] * sc.dim, [z] * sc.dim))


def _x_pool(spec):
    """Columns, simple tops, a zero module and a column in a mixed basis."""
    cdr = spec.coldata_r()
    f = spec.r.field
    pool = [col for col, _ in cdr.columns] + [cdr.simple_top(i) for i in range(len(cdr.columns))]
    pool.append(scm.zero_sc_module(spec.r))
    big = max(pool, key=lambda m: m.dim)
    n = big.dim
    g = Mat.from_rows(f, [[1 if j >= i else 0 for j in range(n)] for i in range(n)])
    ginv = inverse(g)
    pool.append(scm.SCModule(spec.r, n, [g.mul(a).mul(ginv) for a in big.action]))
    return pool


@pytest.mark.parametrize("make", [t2_a4_rad2, t2_kA2, t2k, m_zero],
                         ids=["T2(A4/rad2)", "T2(kA2)", "T2(k)", "M=0"])
def test_tensor_of_sum_equals_tensor_basis(make):
    # M (x) (X_1 + ... + X_n) is the summands' tensors placed: pure pair
    # (m_k, x_j) of X_b is k * dim X + off_b + j of the sum, and the sum keeps
    # exactly the summands' free pairs there
    spec = make()
    f = spec.r.field
    pool = _x_pool(spec)
    rng = random.Random(11)
    for _ in range(25):
        xs = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 4))]
        tensors = [tm.tensor_basis(spec, x) for x in xs]
        rcat, total = cats.sc_cat(spec.r), scm.sum_sc(spec.r, xs)
        xprojs = rcat.components(total, rcat.identity(total), xs)
        td = tm.tensor_basis(spec, total)
        pure, off = [], 0
        for x, tb in zip(xs, tensors):
            pure.append([(c // x.dim) * total.dim + off + c % x.dim for c in tb.free])
            off += x.dim
        assert td.free == sorted(c for cols in pure for c in cols)
        places = [[td.free.index(c) for c in cols] for cols in pure]
        # summand b's tensor coordinate t is the sum's coordinate places[b][t]
        for x, tb, cols, p in zip(xs, tensors, places, xprojs):
            sel = Mat(f, tb.dim, td.dim, tuple(f.one() if cols[t] == c else f.zero()
                                               for t in range(tb.dim) for c in range(td.dim)))
            assert tm.tensor_map(spec, td, tb, p.mat) == sel


def _tensor_by_elimination(spec, x):
    """Reference M (x)_R X: (dim, proj, lift, S-action), the projection and
    lift written out by hand from the rref of the relations."""
    f = spec.r.field
    mdim, xdim = spec.m.dim, x.dim
    total = mdim * xdim
    if total == 0:
        return 0, Mat.zeros(f, 0, 0), Mat.zeros(f, 0, 0), [Mat.zeros(f, 0, 0)] * spec.s.dim
    rel_rows = []
    for c in range(spec.r.dim):
        rho, act = spec.m.right[c], x.action[c]
        for i in range(mdim):
            for j in range(xdim):
                row = [f.zero()] * total
                for k in range(mdim):
                    row[k * xdim + j] = f.add(row[k * xdim + j], rho.at(k, i))
                for l in range(xdim):
                    row[i * xdim + l] = f.sub(row[i * xdim + l], act.at(l, j))
                if any(row):
                    rel_rows.append(row)
    rows, pivots = [], ()
    if rel_rows:
        red, rk, pivots = rref(Mat.from_rows(f, rel_rows))
        rows = red.row_list()[:rk]
    free = [c for c in range(total) if c not in pivots]
    proj_cols = []
    for c in range(total):
        col = [f.zero()] * len(free)
        if c in pivots:
            row = rows[pivots.index(c)]
            for t, fc in enumerate(free):
                col[t] = f.neg(row[fc])
        else:
            col[free.index(c)] = f.one()
        proj_cols.append(Mat.column(f, col) if free else Mat.zeros(f, 0, 1))
    proj = Mat.hstack(f, proj_cols)
    unit = Mat.identity(f, total)
    lift = Mat.hstack(f, [unit.col(c) for c in free]) if free else Mat.zeros(f, total, 0)
    s_action = [proj.mul(Mat.kron(spec.m.left[b], Mat.identity(f, xdim))).mul(lift)
                for b in range(spec.s.dim)]
    return len(free), proj, lift, s_action


def t2_dual(field=QQ):
    return tm.t2_spec(dual_numbers(field))


@pytest.mark.parametrize("make", [t2_a4_rad2, t2_kA2, t2_dual, m_zero],
                         ids=["T2(A4/rad2)", "T2(kA2)", "T2(dual numbers)", "M=0"])
def test_tensor_basis_equals_the_elimination_by_hand(make):
    spec = make()
    f = spec.r.field
    pool = _x_pool(spec)
    rng = random.Random(23)
    for _ in range(12):
        x = scm.sum_sc(spec.r, [rng.choice(pool) for _ in range(rng.randint(1, 3))])
        # a random base change, so that X comes in no adapted basis
        g = Mat.from_rows(f, [[rng.randint(-1, 1) + (i == j) for j in range(x.dim)]
                              for i in range(x.dim)])
        ginv = inverse(g)
        if ginv is not None:
            x = scm.SCModule(spec.r, x.dim, [g.mul(a).mul(ginv) for a in x.action])
        td = tm.tensor_basis(spec, x)
        assert (td.dim, td.proj, td.lift, list(td.module.action)) == _tensor_by_elimination(spec, x)
        unit = Mat.identity(f, td.lift.rows)
        assert td.lift == (Mat.hstack(f, [unit.col(c) for c in td.free]) if td.free
                           else Mat.zeros(f, td.lift.rows, 0))


def _phi_by_products(spec, triples, injs, projs):
    """The sum's phi as sum_b yinj_b . phi_b . (M (x) xproj_b), the assembly
    that placing the blocks replaces."""
    total = injs[0].target
    phi = Mat.zeros(spec.r.field, total.y.dim, total.tensor.dim)
    for t, inj, pr in zip(triples, injs, projs):
        tproj = tm.tensor_map(spec, total.tensor, t.tensor, pr.u)
        phi = phi.add(inj.w.mul(t.phi).mul(tproj))
    return phi


@pytest.mark.parametrize("make", [t2_a4_rad2, t2k])
def test_triple_direct_sum_places_phi(make):
    spec = make()
    pool = _cover_test_triples(spec)
    rng = random.Random(3)
    for _ in range(15):
        triples = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 4))]
        total, injs, projs = tm.triple_direct_sum(spec, triples)
        assert total.tensor == tm.tensor_basis(spec, total.x)
        assert total.phi == _phi_by_products(spec, triples, injs, projs)
        assert total.check()
        assert all(m.is_valid() for m in injs + projs)


def test_triple_cover_builds_no_tensor(monkeypatch):
    # a cover over T is read off T's column projectives: no M (x) X is formed
    spec = t2_a4_rad2()
    triples = _cover_test_triples(spec)

    def refuse(*args):
        raise AssertionError("tensor_basis called by a triple cover")

    monkeypatch.setattr(tm, "tensor_basis", refuse)
    for t in triples:
        cover, pi = scm.projective_cover_sc(t)
        assert cover.dim >= t.dim and rank(pi.mat) == t.dim


@pytest.mark.parametrize("make", [t2_a4_rad2, t2k, m_zero], ids=["T2(A4/rad2)", "T2(k)", "M=0"])
def test_triples_with_zero_x_share_the_spec_zero_tensor(make, monkeypatch):
    spec = make()
    zx = scm.zero_sc_module(spec.r)
    assert tm.tensor_basis(spec, zx) is spec.zero_tensor
    td = spec.zero_tensor
    assert (td.dim, td.proj, td.lift, list(td.module.action)) == _tensor_by_elimination(spec, zx)

    def refuse(*args):
        raise AssertionError("tensor_basis called for X = 0")

    monkeypatch.setattr(tm, "tensor_basis", refuse)
    y = spec.coldata_s().columns[0][0]
    for t in (cats.triple_cat(spec).zero_obj(), tm.e2_lambda(spec, y)):
        assert t.tensor is spec.zero_tensor and t.check()


# -- maps read through M's action ------------------------------------------------------

def _hom_basis_by_tensor_maps(a, b):
    """Reference triple hom basis as (u, w) pairs: the compatibility
    w . phi_a = phi_b . (M (x) u) written out entry by entry, with the
    tensor map of every elementary u."""
    spec = a.spec
    f = spec.r.field
    ux = b.x.dim * a.x.dim
    shapes = [(b.x.dim, a.x.dim), (b.y.dim, a.y.dim)]
    rows = _commuting_rows(f, shapes, [(0, sa, 0, ta) for sa, ta in zip(a.x.action, b.x.action)]
                           + [(1, sa, 1, ta) for sa, ta in zip(a.y.action, b.y.action)])
    total = ux + b.y.dim * a.y.dim
    tu_of = {}
    for k in range(b.x.dim):
        for j in range(a.x.dim):
            e = [f.zero()] * ux
            e[k * a.x.dim + j] = f.one()
            tu_of[(k, j)] = tm.tensor_map(spec, a.tensor, b.tensor, Mat(f, b.x.dim, a.x.dim, tuple(e)))
    for i in range(b.y.dim):
        for j in range(a.tensor.dim):
            row = [f.zero()] * total
            for l in range(a.y.dim):
                row[ux + i * a.y.dim + l] = f.add(row[ux + i * a.y.dim + l], a.phi.at(l, j))
            for (k, jj), tu in tu_of.items():
                acc = f.zero()
                for t in range(b.tensor.dim):
                    acc = f.add(acc, f.mul(b.phi.at(i, t), tu.at(t, j)))
                row[k * a.x.dim + jj] = f.sub(row[k * a.x.dim + jj], acc)
            if any(row):
                rows.append(row)
    return [(u, w) for u, w in _kernel_blocks(f, rows, shapes)]


def _valid_by_tensor_maps(h):
    """Reference ``TripleMap.is_valid``: u and w module maps and
    w . phi = phi' . (M (x) u)."""
    s, t = h.source, h.target
    return (all(h.u.mul(a) == b.mul(h.u) for a, b in zip(s.x.action, t.x.action))
            and all(h.w.mul(a) == b.mul(h.w) for a, b in zip(s.y.action, t.y.action))
            and h.w.mul(s.phi) == t.phi.mul(tm.tensor_map(s.spec, s.tensor, t.tensor, h.u)))


def _kernel_phi_by_solve(incl):
    """Reference kernel phi: solves incl_Y . phi_K = phi . (M (x) incl_X)."""
    k, s = incl.source, incl.target
    return solve_matrix(incl.w, s.phi.mul(tm.tensor_map(s.spec, k.tensor, s.tensor, incl.u)))


def _quotient_phi_by_solve(proj):
    """Reference quotient phi: solves phi-bar . (M (x) q_X) = q_Y . phi, or
    None when it has no solution."""
    s, q = proj.source, proj.target
    tq = tm.tensor_map(s.spec, s.tensor, q.tensor, proj.u)
    xt = solve_matrix(tq.transpose(), proj.w.mul(s.phi).transpose())
    return None if xt is None else xt.transpose()


def _psi_test_triples(spec):
    """The cover test triples and the kernels of their covers."""
    out = _cover_test_triples(spec)
    return out + [tm.triple_kernel(_triple_cover(t)[1])[0] for t in out]


def _random_combination(rng, a, b, basis):
    f, cat = a.spec.r.field, cats.triple_cat(a.spec)
    h = cat.zero_map(a, b)
    for m in basis:
        h = cat.add_map(h, cat.scale_map(m, f.of_int(rng.randint(-1, 2))))
    return h


PSI_SPECS = [t2_a4_rad2, t2_kA2, t2k, t2_dual, m_zero]
PSI_IDS = ["T2(A4/rad2)", "T2(kA2)", "T2(k)", "T2(dual numbers)", "M=0"]


@pytest.mark.parametrize("make", PSI_SPECS, ids=PSI_IDS)
def test_triple_hom_basis_equals_the_tensor_map_construction(make):
    spec = make()
    pool = _psi_test_triples(spec)
    rng = random.Random(31)
    ends = pool[::2]
    pairs = [(t, t) for t in ends] + [(rng.choice(pool), rng.choice(pool)) for _ in range(12)]
    nonzero = 0
    for a, b in pairs:
        got = [(h.u, h.w) for h in cats.triple_cat(spec).hom_basis(a, b)]
        assert got == _hom_basis_by_tensor_maps(a, b)
        nonzero += bool(got)
    assert nonzero >= sum(not t.is_zero() for t in ends)  # End of a nonzero triple is nonzero


@pytest.mark.parametrize("make", PSI_SPECS, ids=PSI_IDS)
def test_is_valid_agrees_with_the_tensor_map_check(make):
    spec = make()
    f = spec.r.field
    pool = _psi_test_triples(spec)
    rng = random.Random(37)
    verdicts = []
    for _ in range(30):
        a, b = rng.choice(pool), rng.choice(pool)
        h = _random_combination(rng, a, b, cats.triple_cat(spec).hom_basis(a, b))
        maps = [h]
        for part in ("u", "w"):
            m = getattr(h, part)
            if m.rows and m.cols:
                ent = list(m.entries)
                at = rng.randrange(len(ent))
                ent[at] = f.add(ent[at], f.one())
                bumped = Mat(f, m.rows, m.cols, tuple(ent))
                maps.append(tm.TripleMap(a, b, bumped, h.w) if part == "u"
                            else tm.TripleMap(a, b, h.u, bumped))
        for m in maps:
            verdicts.append(m.is_valid())
            assert verdicts[-1] == _valid_by_tensor_maps(m)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("make", PSI_SPECS, ids=PSI_IDS)
def test_kernel_and_quotient_phi_equal_the_solved_ones(make):
    spec = make()
    cat = cats.triple_cat(spec)
    pool = _cover_test_triples(spec)
    rng = random.Random(41)
    maps = [_triple_cover(t)[1] for t in pool]
    for _ in range(12):
        a, b = rng.choice(pool), rng.choice(pool)
        maps.append(_random_combination(rng, a, b, cats.triple_cat(spec).hom_basis(a, b)))
    for h in maps:
        k, incl = tm.triple_kernel(h)
        assert k.phi == _kernel_phi_by_solve(incl)
        q, proj = cat.quotient(h.source, cat.map_mats(incl))
        assert q.phi == _quotient_phi_by_solve(proj)
        assert q.check() and proj.is_valid()


@pytest.mark.parametrize("make", [t2_a4_rad2, t2k, t2_dual], ids=["T2(A4/rad2)", "T2(k)",
                                                                 "T2(dual numbers)"])
def test_quotient_refuses_exactly_what_the_solve_refuses(make):
    # (X, 0) inside (X, M (x) X)_1 is no subtriple when M (x) X != 0
    spec = make()
    f = spec.r.field
    cat = cats.triple_cat(spec)
    for col, _ in spec.coldata_r().columns:
        t = tm.e1_lambda(spec, col)
        cols = {"x": Mat.identity(f, t.x.dim), "y": Mat.zeros(f, t.y.dim, 0)}
        with pytest.raises(QuivhomError, match="not a submodule"):
            cat.quotient(t, cols)
        qx, xproj, _ = scm.quotient_sc(t.x, cols["x"])
        qt = tm.TripleModule(spec, qx, t.y, Mat.zeros(f, t.y.dim, 0))
        assert _quotient_phi_by_solve(tm.TripleMap(t, qt, xproj, Mat.identity(f, t.y.dim))) is None


def test_triple_maps_build_no_tensor_map(monkeypatch):
    spec = t2_a4_rad2()
    cat = cats.triple_cat(spec)
    pool = _cover_test_triples(spec)
    calls = []
    monkeypatch.setattr(tm, "tensor_map", lambda *args: calls.append(args))
    for t in pool:
        cover, pi = _triple_cover(t)
        assert pi.is_valid()
        k, incl = tm.triple_kernel(pi)
        cat.quotient(cover, cat.map_mats(incl))
        assert scm.hom_basis_sc(k, k) or k.is_zero()
    assert calls == []


# -- malformed triples and caps ---------------------------------------------------------

def test_triple_rejects_parts_over_another_algebra():
    spec = t2k()
    x5 = vec_module(alg.sc_of_bqa(k_bqa(GF(5))), 1)
    with pytest.raises(AlgebraMismatch):
        tm.TripleModule(spec, x5, vec_module(spec.s, 1), Mat.zeros(QQ, 1, 1))
    with pytest.raises(AlgebraMismatch):
        tm.TripleModule(spec, vec_module(spec.r, 1), x5, Mat.zeros(QQ, 1, 1))


def test_triple_map_rejects_misshapen_components():
    spec = t2k()
    t = triple_over_t2(spec, 1, 1, [[1]])
    with pytest.raises(DimensionMismatch):
        tm.TripleMap(t, t, Mat.identity(QQ, 2), Mat.identity(QQ, 1))
    with pytest.raises(DimensionMismatch):
        tm.TripleMap(t, t, Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 2))


def test_triple_pd_rejects_negative_cap():
    spec = t2k()
    for t in (tm.e1_lambda(spec, vec_module(spec.r, 1)), cats.triple_cat(spec).zero_obj()):
        with pytest.raises(QuivhomError, match="cap"):
            tm.triple_pd(t, -1)
    with pytest.raises(QuivhomError, match="cap"):
        tm.trimat_gldim(spec, -1)


# -- T as a structure-constant algebra ------------------------------------------------

def _r_ne_s_specs():
    """The R != S specs of the witness tests: R = k, S = kA2 or k x k, M = S."""
    r = alg.sc_of_bqa(k_bqa())
    out = []
    for base in (alg.path_algebra(QQ, qv.a_n(2)),
                 alg.path_algebra(QQ, qv.make_quiver(["1", "2"], []))):
        s = alg.sc_of_bqa(base)
        m = tm.Bimodule(s, r, s.dim, scm.regular_module(s).action, [Mat.identity(QQ, s.dim)])
        out.append(tm.TriRingSpec(r, s, m))
    return out


def _t_specs():
    return [t2k(), t2_kA2(), t2_dual(), *_r_ne_s_specs()]


@pytest.mark.parametrize("at", range(5), ids=["T2(k)", "T2(kA2)", "T2(dual numbers)",
                                              "k<kA2", "k<kxk"])
def test_t_is_the_triangular_ring(at):
    # T on the basis R, then M, then S is associative, its attached radical
    # rad R + M + rad S is the trace-form radical, and its basis is adapted
    # to its idempotents, so its column projectives are read off the table
    spec = _t_specs()[at]
    t = spec.t
    t.validate()
    assert t.dim == spec.r.dim + spec.m.dim + spec.s.dim
    attached = Mat.from_rows(QQ, t.known_radical)
    trace_form = alg.radical_sc(t)
    both = Mat.from_rows(QQ, list(t.known_radical) + [list(v) for v in trace_form])
    assert rank(attached) == len(trace_form) == rank(both)
    cd = scm.column_data(t)
    assert len(cd.columns) == len(spec.r.idempotents) + len(spec.s.idempotents)
    # (r, m, s)(r', m', s') = (rr', m r' + s m', ss') on the unit vectors
    e = Mat.identity(QQ, t.dim).row_list()
    r_unit, s_unit = e[0], e[spec.r.dim + spec.m.dim]
    m_first = e[spec.r.dim]
    assert t.multiply(r_unit, m_first) == (QQ.zero(),) * t.dim
    assert t.multiply(m_first, m_first) == (QQ.zero(),) * t.dim
    assert t.multiply(s_unit, r_unit) == (QQ.zero(),) * t.dim


def test_spec_refuses_a_bimodule_over_other_algebras():
    # M = kA2 as a kA2-k-bimodule has S = kA2 and R = k, not R = kA2 and S = k
    a2 = alg.sc_of_bqa(alg.path_algebra(QQ, qv.a_n(2)))
    k = alg.sc_of_bqa(k_bqa())
    m = tm.Bimodule(a2, k, a2.dim, scm.regular_module(a2).action, [Mat.identity(QQ, a2.dim)])
    assert m.check()
    with pytest.raises(AlgebraMismatch):
        tm.TriRingSpec(a2, k, m)
    assert tm.TriRingSpec(k, a2, m).t.dim == 7


def test_spec_refuses_a_bimodule_basis_not_adapted_to_the_idempotents():
    # R = k x k acting on M = k^2 on the right by e_1 -> [[1, 1], [0, 0]]:
    # a bimodule, but m_2 e_1 = m_1 is neither m_2 nor 0
    kk = alg.sc_of_bqa(alg.path_algebra(QQ, qv.make_quiver(["1", "2"], [])))
    k = alg.sc_of_bqa(k_bqa())
    p = Mat.from_rows(QQ, [[1, 1], [0, 0]])
    m = tm.Bimodule(k, kk, 2, [Mat.identity(QQ, 2)], [p, Mat.identity(QQ, 2).sub(p)])
    assert m.check()
    with pytest.raises(QuivhomError, match="not adapted"):
        tm.TriRingSpec(kk, k, m)


# -- answers pinned across the move to modules over T -------------------------------------

def _resolution_pool(spec):
    """The resolutions benchmark's pieces: simples and the e1/e2 columns."""
    pool = [t for _, _, t in tm.simple_triples(spec)]
    pool += [tm.e1_lambda(spec, col) for col, _ in spec.coldata_r().columns]
    return pool + [tm.e2_lambda(spec, col) for col, _ in spec.coldata_s().columns]


# (indices into the pool, pd), drawn by random.Random(29), recorded when
# triples kept their own cover and kernel
PD_PINS = [((2, 11, 9, 2, 11, 12, 13, 0), 4), ((3, 14, 7, 11), 1), ((15, 10, 13, 6), 1),
           ((5, 7, 13, 13, 6, 13, 9), 2), ((7, 13, 15, 4, 9, 9), 3),
           ((15, 12, 3, 11, 4, 8, 4, 10), 3), ((12, 5, 13, 13), 2),
           ((9, 4, 10, 6, 8, 0, 0), 4), ((13, 4, 13, 4, 9, 0, 1), 4), ((9, 3, 0, 1), 4),
           ((0, 4, 5, 14), 4), ((7, 2, 0, 6, 8, 15), 4)]


def test_triple_pd_of_sums_over_t2_a4_rad2_is_pinned():
    spec = t2_a4_rad2()
    pool = _resolution_pool(spec)
    assert len(pool) == 16
    rng = random.Random(29)
    for idx, pd in PD_PINS:
        assert idx == tuple(rng.randrange(len(pool)) for _ in range(rng.randint(4, 8)))
        total, _, _ = tm.triple_direct_sum(spec, [pool[i] for i in idx])
        assert tm.triple_pd(total, 20) == Dim.finite(pd)


def test_trimat_gldim_is_pinned():
    assert tm.trimat_gldim(t2_a4_rad2()) == Dim.finite(4)
    assert tm.trimat_gldim(t2k()) == Dim.finite(1)
    # R = k[x]/(x^2), S = k, M = k: gl.dim R is infinite, so the cap is hit
    r = alg.sc_of_bqa(dual_numbers())
    s = alg.sc_of_bqa(k_bqa())
    m = tm.Bimodule(s, r, 1, [Mat.identity(QQ, 1)], [Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)])
    spec = tm.TriRingSpec(r, s, m)
    for cap in (3, 6):
        assert tm.trimat_gldim(spec, cap) == Dim.at_least(cap)
    assert tm.trimat_gldim(t2_dual(), 5) == Dim.at_least(5)


@pytest.mark.parametrize("make", [t2_a4_rad2, t2k])
def test_projectivity_verdicts_agree_on_the_pool(make):
    # the FGR criterion and the cover over T agree on every piece, and on a
    # sum with a simple in it, which is not projective
    spec = make()
    pool = _cover_test_triples(spec)
    verdicts = []
    for t in pool:
        ok, det = tm.is_projective_triple(t)
        assert ok == det["projective_over_t"]
        verdicts.append(ok)
    assert True in verdicts and False in verdicts
    simple = next(t for _, _, t in tm.simple_triples(spec))
    total = tm.triple_sum(spec, [tm.e1_lambda(spec, spec.coldata_r().columns[0][0]), simple])
    ok, det = tm.is_projective_triple(total)
    assert not ok and not det["projective_over_t"]
