"""Submodules read off the rows where their RREF basis is the identity.

Covers, maps from projectives, kernels and resolution steps are compared,
entry for entry, with the formulas they replace: a full path matrix per
path (``eval_path``), a kernel basis built vector by vector and one solve
per arrow (``solve_matrix``), kept here as the oracle.  The error paths
that the unit-row reader keeps are checked over QQ and GF(101), and so is
the cost of a kernel over a structure-constant algebra or of a triple: one
elimination per nonzero side, and pd read off the same steps as the loop
that stopped at the first zero kernel.
"""

import random

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import exactlin
from quivhom import quiver as qv
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.bounds import Dim
from quivhom.errors import QuivhomError
from quivhom.exactlin import GF, QQ, Mat, rank, rref, solve_matrix

FIELDS = pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])


def _rad2(field, n):
    """Linear A_n with rad^2 = 0."""
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, n - 1)]
    return alg.build_bqa(field, qv.a_n(n), rels, 2, name=f"A{n}/rad2")


def _nakayama(field, n, length):
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


def _dual_numbers(field):
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    return alg.build_bqa(field, loop, [[(1, qv.Path("1", "1", ("x", "x")))]], 2)


TEMPLATES = {
    "kA2": lambda f: alg.path_algebra(f, qv.a_n(2)),
    "kA3": lambda f: alg.path_algebra(f, qv.a_n(3)),
    "kronecker": lambda f: alg.path_algebra(f, qv.kronecker()),
    "D4": lambda f: alg.path_algebra(f, qv.d4((0, 1, 0))),
    "dual": _dual_numbers,
    "A4/rad2": lambda f: _rad2(f, 4),
    "A5/rad2": lambda f: _rad2(f, 5),
    "N(3,2)": lambda f: _nakayama(f, 3, 2),
    "N(4,3)": lambda f: _nakayama(f, 4, 3),
    "N(3,4)": lambda f: _nakayama(f, 3, 4),
}


# -- the formulas the unit-row reader replaces -----------------------------------------

def _map_by_eval_path(p, target, gen):
    f = p.algebra.field
    return {w: Mat.hstack(f, [alg.eval_path(target, q).mul(gen) for q in p._proj_paths[w]])
            if p._proj_paths[w] else Mat.zeros(f, target.dims[w], 0)
            for w in p.algebra.quiver.vertices}


def _cover_by_eval_path(m):
    """Generators from a radical basis, pi from one path matrix per path."""
    a, f = m.algebra, m.algebra.field
    verts = a.quiver.vertices
    rad = alg.radical_submodule(m)
    pieces, cols = [], {w: [] for w in verts}
    for v in verts:
        chosen = alg.quotient_by_rows(rad[v].transpose())[2]
        if not chosen:
            continue
        pv = alg.projective_module(a, v)
        pieces.extend([pv] * len(chosen))
        for w in verts:
            acts = [alg.eval_path(m, q) for q in pv._proj_paths[w]]
            cols[w].extend(x.col(j) for j in chosen for x in acts)
    if not pieces:
        z = alg.zero_module(a)
        return z, alg.zero_map(z, m)
    total = alg.direct_sum_mods(a, pieces)[0]
    return total, alg.ModMap(total, m, {w: Mat.hstack(f, cols[w]) if cols[w]
                                        else Mat.zeros(f, m.dims[w], 0) for w in verts})


def _kernel_basis(m):
    """The kernel basis as a list of column vectors, one per non-pivot
    column of the RREF."""
    r, rk, pivots = rref(m)
    field = m.field
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero()] * m.cols
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(r.at(i, fc))
        basis.append(Mat(field, m.cols, 1, tuple(v)))
    return basis


def _kernel_by_solve(g):
    """``_kernel_basis`` per vertex, one augmented solve per arrow."""
    a, f = g.source.algebra, g.source.algebra.field
    kb = {}
    for v in a.quiver.vertices:
        vecs = _kernel_basis(g.mats[v])
        kb[v] = Mat.hstack(f, vecs) if vecs else Mat.zeros(f, g.source.dims[v], 0)
    mats = {}
    for arr in a.quiver.arrows:
        mats[arr.name] = solve_matrix(kb[arr.target], g.source.mats[arr.name].mul(kb[arr.source]))
        assert mats[arr.name] is not None
    k = alg.AlgMod(a, {v: kb[v].cols for v in a.quiver.vertices}, mats)
    return k, alg.ModMap(k, g.source, kb)


def _resolution_by_solve(m, length):
    out, current = [], m
    for _ in range(length + 1):
        p, pi = _cover_by_eval_path(current)
        d = out[-1][2].compose(pi) if out else pi
        k, incl = _kernel_by_solve(pi)
        out.append((p, d, incl))
        current = k
        if k.is_zero():
            break
    return out


def _seeded_sums(a, rng, count=4):
    verts = a.quiver.vertices
    pool = ([alg.simple_module(a, v) for v in verts] + [alg.projective_module(a, v) for v in verts]
            + alg.injective_indecomposables(a))
    sums = [alg.direct_sum_mods(a, rng.sample(pool, rng.randint(1, min(4, len(pool)))))[0]
            for _ in range(count)]
    return pool + sums + [alg.zero_module(a)]


@FIELDS
@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_unit_rows_agree_with_solve_and_eval_path(field, name):
    a = TEMPLATES[name](field)
    rng = random.Random(sorted(TEMPLATES).index(name))
    for m in _seeded_sums(a, rng):
        p, pi = alg.projective_cover(m)
        p_ref, pi_ref = _cover_by_eval_path(m)
        assert p == p_ref and pi.mats == pi_ref.mats
        k, incl = alg.kernel_of(pi)
        k_ref, incl_ref = _kernel_by_solve(pi)
        assert k == k_ref and incl.mats == incl_ref.mats
        for v in a.quiver.vertices:
            if m.dims[v]:
                gen = Mat.column(field, [rng.randint(-3, 3) for _ in range(m.dims[v])])
                pv = alg.projective_module(a, v)
                assert alg.map_from_projective(pv, m, gen).mats == _map_by_eval_path(pv, m, gen)
        steps = alg._resolution(m, 4)
        ref = _resolution_by_solve(m, 4)
        assert len(steps) == len(ref)
        for (p, d, incl), (p_ref, d_ref, incl_ref) in zip(steps, ref):
            assert p == p_ref
            assert d.mats == d_ref.mats
            assert incl.source == incl_ref.source and incl.mats == incl_ref.mats


# -- the error paths the reader keeps ------------------------------------------------------

@FIELDS
def test_kernel_of_a_map_that_breaks_an_arrow_is_refused(field):
    # on P_1 of kA2 the map (0, id) does not commute with the arrow: its
    # kernel at 1 is moved by the arrow out of the kernel at 2
    a = alg.path_algebra(field, qv.a_n(2))
    p1 = alg.projective_module(a, "1")
    g = alg.ModMap(p1, p1, {"1": Mat.zeros(field, 1, 1), "2": Mat.identity(field, 1)})
    assert not g.is_valid()
    with pytest.raises(QuivhomError, match="not arrow-stable"):
        alg.kernel_of(g)


def _restrict_sc(m, basis, units):
    """The submodule spanned by the columns of ``basis``, the identity at
    the rows ``units``: the basis cut into grades and handed to
    ``scmodule._submodule``, which reads the actions off those rows."""
    of, parts = [m.grade[u] for u in units], []
    place = {c: p for cs in m.coords for p, c in enumerate(cs)}  # c's place in its grade
    for g, cs in enumerate(m.coords):
        ks = [t for t, h in enumerate(of) if h == g]
        parts.append((scm._take(basis, cs, ks), [place[units[t]] for t in ks]))
    return scm._submodule(m, of, parts)


@FIELDS
def test_submodule_from_columns_refuses_an_unstable_span(field):
    # in the regular module of kA2 the arrow moves e_1 out of its span
    a = alg.path_algebra(field, qv.a_n(2))
    sc = alg.sc_of_bqa(a)
    reg = scm.regular_module(sc)
    e1 = Mat.column(field, sc.idempotents[0])
    with pytest.raises(QuivhomError, match="not action-stable"):
        _restrict_sc(reg, *alg._column_basis(field, [e1]))


@FIELDS
def test_triple_kernel_refuses_a_phi_that_does_not_corestrict(field):
    # T = (k, k, id) over T2(k); (u, w) = (0, id) sends all of X into the
    # kernel of u, but phi carries M (x) X onto Y, outside ker w = 0: the
    # kernel of the T-module map is refused as no submodule
    spec = tm.t2_spec(alg.ground_field_algebra(field))
    x = scm.SCModule(spec.r, 1, [Mat.identity(field, 1)])
    y = scm.SCModule(spec.s, 1, [Mat.identity(field, 1)])
    t = tm.TripleModule(spec, x, y, Mat.identity(field, 1))
    with pytest.raises(QuivhomError, match="not action-stable"):
        tm.triple_kernel(tm.TripleMap(t, t, Mat.zeros(field, 1, 1), Mat.identity(field, 1)))


# -- kernels and pd over structure-constant algebras and triples ---------------------------

def _sc_modules(sc):
    cd = scm.column_data(sc)
    cols = [col for col, _ in cd.columns]
    tops = [cd.simple_top(i) for i in range(len(cols))]
    return [scm.zero_sc_module(sc), scm.regular_module(sc), *cols, *tops,
            scm.sum_sc(sc, tops + cols[:1])]


def _triples(spec):
    cd_r, cd_s = spec.coldata_r(), spec.coldata_s()
    simples = [t for _, _, t in tm.simple_triples(spec)]
    projs = ([tm.e1_lambda(spec, col) for col, _ in cd_r.columns]
             + [tm.e2_lambda(spec, col) for col, _ in cd_s.columns])
    return [cats.triple_cat(spec).zero_obj(), *simples, *projs, tm.triple_sum(spec, simples + projs[:1])]


SC_TEMPLATES = ["kA3", "dual", "A4/rad2", "N(3,2)", "D4"]


def _count_rrefs(monkeypatch):
    """Count every rref, whichever module's name for it is called."""
    calls = []

    def counting(m):
        calls.append((m.rows, m.cols))
        return rref(m)

    for mod in (exactlin, alg):
        monkeypatch.setattr(mod, "rref", counting)
    return calls


@FIELDS
@pytest.mark.parametrize("name", SC_TEMPLATES)
def test_sc_kernels_eliminate_once_per_nonzero_side(field, name, monkeypatch):
    # the kernel basis of _null_space is restricted as it is: no second rref
    # of the same span, one rref per nonzero grade of the target; a map into
    # zero eliminates nothing
    sc = alg.sc_of_bqa(TEMPLATES[name](field))
    maps = [scm.projective_cover_sc(m)[1] for m in _sc_modules(sc)]
    calls = _count_rrefs(monkeypatch)
    twice_before = 0
    for pi in maps:
        calls.clear()
        k, incl = scm.kernel_of_sc(pi)
        assert len(calls) == sum(1 for rows in pi.target.coords if rows)  # one per nonzero grade
        assert incl.is_valid() and pi.mat.mul(incl.mat).is_zero() and k.check()
        assert k.dim == pi.mat.cols - rank(pi.mat)
        twice_before += bool(pi.mat.rows and k.dim)
    assert twice_before  # kernels that took a second rref of their basis


@FIELDS
@pytest.mark.parametrize("name", ["kA2", "dual", "A4/rad2"])
def test_triple_kernels_eliminate_once_per_nonzero_side(field, name, monkeypatch):
    # a triple kernel is the kernel over T: one rref of diag(u, w) per
    # nonzero grade of the target, and no tensor of ker u
    spec = tm.t2_spec(TEMPLATES[name](field))
    maps = []
    for t in _triples(spec):
        for s in _triples(spec):
            maps += scm.hom_basis_sc(s, t)[:1]
    calls = _count_rrefs(monkeypatch)
    both_sides = 0
    for h in maps:
        calls.clear()
        k, incl = tm.triple_kernel(h)
        assert len(calls) == sum(1 for rows in h.target.coords if rows)  # one per nonzero grade
        assert incl.is_valid() and k.check()
        both_sides += bool(k.x.dim and k.y.dim)
    assert both_sides


def _pd_by_loop(m, cap, cover, kernel):
    """pd as the loop that kept no steps computed it: one cover and one
    kernel per step, stopping at the first zero kernel."""
    if m.is_zero():
        return Dim.finite(0)
    current = m
    for i in range(cap + 1):
        _, pi = cover(current)
        current, _ = kernel(pi)
        if current.is_zero():
            return Dim.finite(i)
    return Dim.at_least(cap)


@FIELDS
def test_pd_of_sc_modules_and_triples_agrees_with_the_loop(field):
    # zero modules, pd hitting the cap (dual numbers, the self-injective
    # Nakayama algebra) and finite pd
    seen = set()
    for name in SC_TEMPLATES:
        sc = alg.sc_of_bqa(TEMPLATES[name](field))
        for m in _sc_modules(sc):
            for cap in (0, 1, 3):
                got = scm.pd_sc(m, cap)
                assert got == _pd_by_loop(m, cap, scm.projective_cover_sc, scm.kernel_of_sc)
                seen.add((m.is_zero(), got.exact))
    for name in ("kA2", "dual", "A4/rad2"):
        spec = tm.t2_spec(TEMPLATES[name](field))
        for t in _triples(spec):
            for cap in (0, 1, 3):
                got = tm.triple_pd(t, cap)
                assert got == _pd_by_loop(t, cap, scm.projective_cover_sc, scm.kernel_of_sc)
                seen.add((t.is_zero(), got.exact))
    assert seen == {(True, True), (False, True), (False, False)}
