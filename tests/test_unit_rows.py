"""Submodules read off the rows where their RREF basis is the identity.

Covers, maps from projectives, kernels and resolution steps are compared,
entry for entry, with the formulas they replace: a full path matrix per
path (``eval_path``) and one solve per arrow (``solve_matrix``), kept here
as the oracle.  The error paths that the unit-row reader keeps are checked
over QQ and GF(101).
"""

import random

import pytest

from quivhom import algebra as alg
from quivhom import quiver as qv
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.errors import CompositionInconsistent, QuivhomError
from quivhom.exactlin import GF, QQ, Mat, kernel_basis, solve_matrix

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


def _kernel_by_solve(g):
    """kernel_basis per vertex, one augmented solve per arrow."""
    a, f = g.source.algebra, g.source.algebra.field
    kb = {}
    for v in a.quiver.vertices:
        vecs = kernel_basis(g.mats[v])
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


@FIELDS
def test_submodule_from_columns_refuses_an_unstable_span(field):
    # in the regular module of kA2 the arrow moves e_1 out of its span
    a = alg.path_algebra(field, qv.a_n(2))
    sc = alg.sc_of_bqa(a)
    reg = scm.regular_module(sc)
    e1 = Mat.column(field, sc.idempotents[0])
    with pytest.raises(QuivhomError, match="not action-stable"):
        scm.submodule_from_columns(reg, e1)


@FIELDS
def test_triple_kernel_refuses_a_phi_that_does_not_corestrict(field):
    # T = (k, k, id) over T2(k); (u, w) = (0, id) sends all of X into the
    # kernel of u, but phi carries M (x) X onto Y, outside ker w = 0
    spec = tm.t2_spec(alg.ground_field_algebra(field))
    x = scm.SCModule(spec.r, 1, [Mat.identity(field, 1)])
    y = scm.SCModule(spec.s, 1, [Mat.identity(field, 1)])
    t = tm.TripleModule(spec, x, y, Mat.identity(field, 1))
    with pytest.raises(CompositionInconsistent, match="corestrict"):
        tm.triple_kernel(tm.TripleMap(t, t, Mat.zeros(field, 1, 1), Mat.identity(field, 1)))
