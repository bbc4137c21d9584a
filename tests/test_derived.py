"""Generation witnesses on small complexes, checked by ``witness_check``."""

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.exactlin import QQ, Mat


def _sum_of_basis(cat, x, y):
    f = cat.zero_map(x, y)
    for b in cat.hom_basis(x, y):
        f = cat.add_map(f, b)
    return f


def _two_term(cat, x0, x1):
    return dv.Complex(cat, 0, 1, {0: x0, 1: x1}, {0: _sum_of_basis(cat, x0, x1)})


def _check(w, gens, cx):
    ok, failure = dv.witness_check(w, gens, 2, cx.cat)
    assert ok, failure
    assert w.depth() <= 2
    assert dv.cohomology_dims(w.target) == dv.cohomology_dims(cx)


def test_rep_witness_kronecker_without_shortcut():
    q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
    m = alg.AlgMod(k, {"1": 1}, {})
    cx = _two_term(cats.rep_cat(q, k), rc.left_adjoint(q, "2", m), rc.left_adjoint(q, "1", m))
    assert dv.cohomology_dims(cx) == {0: 0, 1: 2}
    w, gens = dv.rep_complex_witness(cx, [m], shortcut=False)
    assert isinstance(w, dv.Node)
    _check(w, gens, cx)


def test_triple_witness_t2k():
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))

    def triple(a, b, phi):
        x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
        y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
        return tm.TripleModule(spec, x, y, phi)

    cx = _two_term(cats.triple_cat(spec), triple(0, 1, Mat.zeros(QQ, 1, 0)),
                   triple(1, 1, Mat.from_rows(QQ, [[1]])))
    assert dv.cohomology_dims(cx) == {0: 0, 1: 1}
    r_gens = [scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])]
    s_gens = [scm.SCModule(spec.s, 1, [Mat.identity(QQ, 1)])]
    w, gens = dv.triple_complex_witness(cx, r_gens, s_gens, shortcut=False)
    _check(w, gens, cx)


def test_k2_functor_starts_in_s_modules():
    # R = k and S = kA2 differ, with M = S as an S-k-bimodule
    r = alg.sc_of_bqa(alg.ground_field_algebra(QQ))
    s = alg.sc_of_bqa(alg.path_algebra(QQ, qv.a_n(2)))
    units = [tuple(QQ.of_int(int(i == j)) for j in range(s.dim)) for i in range(s.dim)]
    m = tm.Bimodule(s, r, s.dim, [s.left_mult_matrix(u) for u in units],
                    [Mat.identity(QQ, s.dim)])
    spec = tm.TriRingSpec(r, s, m)
    k2 = dv.k2_functor(spec)
    assert k2.src_cat.zero_obj().sc is spec.s
    y = scm.regular_module(s)
    img = k2.on_map(k2.src_cat.identity(y))
    assert k2.dst_cat.is_morphism(img)
