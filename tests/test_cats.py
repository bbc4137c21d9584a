"""Category laws and split tests for the four adapters in ``cats`` on small fixed
inputs."""

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.exactlin import QQ, Mat, rank


def _mod_case():
    """mod kA2: the top P1 -> S1, with kernel rad P1."""
    a = alg.path_algebra(QQ, qv.a_n(2))
    x, y = alg.projective_module(a, "1"), alg.simple_module(a, "1")
    return cats.mod_cat(a), x, y


def _rep_case():
    """Kronecker representations over k: the top P(1) -> S(1)."""
    q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
    x = rc.left_adjoint(q, "1", alg.AlgMod(k, {"1": 1}, {}))
    y = rc.rep_simple(q, k, "1", "1")
    return cats.rep_cat(q, k), x, y


def _sc_case():
    """Raw modules over the structure constants of kA2: the regular module -> S1."""
    a = alg.path_algebra(QQ, qv.a_n(2))
    sc = alg.sc_of_bqa(a)
    x = scm.regular_module(sc)
    y = scm.sc_module_of_algmod(alg.simple_module(a, "1"), sc)
    return cats.sc_cat(sc), x, y


def _triple_case():
    """Triples over T2(k): the column projective (k, k)_1 -> (k, 0)_0."""
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))

    def triple(a, b, phi):
        x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
        y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
        return tm.TripleModule(spec, x, y, phi)

    x = triple(1, 1, Mat.from_rows(QQ, [[1]]))
    y = triple(1, 0, Mat.zeros(QQ, 0, 1))
    return cats.triple_cat(spec), x, y


CASES = {"mod": _mod_case, "rep": _rep_case, "sc": _sc_case, "triple": _triple_case}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cat, x, y = CASES[request.param]()
    basis = cat.hom_basis(x, y)
    assert basis, "each case needs a nonzero map x -> y"
    return cat, x, y, basis[0]


def _same(cat, f, g):
    return cat.flatten_map(f) == cat.flatten_map(g)


def _is_zero(cat, f):
    return all(c == 0 for c in cat.flatten_map(f))


def test_identity_is_neutral(case):
    cat, x, y, f = case
    assert _same(cat, cat.compose(cat.identity(y), f), f)
    assert _same(cat, cat.compose(f, cat.identity(x)), f)


def _sum_with_maps(cat, parts):
    """(total, injs, projs): the summand maps are the blocks of the identity."""
    total = cat.sum_obj(parts)
    ident = cat.identity(total)
    return total, cat.restrictions(total, ident, parts), cat.components(total, ident, parts)


def test_direct_sum_projections_and_injections(case):
    cat, x, y, _ = case
    parts = [x, y, x]
    total, injs, projs = _sum_with_maps(cat, parts)
    assert cat.total_dim(total) == sum(cat.total_dim(p) for p in parts)
    for i, p in enumerate(parts):
        assert cat.is_morphism(injs[i]) and cat.is_morphism(projs[i])
        for j, s in enumerate(parts):
            comp = cat.compose(projs[i], injs[j])
            if i == j:
                assert _same(cat, comp, cat.identity(p))
            else:
                assert _is_zero(cat, comp)


def test_sum_object_and_components_without_maps(case):
    # components and restrictions are the products with the summand maps,
    # read off as blocks
    cat, x, y, f = case
    parts = [y, x, y]
    total, injs, projs = _sum_with_maps(cat, parts)
    into = cat.stack(x, total, [f, cat.identity(x), cat.scale_map(f, QQ.of_int(3))])
    comps = cat.components(x, into, parts)
    assert all(_same(cat, c, cat.compose(p, into)) for c, p in zip(comps, projs))
    assert _same(cat, cat.stack(x, total, comps), into)
    out = cat.copair(total, y, [cat.identity(y), f, cat.zero_map(y, y)])
    rests = cat.restrictions(y, out, parts)
    assert all(_same(cat, r, cat.compose(out, i)) for r, i in zip(rests, injs))
    assert _same(cat, cat.copair(total, y, rests), out)


def test_kernel_inclusion(case):
    cat, x, y, f = case
    k, incl = cat.kernel(f)
    assert cat.total_dim(k) > 0
    assert cat.is_morphism(incl)
    assert _is_zero(cat, cat.compose(f, incl))


def test_quotient_projection(case):
    cat, x, y, f = case
    k, incl = cat.kernel(f)
    quot, proj = cat.quotient(x, cat.map_mats(incl))
    assert cat.is_morphism(proj)
    assert cat.total_dim(quot) == cat.total_dim(x) - cat.total_dim(k)
    assert _is_zero(cat, cat.compose(proj, incl))


@pytest.mark.parametrize("pair", ["xy", "xx", "yy"])
def test_hom_basis_is_an_independent_set_of_morphisms(case, pair):
    cat, x, y, _ = case
    src, dst = (x if c == "x" else y for c in pair)
    basis = cat.hom_basis(src, dst)
    assert basis
    for b in basis:
        assert cat.is_morphism(b)
    stacked = Mat.from_rows(cat.field, [cat.flatten_map(b) for b in basis])
    assert rank(stacked) == len(basis)


def test_split_into_returns_a_section_of_the_universal_map(case):
    cat, x, y, _ = case
    summands = [y, x]
    pieces, total, sec, u = cat.split_into(x, summands)
    assert cat.total_dim(total) == sum(cat.total_dim(summands[i]) for i in pieces)
    assert cat.is_morphism(u) and cat.is_morphism(sec)
    assert _same(cat, cat.compose(u, sec), cat.identity(x))


def test_split_into_refuses_a_non_summand(case):
    # in every case x is projective and y is a simple that is not, so y is
    # not in add(x)
    cat, x, y, _ = case
    assert cat.split_into(y, [x]) is None


def test_split_into_of_the_zero_object_is_empty(case):
    cat, x, y, _ = case
    pieces, total, sec, u = cat.split_into(cat.zero_obj(), [x, y])
    assert pieces == [] and cat.total_dim(total) == 0


def test_retraction_exists_exactly_for_split_inclusions(case):
    cat, x, y, f = case
    # x -> y is onto (y is simple), so a split kernel would make y a summand of x
    _, socle_incl = cat.kernel(f)
    assert cat.retraction(socle_incl) is None
    total, injs, projs = _sum_with_maps(cat, [x, y])
    r = cat.retraction(injs[0])
    assert cat.is_morphism(r)
    assert _same(cat, cat.compose(r, injs[0]), cat.identity(x))
    s = cat.section(projs[1])
    assert _same(cat, cat.compose(projs[1], s), cat.identity(y))
