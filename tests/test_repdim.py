import pytest

from quivhom import algebra as alg
from quivhom import quiver as qv
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom.bounds import Dim
from quivhom.errors import NotGenCogen
from quivhom.exactlin import GF, QQ


def base_k():
    return alg.ground_field_algebra(QQ)


def kmod(a):
    return alg.AlgMod(a, {"1": 1}, {})


def dual_numbers():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(QQ, loop, [[(1, x)]], 2)


def test_build_xbar_d4_outward():
    k = base_k()
    xbar = repdim.build_xbar(qv.d4((0, 0, 0)), k, [kmod(k)])
    assert len(xbar.x1) == 3 and len(xbar.x2) == 4 and len(xbar.x3) == 1
    assert xbar.hypothesis_ok and not xbar.degenerate
    # X1 = simples at sinks, X2 = P_c + three injectives, X3 = S_c
    assert sorted(x.dim_total() for x in xbar.x1) == [1, 1, 1]
    assert sorted(x.dim_total() for x in xbar.x2) == [2, 2, 2, 4]
    assert [x.dim_total() for x in xbar.x3] == [1]


def test_build_xbar_single_vertex_degenerate():
    k = base_k()
    xbar = repdim.build_xbar(qv.single_vertex(), k, [kmod(k)])
    assert xbar.degenerate and not xbar.x3
    assert len(xbar.x1) == 1 and len(xbar.x2) == 1


def test_build_xbar_dual_numbers_kronecker():
    d = dual_numbers()
    summands = [alg.simple_module(d, "1"), alg.projective_module(d, "1")]
    xbar = repdim.build_xbar(qv.kronecker(), d, summands)
    assert len(xbar.all_summands()) == 8


def test_build_xbar_rejects_non_gencogen():
    d = dual_numbers()
    with pytest.raises(NotGenCogen):
        repdim.build_xbar(qv.kronecker(), d, [alg.simple_module(d, "1")])


def test_module_in_add():
    d = dual_numbers()
    reg = alg.projective_module(d, "1")
    s = alg.simple_module(d, "1")
    assert repdim.module_in_add(reg, [s, reg])
    assert not repdim.module_in_add(s, [reg])


def test_proof_steps_d4_outward():
    k = base_k()
    xbar = repdim.build_xbar(qv.d4((0, 0, 0)), k, [kmod(k)])
    steps = repdim.verify_proof_steps(xbar, [kmod(k)], Dim.finite(0))
    by_name = {s.name: s for s in steps}
    assert len(steps) == 8
    for s in steps:
        assert s.passed is True, (s.name, s.detail)
    assert "gldim=" in by_name["gldim_end_x2_le_n_plus_2"].detail


def test_proof_steps_single_vertex_degenerate():
    # a single vertex is a chain (type A_1): the vanishing genuinely fails
    # because X1 = X2 = the base module, everything else passes
    k = base_k()
    xbar = repdim.build_xbar(qv.single_vertex(), k, [kmod(k)])
    assert not xbar.hypothesis_ok
    steps = repdim.verify_proof_steps(xbar, [kmod(k)], Dim.finite(0))
    by_name = {s.name: s for s in steps}
    assert by_name["hom_vanishing"].passed is False
    assert "Hom(X2,X1)=1" in by_name["hom_vanishing"].detail
    for s in steps:
        if s.name != "hom_vanishing":
            assert s.passed is True, (s.name, s.detail)


def test_report_kronecker():
    k = base_k()
    rep = repdim.repdim_bound_report(qv.kronecker(), k, [kmod(k)])
    assert rep.verdict == "PASS"
    assert rep.n == Dim.finite(0) and rep.bound == 5
    assert rep.gldim_end_xbar.exact and rep.gldim_end_xbar.value <= 5
    d = rep.to_json_dict()
    assert d["schema"] == 1 and d["verdict"] == "PASS" and len(d["steps"]) == 8


def test_report_a2_out_of_hypothesis():
    k = base_k()
    rep = repdim.repdim_bound_report(qv.a_n(2), k, [kmod(k)])
    assert rep.verdict.startswith("OUT-OF-HYPOTHESIS")
    by_name = {s.name: s for s in rep.steps}
    assert by_name["hom_vanishing"].passed is False  # the A_n counterexample


def test_gldim_end_xbar_permutation_and_duplicate():
    k = base_k()
    xbar = repdim.build_xbar(qv.kronecker(), k, [kmod(k)])
    base = repdim.gldim_end_xbar(xbar)
    n = len(xbar.all_summands())
    perm = list(reversed(range(n)))
    assert repdim.gldim_end_xbar(xbar, order=perm) == base
    assert repdim.gldim_end_xbar(xbar, duplicate=1) == base


def test_orientation_sweep():
    sweep = repdim.d4_orientation_projectivity_sweep()
    assert len(sweep.entries) == 8
    assert sweep.found_nonprojective


def k3():
    return qv.make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])


@pytest.mark.parametrize("p", [2, 3, 101])
def test_report_over_prime_fields_matches_rationals(p):
    k = alg.ground_field_algebra(GF(p))
    expected = [(qv.kronecker(), "PASS", 3), (k3(), "PASS", 3),
                (qv.a_n(2), "OUT-OF-HYPOTHESIS:FAIL", 2)]
    for q, verdict, gldim in expected:
        rep = repdim.repdim_bound_report(q, k, [kmod(k)])
        assert (rep.verdict, rep.gldim_end_xbar) == (verdict, Dim.finite(gldim))


def test_report_never_uses_the_trace_form_radical(monkeypatch):
    def refuse(sc):
        raise AssertionError("trace-form radical computed for an End algebra")

    monkeypatch.setattr(alg, "radical_sc", refuse)
    monkeypatch.setattr(scm, "radical_sc", refuse)
    k = base_k()
    rep = repdim.repdim_bound_report(qv.kronecker(), k, [kmod(k)])
    assert rep.verdict == "PASS" and rep.gldim_end_xbar == Dim.finite(3)
