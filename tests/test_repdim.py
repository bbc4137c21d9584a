import inspect
from fractions import Fraction

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import endo
from quivhom import exactlin
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.bounds import Dim
from quivhom.errors import NotGenCogen
from quivhom.exactlin import GF, QQ


def base_k():
    return alg.ground_field_algebra(QQ)


def kmod(a):
    return alg.AlgMod(a, {"1": 1}, {})


def base_end(k):
    return endo.end_algebra([kmod(k)], cats.mod_cat(k))


def dual_numbers():
    loop = qv.make_quiver(["1"], [("x", "1", "1")], require_acyclic=False)
    x = qv.Path("1", "1", ("x", "x"))
    return alg.build_bqa(QQ, loop, [[(1, x)]], 2)


def test_build_xbar_d4_outward():
    k = base_k()
    xbar = repdim.build_xbar(qv.d4((0, 0, 0)), k, [kmod(k)])
    assert len(xbar.x1) == 3 and len(xbar.x2) == 4 and len(xbar.x3) == 1
    assert xbar.hypothesis_ok and xbar.x3
    # X1 = simples at sinks, X2 = P_c + three injectives, X3 = S_c
    assert sorted(x.dim_total() for x in xbar.x1) == [1, 1, 1]
    assert sorted(x.dim_total() for x in xbar.x2) == [2, 2, 2, 4]
    assert [x.dim_total() for x in xbar.x3] == [1]


def test_build_xbar_single_vertex_degenerate():
    k = base_k()
    xbar = repdim.build_xbar(qv.single_vertex(), k, [kmod(k)])
    assert not xbar.x3
    assert len(xbar.x1) == 1 and len(xbar.x2) == 1


def test_build_xbar_dual_numbers_kronecker():
    d = dual_numbers()
    summands = [alg.simple_module(d, "1"), alg.projective_module(d, "1")]
    xbar = repdim.build_xbar(qv.kronecker(), d, summands)
    assert len(xbar.all_summands()) == 8


def test_build_xbar_rejects_non_gencogen():
    d = dual_numbers()
    with pytest.raises(NotGenCogen, match="base summands miss P_1, I_1"):
        repdim.build_xbar(qv.kronecker(), d, [alg.simple_module(d, "1")])


def test_module_in_add():
    d = dual_numbers()
    cat = cats.mod_cat(d)
    reg = alg.projective_module(d, "1")
    s = alg.simple_module(d, "1")
    assert cat.split_into(reg, [s, reg]) is not None
    assert cat.split_into(s, [reg]) is None
    assert repdim.check_gen_cogen_base(d, [s, reg]) == []
    assert repdim.check_gen_cogen_base(d, [s]) == ["P_1", "I_1"]


def _a2_adjoint_summands(q, k):
    out = []
    for v in q.vertices:
        out.append(rc.left_adjoint(q, v, kmod(k)))
        out.append(rc.right_adjoint(q, v, alg.injective_indecomposables(k)[0]))
    return out


def test_is_gen_cogen():
    q = qv.a_n(2)
    k = base_k()
    report = repdim.is_gen_cogen(q, k, _a2_adjoint_summands(q, k))
    assert report.ok

    p1_only = [rc.left_adjoint(q, "1", kmod(k))]
    report = repdim.is_gen_cogen(q, k, p1_only)
    assert not report.ok and report.missing


def test_is_gen_cogen_single_vertex():
    q = qv.single_vertex()
    k = base_k()
    report = repdim.is_gen_cogen(q, k, [rc.left_adjoint(q, "1", kmod(k))])
    assert report.ok  # over a point, k is both Lambda and D(Lambda)


@pytest.mark.parametrize("which", ["all", "p1_only"])
def test_is_gen_cogen_composes_only_in_the_section_solves(monkeypatch, which):
    # the universal map u into each target is placed block by block, and the
    # section solve takes u o h for every h in a basis of Hom(target, total),
    # where total sums a copy of S_i per basis map S_i -> target, from one
    # product per key: nothing is composed, and outside the hom bases each
    # solve multiplies once per vertex pair (v, u) of Q and the base
    q = qv.a_n(2)
    k = base_k()
    summands = _a2_adjoint_summands(q, k) if which == "all" \
        else [rc.left_adjoint(q, "1", kmod(k))]
    targets = [rc.left_adjoint(q, v, kmod(k)) for v in q.vertices] + \
        [rc.right_adjoint(q, v, alg.injective_indecomposables(k)[0]) for v in q.vertices]
    expected = sum(alg.hom_dim(s, t) * alg.hom_dim(t, s) for t in targets for s in summands)
    keys = len(q.vertices) * len(k.quiver.vertices)
    composed, products, columns = [], [], []
    where = {"section": 0, "hom_basis": 0}

    def counting_compose(real):
        def compose(self, other):
            composed.append(1)
            return real(self, other)
        return compose

    def inside(name, real):
        def call(*args, **kwargs):
            where[name] += 1
            try:
                return real(*args, **kwargs)
            finally:
                where[name] -= 1
        return call

    mul = exactlin.Mat.mul

    def counting_mul(self, other):
        if where["section"] and not where["hom_basis"]:
            products.append(1)
        return mul(self, other)

    solve = cats.solve_matrix

    def counting_solve(a, b):
        columns.append(a.cols)
        return solve(a, b)

    monkeypatch.setattr(alg.ModMap, "compose", counting_compose(alg.ModMap.compose))
    monkeypatch.setattr(cats.Cat, "section", inside("section", cats.Cat.section))
    monkeypatch.setattr(alg, "hom_basis", inside("hom_basis", alg.hom_basis))
    monkeypatch.setattr(exactlin.Mat, "mul", counting_mul)
    monkeypatch.setattr(cats, "solve_matrix", counting_solve)
    repdim.is_gen_cogen(q, k, summands)
    assert expected > 0 and sum(columns) == expected  # one column per basis map
    assert not composed
    assert columns and len(products) == keys * len(columns)


def test_proof_steps_d4_outward():
    k = base_k()
    xbar = repdim.build_xbar(qv.d4((0, 0, 0)), k, [kmod(k)])
    steps = repdim.verify_proof_steps(xbar, repdim.end_xbar(xbar), base_end(k), Dim.finite(0))
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
    steps = repdim.verify_proof_steps(xbar, repdim.end_xbar(xbar), base_end(k), Dim.finite(0))
    by_name = {s.name: s for s in steps}
    assert by_name["hom_vanishing"].passed is False
    assert "Hom(X2,X1)=1" in by_name["hom_vanishing"].detail
    for s in steps:
        if s.name != "hom_vanishing":
            assert s.passed is True, (s.name, s.detail)


def hom_vanishing(q):
    """X-bar over ``q`` with A = k, and the detail of its hom_vanishing step."""
    k = base_k()
    xbar = repdim.build_xbar(q, k, [kmod(k)])
    steps = repdim.verify_proof_steps(xbar, repdim.end_xbar(xbar), base_end(k), Dim.finite(0))
    return xbar, next(s for s in steps if s.name == "hom_vanishing").detail.split()


def test_vanishing_d4_and_kronecker():
    # Hom(X2rho, X2lambda) sums Hom(e^v_rho(A), e^w_lambda(A)) over sinks v
    # and non-sinks w
    for q in [qv.d4((0, 0, 0)), qv.d4((1, 1, 1)), qv.kronecker()]:
        xbar, detail = hom_vanishing(q)
        assert xbar.hypothesis_ok
        assert "Hom(X2rho,X2lambda)=0" in detail, detail


def test_vanishing_a2_counterexample():
    xbar, detail = hom_vanishing(qv.a_n(2))
    assert not xbar.hypothesis_ok
    assert "Hom(X2rho,X2lambda)=1" in detail  # Hom(I_2, P_1) = k on A_2


def test_report_kronecker():
    k = base_k()
    rep = repdim.repdim_bound_report(qv.kronecker(), k, [kmod(k)])
    assert rep.verdict == "PASS"
    assert rep.n == Dim.finite(0) and rep.bound == 5
    assert rep.gldim_end_xbar.exact and rep.gldim_end_xbar.value <= 5
    d = rep.to_json_dict()
    assert d["schema"] == 2 and d["verdict"] == "PASS" and len(d["steps"]) == 8
    assert set(d) == {"schema", "n", "gldim_end_xbar", "bound", "verdict", "hypothesis_ok",
                      "steps"}


def test_kronecker_report_residues_are_exact(monkeypatch):
    # the residues chi_i read off End(X-bar) are rationals: an int when
    # integral, else a Fraction, never a float (an int sum divided by / d)
    seen = []
    residues = endo._residues

    def recording(*args):
        out = residues(*args)
        seen.extend(out)
        return out

    monkeypatch.setattr(endo, "_residues", recording)
    k = base_k()
    assert repdim.repdim_bound_report(qv.kronecker(), k, [kmod(k)]).verdict == "PASS"
    assert seen
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in seen), seen


def test_report_a2_out_of_hypothesis():
    k = base_k()
    rep = repdim.repdim_bound_report(qv.a_n(2), k, [kmod(k)])
    assert rep.verdict.startswith("OUT-OF-HYPOTHESIS")
    by_name = {s.name: s for s in rep.steps}
    assert by_name["hom_vanishing"].passed is False  # the A_n counterexample


def test_gldim_end_xbar_permutation_and_duplicate():
    k = base_k()
    xbar = repdim.build_xbar(qv.kronecker(), k, [kmod(k)])
    base = repdim.gldim_end_xbar(repdim.end_xbar(xbar))
    rcat = cats.rep_cat(xbar.quiver, k)
    summands = xbar.all_summands()
    for reordered in (summands[::-1], summands + [summands[1]]):
        assert scm.gldim_sc(endo.end_algebra(reordered, rcat).sc) == base


def test_orientation_sweep():
    sweep = repdim.d4_orientation_projectivity_sweep()
    assert len(sweep.entries) == 8
    assert sweep.found_nonprojective


def k3():
    return qv.make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])


ORACLE_QUIVERS = {"kronecker": qv.kronecker, "k3": k3, "a2": lambda: qv.a_n(2),
                  "a3_sink": lambda: qv.make_quiver(["1", "2", "3"],
                                                    [("a", "1", "2"), ("b", "3", "2")]),
                  "single": qv.single_vertex,
                  **{"d4_" + "".join(map(str, bits)): lambda bits=bits: qv.d4(bits)
                     for bits, _ in qv.d4_orientations()}}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("name", list(ORACLE_QUIVERS))
def test_xbar_is_a_gen_cogen_over_the_path_algebra(name, field):
    # build_xbar checks A alone; the oracle tests X-bar over Lambda Q itself
    q, k = ORACLE_QUIVERS[name](), alg.ground_field_algebra(field)
    xbar = repdim.build_xbar(q, k, [kmod(k)])
    assert repdim.is_gen_cogen(q, k, xbar.all_summands()).ok


def test_xbar_is_a_gen_cogen_over_the_dual_numbers_kronecker():
    d, q = dual_numbers(), qv.kronecker()
    xbar = repdim.build_xbar(q, d, [alg.simple_module(d, "1"), alg.projective_module(d, "1")])
    assert repdim.is_gen_cogen(q, d, xbar.all_summands()).ok


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


def test_kronecker_report_builds_end_xbar_once(monkeypatch):
    # End(X-bar) is the one End algebra over the path algebra: its corners,
    # Hom modules, Hom vanishings and End isomorphisms solve no hom basis of
    # their own, and each algebra keeps one ColumnData
    counts = {"hom_basis over Lambda Q": 0, "end_algebra": 0, "ColumnData": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    q, k = qv.kronecker(), base_k()
    lq, hom_basis = rc.path_algebra_over(q, k), alg.hom_basis

    def counting_hom_basis(m, n):
        counts["hom_basis over Lambda Q"] += m.algebra is lq
        return hom_basis(m, n)

    monkeypatch.setattr(alg, "hom_basis", counting_hom_basis)
    monkeypatch.setattr(endo, "end_algebra", counting("end_algebra", endo.end_algebra))
    monkeypatch.setattr(scm.ColumnData, "__init__", counting("ColumnData", scm.ColumnData.__init__))
    rep = repdim.repdim_bound_report(q, k, [kmod(k)])
    assert rep.verdict == "PASS"
    assert counts == {"hom_basis over Lambda Q": 16, "end_algebra": 2, "ColumnData": 6}


@pytest.mark.parametrize("make_q", [qv.kronecker, lambda: qv.d4((0, 0, 0))],
                         ids=["kronecker", "d4_000"])
def test_report_certifies_one_radical_per_end_algebra(monkeypatch, make_q):
    # corners and Sigma take E's radical, so only end_algebra builds and
    # certifies one; Sigma is a sub-table of E, so no triple is built
    counts = {"end_algebra": 0, "_block_radical": 0, "_certify_radical": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    def refuse(*args, **kwargs):
        raise AssertionError("the repdim report called into trimat")

    for name in counts:
        monkeypatch.setattr(endo, name, counting(name, getattr(endo, name)))
    for name, obj in list(vars(tm).items()):
        if getattr(obj, "__module__", None) != tm.__name__:
            continue
        if inspect.isfunction(obj):
            monkeypatch.setattr(tm, name, refuse)
        elif inspect.isclass(obj):
            monkeypatch.setattr(obj, "__init__", refuse)
    k = base_k()
    rep = repdim.repdim_bound_report(make_q(), k, [kmod(k)])
    assert rep.verdict == "PASS"
    assert counts == {"end_algebra": 2, "_block_radical": 2, "_certify_radical": 2}


def test_kronecker_report_runs_no_associativity_check(monkeypatch):
    # End(X-bar) and its corners are associative by construction
    calls = []
    real = alg.SCAlgebra.validate

    def counting(self):
        calls.append(self.dim)
        return real(self)

    monkeypatch.setattr(alg.SCAlgebra, "validate", counting)
    k = base_k()
    rep = repdim.repdim_bound_report(qv.kronecker(), k, [kmod(k)])
    assert rep.verdict == "PASS" and calls == []


def test_end_xbar_columns_are_read_off_the_grading(monkeypatch):
    k = base_k()
    e = repdim.end_xbar(repdim.build_xbar(qv.kronecker(), k, [kmod(k)]))
    products = []
    real_multiply = alg.SCAlgebra.multiply

    def counting(self, x, y):
        products.append(self.dim)
        return real_multiply(self, x, y)

    def refuse(*args):
        raise AssertionError("column data solved a system or built the regular module")

    monkeypatch.setattr(alg.SCAlgebra, "multiply", counting)
    for mod in (alg, exactlin):  # alg binds the name only while it imports it
        monkeypatch.setattr(mod, "solve_matrix", refuse, raising=False)
    monkeypatch.setattr(scm, "regular_module", refuse)
    cd = scm.column_data(e.sc)
    assert len(cd.columns) == len(e.summands)
    assert 0 < len(products) <= 2 * e.dim * len(e.summands)
