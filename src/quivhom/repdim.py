"""The representation-dimension pipeline for path algebras.

From a generator-cogenerator A of the base algebra, build the three bundles

    X1 = sum of e^v_lambda(A) over sinks,
    X2 = sum of e^v_lambda(A) over non-sinks plus e^v_rho(A) over sinks,
    X3 = sum of e^v_rho(A) over non-sinks,

verify every intermediate claim (Hom vanishings, the two End isomorphisms,
projectivity of the connecting block, staged global-dimension bounds) and
compute gl.dim End(X1 + X2 + X3), which witnesses
rep.dim of the path algebra <= gl.dim End(A) + 5.

E = End(X-bar) is built once per report.  Every other algebra of the proof
is a sub-table of its structure constants and takes its radical from E:
the corners eEe (End(X1), End(X2), End(X3), End(X2rho); radical e.rad(E).e)
and the triangular algebra Sigma = [[End X1, 0], [Hom(X1, X2), End X2]],
E's table on the blocks of X1 + X2 without Hom(X2, X1) (``triangular``).
The Hom modules are sub-tables too, and the Hom vanishings are E's block
sizes.  The two End isomorphisms, End(X1) = (End A)^sinks and
End(X3) = (End A)Q' on the non-sinks, are checked in the corners at X1 and
X3: no second End over the path algebra is built.

``check_gen_cogen_base`` splits each P_u and I_u of the base off a sum of
A's summands (``Cat.split_into``), and that is all X-bar needs: it sums
e^v_lambda(A) and e^v_rho(A) over all vertices v, both functors are additive,
and e^v_lambda(P_u), e^v_rho(I_u) are the indecomposable projectives and
injectives of the path algebra.  ``is_gen_cogen`` is the oracle that tests
X-bar over the path algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from . import cats
from . import endo
from . import repcat as rc
from .bounds import Dim
from .errors import NotGenCogen, QuivhomError
from .exactlin import QQ
from .quiver import Quiver, d4_orientations, is_type_An, sinks
from .scmodule import gldim_sc, is_projective_sc, pd_sc


@dataclass
class XBar:
    """X-bar = X1 + X2 + X3 over Lambda Q, with gamma = End(A), built once
    by ``build_xbar``: the report reads n = gl.dim End(A) off it.  A summand
    e^v_side(A_i) holds (side, v, A_i) in its ``_adjoint`` tag."""

    quiver: Quiver
    algebra: object
    x1: list
    x2: list
    x3: list
    hypothesis_ok: bool
    gamma: endo.EndAlgebra

    def all_summands(self):
        return self.x1 + self.x2 + self.x3


def check_gen_cogen_base(a, summands):
    """A must contain every indecomposable projective and injective of the base."""
    cat = cats.mod_cat(a)
    missing = []
    for v in a.quiver.vertices:
        if cat.split_into(alg.projective_module(a, v), summands) is None:
            missing.append(f"P_{v}")
    for v, inj in zip(a.quiver.vertices, alg.injective_indecomposables(a)):
        if cat.split_into(inj, summands) is None:
            missing.append(f"I_{v}")
    return missing


@dataclass
class GenCogenReport:
    ok: bool
    missing: list


def is_gen_cogen(q: Quiver, a, summands) -> GenCogenReport:
    """Checks every e^v_lambda(P_i) and e^v_rho(I_i) against add(sum of
    summands): the oracle for ``build_xbar``, which needs A alone."""
    rcat = cats.rep_cat(q, a)
    injectives = alg.injective_indecomposables(a)
    targets = []
    for v in q.vertices:
        targets += [(f"proj[{v},{u}]", rc.left_adjoint(q, v, alg.projective_module(a, u)))
                    for u in a.quiver.vertices]
        targets += [(f"inj[{v},{u}]", rc.right_adjoint(q, v, imod))
                    for u, imod in zip(a.quiver.vertices, injectives)]
    missing = [label for label, t in targets if rcat.split_into(t, summands) is None]
    return GenCogenReport(not missing, missing)


def build_xbar(q: Quiver, a, summands) -> XBar:
    """X-bar from A's summands, checked nonzero (else ``QuivhomError``),
    indecomposable with split local End and to make A a
    generator-cogenerator (else ``NotGenCogen``); then so is X-bar.

    End(A) is built here, once, and kept as ``gamma``: its radical
    certificate is the check of the summands, and raises ``NotSplit``
    naming the summand that breaks it."""
    summands = list(summands)
    cat = cats.mod_cat(a)
    for i, s in enumerate(summands):
        if cat.total_dim(s) == 0:
            raise QuivhomError(f"summand {i} is zero")
    gamma = endo.end_algebra(summands, cat)
    missing = check_gen_cogen_base(a, summands)
    if missing:
        raise NotGenCogen(f"base summands miss {', '.join(missing)}")
    s = sinks(q)
    non = [v for v in q.vertices if v not in s]

    def bundle(*parts):  # (adjoint, vertices): the adjoints of every summand
        return [adjoint(q, v, m) for adjoint, verts in parts for v in verts for m in summands]

    lam, rho = rc.left_adjoint, rc.right_adjoint
    return XBar(q, a, bundle((lam, s)), bundle((lam, non), (rho, s)), bundle((rho, non)),
                hypothesis_ok=not is_type_An(q), gamma=gamma)


@dataclass
class StepResult:
    name: str
    passed: object  # True / False / None (inconclusive)
    detail: str


def end_xbar(xbar: XBar) -> endo.EndAlgebra:
    """E = End(X1 + X2 + X3), summands in X-bar's order."""
    return endo.end_algebra(xbar.all_summands(), cats.rep_cat(xbar.quiver, xbar.algebra))


def verify_proof_steps(xbar: XBar, e: endo.EndAlgebra, gamma: endo.EndAlgebra, n: Dim,
                       cap: int = 20):
    """The staged checks behind the +5 bound, each reported PASS/FAIL, read
    off ``e`` = :func:`end_xbar`; ``gamma`` is End(A), of gl.dim ``n``."""
    steps = []
    q = xbar.quiver
    n1, n2 = len(xbar.x1), len(xbar.x2)
    i1, i2 = range(n1), range(n1, n1 + n2)
    i3 = range(n1 + n2, len(e.summands))
    lam2, rho2 = ([n1 + k for k, x in enumerate(xbar.x2) if x._adjoint[0] == side]
                  for side in ("lambda", "rho"))
    vanish = {
        "Hom(X1,X3)": len(e.positions(i1, i3)),
        "Hom(X2,X1)": len(e.positions(i2, i1)),
        "Hom(X3,X1)": len(e.positions(i3, i1)),
        "Hom(X3,X2)": len(e.positions(i3, i2)),
        # the inner block that makes End(X2) triangular (sink-injective to
        # non-sink-projective maps must die; fails on chains)
        "Hom(X2rho,X2lambda)": len(e.positions(rho2, lam2)),
    }
    steps.append(StepResult("hom_vanishing", all(d == 0 for d in vanish.values()),
                            " ".join(f"{k}={v}" for k, v in vanish.items())))

    for name, idx in (("end_x1_is_product_of_gamma", i1), ("end_x3_is_gamma_subquiver", i3)):
        if not idx:  # only X3: an acyclic quiver has a sink
            steps.append(StepResult(name, True, "vacuous: no non-sinks"))
            continue
        lhs = e.corner(idx)
        try:
            rep = endo.adjoint_end_iso(q, gamma, lhs)
            steps.append(StepResult(name, rep.verified, f"dim={rep.lhs_dim}"))
        except QuivhomError as exc:
            steps.append(StepResult(name, False, str(exc)))

    if lam2 and rho2:
        m_mod = endo.hom_as_end_module(e, lam2, rho2)
        proj = is_projective_sc(m_mod)
        steps.append(StepResult("connecting_block_projective", proj, f"dim={m_mod.dim}"))
    else:
        steps.append(StepResult("connecting_block_projective", True, "vacuous"))

    end_x2 = e.corner(i2)
    g2 = gldim_sc(end_x2.sc, cap)
    bound2 = n.add_const(2)
    steps.append(StepResult("gldim_end_x2_le_n_plus_2", g2.le(bound2),
                            f"gldim={g2} bound={bound2}"))

    pd12 = pd_sc(endo.hom_as_end_module(e, i1, i2), cap)
    steps.append(StepResult("pd_hom_x1_x2_le_2", pd12.le_const(2), f"pd={pd12}"))

    g_sigma = gldim_sc(e.triangular(i1, i2).sc, cap)
    bound3 = n.add_const(3)
    steps.append(StepResult("gldim_sigma_le_n_plus_3", g_sigma.le(bound3),
                            f"gldim={g_sigma} bound={bound3}"))

    if i3:
        pd23 = pd_sc(endo.hom_as_end_module(e, i2, i3), cap)
        steps.append(StepResult("pd_hom_x2_x3_le_1", pd23.le_const(1), f"pd={pd23}"))
    else:
        steps.append(StepResult("pd_hom_x2_x3_le_1", True, "vacuous: X3 empty"))
    return steps


@dataclass
class PipelineReport:
    n: Dim
    gldim_end_xbar: Dim
    bound: int
    verdict: str
    hypothesis_ok: bool
    steps: list

    def to_json_dict(self):
        return {
            "schema": 2,
            "n": str(self.n),
            "gldim_end_xbar": str(self.gldim_end_xbar),
            "bound": self.bound,
            "verdict": self.verdict,
            "hypothesis_ok": self.hypothesis_ok,
            "steps": [{"name": s.name,
                       "passed": s.passed,
                       "detail": s.detail} for s in self.steps],
        }


def gldim_end_xbar(e: endo.EndAlgebra, cap: int = 20) -> Dim:
    """gl.dim End(X-bar), for ``e`` = :func:`end_xbar`."""
    return gldim_sc(e.sc, cap)


def repdim_bound_report(q: Quiver, a, summands, cap: int = 20) -> PipelineReport:
    xbar = build_xbar(q, a, summands)
    n = gldim_sc(xbar.gamma.sc, cap)
    e = end_xbar(xbar)
    steps = verify_proof_steps(xbar, e, xbar.gamma, n, cap)
    g = gldim_end_xbar(e, cap)
    bound = n.value + 5
    if not n.exact:
        verdict = "INCONCLUSIVE"
    else:
        chk = g.le_const(bound)
        step_fail = any(s.passed is False for s in steps)
        step_open = any(s.passed is None for s in steps)
        if chk is True and not step_fail and not step_open:
            verdict = "PASS"
        elif chk is False or step_fail:
            verdict = "FAIL"
        else:
            verdict = "INCONCLUSIVE"
    if not xbar.hypothesis_ok:
        verdict = "OUT-OF-HYPOTHESIS:" + verdict
    return PipelineReport(n, g, bound, verdict, xbar.hypothesis_ok, steps)


# -- the orientation sweep over the D_4 star --------------------------------------------

@dataclass
class OrientationSweep:
    entries: list  # (bits, hom_dim, projective)
    found_nonprojective: bool


def d4_orientation_projectivity_sweep(field=None) -> OrientationSweep:
    """Over every orientation of D_4 with a one-dimensional base: is the
    connecting module Hom(X1, X2) projective over End(X2)?  Both are read
    off E = End(X1 + X2)."""
    a = alg.ground_field_algebra(QQ if field is None else field)
    m = alg.AlgMod(a, {"1": 1}, {})
    entries = []
    for bits, q in d4_orientations():
        xbar = build_xbar(q, a, [m])
        n1, n2 = len(xbar.x1), len(xbar.x2)
        e = endo.end_algebra(xbar.x1 + xbar.x2, cats.rep_cat(q, a))
        n12 = endo.hom_as_end_module(e, range(n1), range(n1, n1 + n2))
        proj = is_projective_sc(n12)
        entries.append((bits, n12.dim, proj))
    return OrientationSweep(entries, any(not p for _, _, p in entries))
