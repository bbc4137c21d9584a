"""The benchmark's three workloads: seeded inputs, the timed job, the output check.

Every workload is a closed loop of one client in one thread.  Its jobs come in
rounds: a round runs every template of the workload once, in an order drawn
from the seed, so each run holds the same mix of job kinds and only the
random parts of the inputs (and their order) depend on the seed.

A workload object provides

* ``templates``: the job kinds of one round;
* ``pool_rounds_per_s``: rounds of inputs generated per second of the timed
  phase, well above what the seed code completes;
* ``trace_rounds``: the fixed number of rounds of a traced run;
* ``setup(rng, rounds)``: builds the algebras and quivers and generates the
  inputs of ``rounds`` rounds, returning ``(context, rounds_of_jobs)``, where
  a job is ``(template, input)``;
* ``run(context, template, input)``: the timed job, returning its output;
* ``validate(rounds_of_jobs)``: raises if a generated input is malformed;
  called after set-up, before the timed phase;
* ``check(context, template, input, output)``: ``None`` when the output is
  correct, else the reason it is not.  Checks run outside the job timer.
"""

from __future__ import annotations

import itertools

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import repdim
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.bounds import Dim
from quivhom.exactlin import GF, QQ, Mat


_NONZERO = (-2, -1, 1, 2)


def _rand_mat(rng, rows, cols):
    return Mat(QQ, rows, cols, tuple(QQ.of_int(rng.choice(_NONZERO)) for _ in range(rows * cols)))


# ---------------------------------------------------------------------------------------
# repdim_pipeline


def _a3_middle_sink():
    return qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])


def _k3():
    return qv.make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])


class RepdimPipeline:
    """Full ``repdim_bound_report`` runs over k = QQ with A = k.

    The D4 orientations (75-207 s per report) and a dual-numbers base (over
    400 s on the Kronecker quiver) are left out until they get faster, and
    there is no prime-field variant: ``radical_sc`` raises
    ``CharPNotSupported`` outside characteristic 0.
    """

    name = "repdim_pipeline"
    templates = ("kronecker", "k3", "a2", "a3_sink")
    pool_rounds_per_s = 1
    trace_rounds = 1
    # verdict and gl.dim End(X-bar) as the library computed them when this
    # benchmark was written; the FAIL verdict on A2 is the expected answer
    # (type A is outside the hypothesis)
    expected = {
        "kronecker": ("PASS", Dim.finite(3)),
        "k3": ("PASS", Dim.finite(3)),
        "a2": ("OUT-OF-HYPOTHESIS:FAIL", Dim.finite(2)),
        "a3_sink": ("OUT-OF-HYPOTHESIS:PASS", Dim.finite(2)),
    }

    def setup(self, rng, rounds):
        k = alg.ground_field_algebra(QQ)
        summands = [alg.AlgMod(k, {"1": 1}, {})]
        build = {"kronecker": qv.kronecker, "k3": _k3, "a2": lambda: qv.a_n(2),
                 "a3_sink": _a3_middle_sink}
        quivers = {t: build[t]() for t in self.templates}
        jobs = [[(t, quivers[t]) for t in rng.sample(self.templates, len(self.templates))]
                for _ in range(rounds)]
        return (k, summands), jobs

    def validate(self, rounds):
        """The quivers and the base module are built by fixed code; nothing to check."""

    def run(self, ctx, template, q):
        k, summands = ctx
        report = repdim.repdim_bound_report(q, k, summands)
        return report.verdict, report.gldim_end_xbar

    def check(self, ctx, template, q, out):
        if out != self.expected[template]:
            return f"got {out[0]} / gl.dim {out[1]}, expected {self.expected[template]}"
        return None


# ---------------------------------------------------------------------------------------
# derived_witness


def _a3_orientations():
    return [qv.a_n(3), _a3_middle_sink(),
            qv.make_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "2", "3")])]


class DerivedWitness:
    """Generation witnesses for seeded 2- and 3-term complexes over k = QQ.

    Three quarters of the jobs are complexes of representations (Kronecker,
    the three A3 orientations, the eight D4 orientations), one quarter are
    complexes of triples over T2(k).  Half of the jobs build the witness with
    ``shortcut=False``, so the standard triangle and the pushforward assembly
    run; every job then verifies the witness with ``witness_check`` at depth 2.
    """

    name = "derived_witness"
    templates = tuple((family, terms, shortcut)
                      for family in ("kronecker", "a3", "d4", "t2")
                      for terms in (2, 3) for shortcut in (True, False))
    pool_rounds_per_s = 4
    trace_rounds = 4
    # every object has total dimension one per vertex (two for a triple), at
    # most 2 per vertex.  Orientations and dimension vectors follow a fixed
    # cycle per family and the seed draws the (nonzero) scalars and the job
    # order: every run then holds the same mix of job shapes, which keeps the
    # metrics from moving with the seed
    max_dim = 2

    def setup(self, rng, rounds):
        k = alg.ground_field_algebra(QQ)
        quivers = {"kronecker": [qv.kronecker()], "a3": _a3_orientations(),
                   "d4": [q for _, q in qv.d4_orientations()]}
        rep_cats = {id(q): cats.rep_cat(q, k) for qs in quivers.values() for q in qs}
        spec = tm.t2_spec(k)
        ctx = {
            "k_gens": [alg.AlgMod(k, {"1": 1}, {})],
            "r_gens": [scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])],
            "s_gens": [scm.SCModule(spec.s, 1, [Mat.identity(QQ, 1)])],
        }
        tcat = cats.triple_cat(spec)
        orientations = {f: itertools.cycle(qs) for f, qs in quivers.items()}
        dims = {f: itertools.cycle(self._dim_vectors(len(qs[0].vertices)))
                for f, qs in quivers.items()}
        dims["t2"] = itertools.cycle(self._dim_vectors(2))
        jobs = []
        for _ in range(rounds):
            this_round = []
            for family, terms, shortcut in self.templates:
                if family == "t2":
                    cx = self._complex(rng, tcat, terms,
                                       lambda: self._triple(rng, spec, next(dims["t2"])),
                                       tm.triple_kernel)
                else:
                    q = next(orientations[family])
                    cx = self._complex(rng, rep_cats[id(q)], terms,
                                       lambda q=q, f=family: self._rep(rng, q, k, next(dims[f])),
                                       rc.rep_kernel)
                this_round.append(((family, terms, shortcut), cx))
            rng.shuffle(this_round)
            jobs.append(this_round)
        return ctx, jobs

    def _dim_vectors(self, n):
        return [d for d in itertools.product(range(self.max_dim + 1), repeat=n) if sum(d) == n]

    def _rep(self, rng, q, k, dim_vector):
        dims = dict(zip(q.vertices, dim_vector))
        mods = {v: alg.AlgMod(k, {"1": dims[v]}, {}) for v in q.vertices}
        maps = {a.name: alg.ModMap(mods[a.source], mods[a.target],
                                   {"1": _rand_mat(rng, dims[a.target], dims[a.source])})
                for a in q.arrows}
        return rc.Rep(q, k, mods, maps)

    def _triple(self, rng, spec, dim_vector):
        a, b = dim_vector
        x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
        y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
        return tm.TripleModule(spec, x, y, _rand_mat(rng, b, a))

    @staticmethod
    def _morphism(rng, cat, x, y):
        """A combination of a Hom basis with random nonzero coefficients."""
        f = cat.zero_map(x, y)
        for b in cat.hom_basis(x, y):
            f = cat.add_map(f, cat.scale_map(b, QQ.of_int(rng.choice(_NONZERO))))
        return f

    def _complex(self, rng, cat, terms, obj, kernel):
        if terms == 2:
            x0, x1 = obj(), obj()
            return dv.Complex(cat, 0, 1, {0: x0, 1: x1}, {0: self._morphism(rng, cat, x0, x1)})
        # d0 factors through the kernel of a random d1, so d1 o d0 = 0
        x1, x2 = obj(), obj()
        d1 = self._morphism(rng, cat, x1, x2)
        ker, incl = kernel(d1)
        x0 = obj()
        d0 = cat.compose(incl, self._morphism(rng, cat, x0, ker))
        return dv.Complex(cat, 0, 2, {0: x0, 1: x1, 2: x2}, {0: d0, 1: d1})

    def validate(self, rounds):
        for jobs in rounds:
            for template, cx in jobs:
                if not cx.check():
                    raise ValueError(f"generated {template} input is not a complex (d o d != 0)")

    def run(self, ctx, template, cx):
        family, _, shortcut = template
        if family == "t2":
            w, gens = dv.triple_complex_witness(cx, ctx["r_gens"], ctx["s_gens"],
                                                shortcut=shortcut)
        else:
            w, gens = dv.rep_complex_witness(cx, ctx["k_gens"], shortcut=shortcut)
        ok, failure = dv.witness_check(w, gens, 2, cx.cat)
        return ok, failure, w.depth(), w.target

    def check(self, ctx, template, cx, out):
        ok, failure, depth, target = out
        if not ok:
            return f"witness_check failed at {failure.locus}: {failure.reason}"
        if depth > 2:
            return f"witness depth {depth} exceeds 2"
        if dv.cohomology_dims(target) != dv.cohomology_dims(cx):
            return "witness target cohomology differs from the input's"
        return None


# ---------------------------------------------------------------------------------------
# resolutions_fp


FP = GF(101)


def _linear_rad2(n):
    """Linear A_n with rad^2 = 0."""
    q = qv.a_n(n)
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, n - 1)]
    return alg.build_bqa(FP, q, rels, 2, name=f"A{n}/rad2")


def _cyclic_nakayama(n, length):
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
    return alg.build_bqa(FP, q, rels, length, name=f"N({n},{length})")


class ResolutionsFp:
    """Projective dimension and Ext over GF(101) on shared algebras.

    Module jobs compute ``pd(M, cap=12)`` and ``ext_dims(M, S_v, 3)`` for a
    sum of 4-8 simples, projectives and injectives; over the self-injective
    Nakayama algebras pd hits the cap.  A quarter of the jobs compute
    ``triple_pd`` of a sum of simple and projective triples over
    T2(A4 with rad^2 = 0).
    """

    name = "resolutions_fp"
    templates = tuple((family, parts) for family in ("a8_rad2", "nak_4_3", "nak_5_4", "t2_a4")
                      for parts in (4, 5, 6, 7, 8))
    pool_rounds_per_s = 4
    trace_rounds = 4
    cap = 12
    oracle_share = 8  # pd_via_ext checks one module job in this many

    def setup(self, rng, rounds):
        algebras = {"a8_rad2": _linear_rad2(8), "nak_4_3": _cyclic_nakayama(4, 3),
                    "nak_5_4": _cyclic_nakayama(5, 4)}
        pools, simples = {}, {}
        for family, a in algebras.items():
            simples[family] = {v: alg.simple_module(a, v) for v in a.quiver.vertices}
            pools[family] = (list(simples[family].values())
                             + [alg.projective_module(a, v) for v in a.quiver.vertices]
                             + alg.injective_indecomposables(a))
        spec = tm.t2_spec(_linear_rad2(4), name="T2(A4/rad2)")
        triple_pool = [t for _, _, t in tm.simple_triples(spec)]
        triple_pool += [tm.e1_lambda(spec, col) for col, _ in spec.coldata_r().columns]
        triple_pool += [tm.e2_lambda(spec, col) for col, _ in spec.coldata_s().columns]
        # summands come from a fixed cycle per family, entered at a seeded
        # point, so every run holds nearly the same modules; the seed also
        # draws the Ext vertices, the oracle sample and the job order
        pools["t2_a4"] = triple_pool
        summands = {f: itertools.cycle(pool[i:] + pool[:i])
                    for f, pool in pools.items() for i in [rng.randrange(len(pool))]}
        vertices = {f: itertools.cycle(rng.sample(a.quiver.vertices, len(a.quiver.vertices)))
                    for f, a in algebras.items()}
        jobs = []
        for _ in range(rounds):
            this_round = []
            for family, parts in rng.sample(self.templates, len(self.templates)):
                chosen = [next(summands[family]) for _ in range(parts)]
                if family == "t2_a4":
                    t, _, _ = tm.triple_direct_sum(spec, chosen)
                    this_round.append(((family, parts), t))
                    continue
                a = algebras[family]
                m, _, _ = alg.direct_sum_mods(a, chosen)
                s = simples[family][next(vertices[family])]
                oracle = rng.randrange(self.oracle_share) == 0
                this_round.append(((family, parts), (m, s, oracle)))
            jobs.append(this_round)
        return {"spec": spec, "gldim": None}, jobs

    def validate(self, rounds):
        for jobs in rounds:
            for template, inp in jobs:
                ok = inp.check() if template[0] == "t2_a4" else inp[0].check_relations()
                if not ok:
                    raise ValueError(f"generated {template} input is not a module")

    def run(self, ctx, template, inp):
        if template[0] == "t2_a4":
            return tm.triple_pd(inp, self.cap)
        m, s, _ = inp
        return alg.pd(m, self.cap), alg.ext_dims(m, s, 3)

    def check(self, ctx, template, inp, out):
        if template[0] == "t2_a4":
            if ctx["gldim"] is None:
                ctx["gldim"] = tm.trimat_gldim(ctx["spec"], self.cap)
            if out.le(ctx["gldim"]) is not True:
                return f"triple pd {out} exceeds gl.dim {ctx['gldim']}"
            return None
        m, s, oracle = inp
        d, ext = out
        if ext[0] != alg.hom_dim(m, s):
            return f"Ext^0 = {ext[0]} differs from dim Hom = {alg.hom_dim(m, s)}"
        if d.exact and any(ext[i] for i in range(d.value + 1, len(ext))):
            return f"Ext above pd {d} is nonzero: {ext}"
        if oracle:
            want = alg.pd_via_ext(m, self.cap)
            if want != d:
                return f"pd {d} differs from the Ext oracle {want}"
        return None


WORKLOADS = {w.name: w for w in (RepdimPipeline, DerivedWitness, ResolutionsFp)}
