"""Witnesses pinned matrix for matrix.

Each case builds a seeded complex, its witness, and one SHA-256 over every
matrix of the witness tree: the shape and ``Field.format`` of each entry of
every object, differential and chain-map block, walked in a fixed order.
The digests were recorded from a build whose witnesses were checked by
``witness_check``, so a change that keeps them keeps every witness entry for
entry; a change that moves one must say why and record the new digest.
"""

import hashlib
import random

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.exactlin import QQ, Mat

_NONZERO = (-2, -1, 1, 2)
FAMILIES = ("kronecker", "a3", "d4", "t2")
# (family, terms, shortcut, seed, zero differentials): random differentials
# reach the node on either path, and zero ones let the shortcut split
CASES = [(family, terms, shortcut, seed, False) for family in FAMILIES for terms in (2, 3)
         for shortcut in (True, False) for seed in (0, 1)] \
    + [(family, 2, shortcut, 0, True) for family in FAMILIES for shortcut in (True, False)]


def _rand_mat(rng, rows, cols):
    return Mat(QQ, rows, cols, tuple(QQ.of_int(rng.choice(_NONZERO)) for _ in range(rows * cols)))


def _morphism(rng, cat, x, y):
    """A combination of a hom basis with seeded nonzero coefficients."""
    f = cat.zero_map(x, y)
    for b in cat.hom_basis(x, y):
        f = cat.add_map(f, cat.scale_map(b, QQ.of_int(rng.choice(_NONZERO))))
    return f


def _complex(rng, cat, terms, obj, kernel, zero):
    if terms == 2:
        x0, x1 = obj(), obj()
        d = cat.zero_map(x0, x1) if zero else _morphism(rng, cat, x0, x1)
        return dv.Complex(cat, 0, 1, {0: x0, 1: x1}, {0: d})
    # d0 factors through the kernel of d1, so d1 o d0 = 0
    x1, x2 = obj(), obj()
    d1 = _morphism(rng, cat, x1, x2)
    ker, incl = kernel(d1)
    x0 = obj()
    return dv.Complex(cat, 0, 2, {0: x0, 1: x1, 2: x2},
                      {0: cat.compose(incl, _morphism(rng, cat, x0, ker)), 1: d1})


def _quiver(family):
    return {"kronecker": qv.kronecker(), "a3": qv.a_n(3), "d4": qv.d4((1, 0, 1))}[family]


def _witness(family, terms, shortcut, seed, zero):
    rng = random.Random(seed)
    k = alg.ground_field_algebra(QQ)
    if family == "t2":
        spec = tm.t2_spec(k)

        def triple():
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            x = scm.SCModule(spec.r, a, [Mat.identity(QQ, a)])
            y = scm.SCModule(spec.s, b, [Mat.identity(QQ, b)])
            return tm.TripleModule(spec, x, y, _rand_mat(rng, b, a))

        cx = _complex(rng, cats.triple_cat(spec), terms, triple, tm.triple_kernel, zero)
        gen = [scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])]
        return cx, dv.triple_complex_witness(cx, gen, [scm.SCModule(spec.s, 1, gen[0].action)],
                                             shortcut=shortcut)
    q = _quiver(family)

    def rep():
        if zero:  # a projective, which the shortcut splits off the generators
            return rc.left_adjoint(q, rng.choice(q.vertices), alg.AlgMod(k, {"1": 1}, {}))
        mods = {v: alg.AlgMod(k, {"1": rng.randint(0, 2)}, {}) for v in q.vertices}
        return rc.Rep(q, k, mods, {a.name: alg.ModMap(mods[a.source], mods[a.target], {
            "1": _rand_mat(rng, mods[a.target].dims["1"], mods[a.source].dims["1"])})
            for a in q.arrows})

    cx = _complex(rng, cats.rep_cat(q, k), terms, rep, alg.kernel_of, zero)
    return cx, dv.rep_complex_witness(cx, [alg.AlgMod(k, {"1": 1}, {})], shortcut=shortcut)


class _Digest:
    """SHA-256 over the matrices of a witness tree, in a fixed walk order."""

    def __init__(self, field):
        self.f, self.h = field, hashlib.sha256()

    def text(self, s):
        self.h.update(s.encode())

    def mat(self, m):
        self.text(f"{m.rows}x{m.cols}:" + ",".join(self.f.format(e) for e in m.entries) + ";")

    def obj(self, x):
        if isinstance(x, alg.AlgMod):
            self.text("mod" + ",".join(f"{v}={x.dims[v]}" for v in sorted(x.dims, key=str)) + ";")
            for a in sorted(x.mats, key=str):
                self.mat(x.mats[a])
        elif isinstance(x, tm.TripleModule):
            self.text("triple;")
            self.obj(x.x)
            self.obj(x.y)
            self.mat(x.phi)
            self.text(f"free{x.tensor.free};")
            for m in [x.tensor.proj, x.tensor.lift, *x.tensor.module.action]:
                self.mat(m)
        else:
            self.text(f"sc{x.dim};")
            for m in x.action:
                self.mat(m)

    def map(self, cat, g):
        mats = cat.map_mats(g)
        for key in sorted(mats, key=str):
            self.mat(mats[key])

    def complex(self, c):
        self.text(f"complex[{c.lo},{c.hi}];")
        for i in c.degrees():
            self.obj(c.objs[i])
        for i in range(c.lo, c.hi):
            self.map(c.cat, c.diffs[i])

    def chain(self, g):
        if g is None:
            self.text("none;")
            return
        for i in sorted(g.comps):
            self.text(f"<{i}>")
            self.map(g.source.cat, g.comps[i])

    def witness(self, w):
        if isinstance(w, dv.Leaf):
            self.text(f"leaf{w.entries};")
            self.complex(w.target)
            self.chain(w.incl)
            self.chain(w.retr)
            if w.replaced is not None:
                self.complex(w.replaced)
                self.chain(w.to_replaced)
                self.chain(w.from_replaced)
            return
        self.text("node;")
        self.complex(w.target)
        for c in (w.ses.a, w.ses.b, w.ses.c):
            self.complex(c)
        for g in (w.ses.incl, w.ses.epi, w.factor_incl, w.factor_retr):
            self.chain(g)
        self.witness(w.child_mid)
        self.witness(w.child_shift)


def witness_digest(w, gens, cat) -> str:
    d = _Digest(cat.field)
    for g in gens:
        d.obj(g)
    d.witness(w)
    return d.h.hexdigest()


def _digest(case):
    cx, (w, gens) = _witness(*case)
    ok, failure = dv.witness_check(w, gens, 2, cx.cat)
    assert ok, failure
    return witness_digest(w, gens, cx.cat)


# recorded before the standard triangle was read off the pushed children
DIGESTS = {
    ('kronecker', 2, True, 0, False): '8e08f5d479f96029ab0cbb3656d0d47c1076b0b74b29a152d3d457840195d141',
    ('kronecker', 2, True, 1, False): 'f7ee617bb26046dad2bbe695925eb164ea8cbbc7ee946db36eed95a5a4886b5a',
    ('kronecker', 2, False, 0, False): '8e08f5d479f96029ab0cbb3656d0d47c1076b0b74b29a152d3d457840195d141',
    ('kronecker', 2, False, 1, False): 'f7ee617bb26046dad2bbe695925eb164ea8cbbc7ee946db36eed95a5a4886b5a',
    ('kronecker', 3, True, 0, False): 'dd324c72bd762067ed15c3419d86b438822774d3b2e84e069de0f3121b231ceb',
    ('kronecker', 3, True, 1, False): 'e87e6d3d8ef015dd1d07736935a3e27510d98fc3fa222c9492c7cf674c8e57ae',
    ('kronecker', 3, False, 0, False): 'dd324c72bd762067ed15c3419d86b438822774d3b2e84e069de0f3121b231ceb',
    ('kronecker', 3, False, 1, False): 'e87e6d3d8ef015dd1d07736935a3e27510d98fc3fa222c9492c7cf674c8e57ae',
    ('a3', 2, True, 0, False): '36249f63cb95f79b6ea77cc0e3b133df688be6c08cfc4ef0c3c99f5d86cec4a8',
    ('a3', 2, True, 1, False): '68d2096a40518df7fb494ed762354aba4da93a4da4088051c61f9d97e5f66414',
    ('a3', 2, False, 0, False): '36249f63cb95f79b6ea77cc0e3b133df688be6c08cfc4ef0c3c99f5d86cec4a8',
    ('a3', 2, False, 1, False): '68d2096a40518df7fb494ed762354aba4da93a4da4088051c61f9d97e5f66414',
    ('a3', 3, True, 0, False): '8fd5e4f588a2f196dc1df903df46e083be1a3c62b8f3ae7bf8262d9ab1c1825d',
    ('a3', 3, True, 1, False): '9d1619269777f203226d04a0140666d518c39cccf2db3b5e190eec42e2140f70',
    ('a3', 3, False, 0, False): '8fd5e4f588a2f196dc1df903df46e083be1a3c62b8f3ae7bf8262d9ab1c1825d',
    ('a3', 3, False, 1, False): '9d1619269777f203226d04a0140666d518c39cccf2db3b5e190eec42e2140f70',
    ('d4', 2, True, 0, False): '31ee90ee5115ab8ca7cd611ba56dc83878d1f9864500c44c05a017fe904ea4bb',
    ('d4', 2, True, 1, False): 'ef266b9f439e10967b9cf3e4ce2673f219c7a37e82c128e312038d34838ecaec',
    ('d4', 2, False, 0, False): '31ee90ee5115ab8ca7cd611ba56dc83878d1f9864500c44c05a017fe904ea4bb',
    ('d4', 2, False, 1, False): 'ef266b9f439e10967b9cf3e4ce2673f219c7a37e82c128e312038d34838ecaec',
    ('d4', 3, True, 0, False): 'f7268574d851cefefc72fcb78992fc60a34bd2011f01e7f6daa68c2fc6a9397e',
    ('d4', 3, True, 1, False): '7fe72fb366c2e5a4493c8d33963123a88bf654cfa68cdc5aa74a271927afc8ae',
    ('d4', 3, False, 0, False): 'f7268574d851cefefc72fcb78992fc60a34bd2011f01e7f6daa68c2fc6a9397e',
    ('d4', 3, False, 1, False): '7fe72fb366c2e5a4493c8d33963123a88bf654cfa68cdc5aa74a271927afc8ae',
    ('t2', 2, True, 0, False): '082d2aa36e60810b3a75d9625ccda760c753907413ff42fc654673356df9c95b',
    ('t2', 2, True, 1, False): 'cb6097cc9fd52f6e62ba5633c625761665549162cb07283aadcc2185bc609e64',
    ('t2', 2, False, 0, False): '082d2aa36e60810b3a75d9625ccda760c753907413ff42fc654673356df9c95b',
    ('t2', 2, False, 1, False): 'cb6097cc9fd52f6e62ba5633c625761665549162cb07283aadcc2185bc609e64',
    ('t2', 3, True, 0, False): 'f9f1af89df18c9bb62f435bdf9c758b6592e0e0746510722cbea3d8a43db1440',
    ('t2', 3, True, 1, False): '367fceb264d3f5b9e785ba34f03a25ab3f54edaf4d133fbb40f73455e3023545',
    ('t2', 3, False, 0, False): 'f9f1af89df18c9bb62f435bdf9c758b6592e0e0746510722cbea3d8a43db1440',
    ('t2', 3, False, 1, False): '367fceb264d3f5b9e785ba34f03a25ab3f54edaf4d133fbb40f73455e3023545',
    ('kronecker', 2, True, 0, True): '6636beaeeb39997cb0fc82dd81bf0d4f0e90f27b96b8f88b7876bdff238f0597',
    ('kronecker', 2, False, 0, True): '6c6c1a2194be3d903d8882841a1a71e444c4adbaec0a59a3ae69a59ee71da4a6',
    ('a3', 2, True, 0, True): 'a88cf07efe1138ace7befed52bce699e4a375506f47c9b6f292e2445f600f644',
    ('a3', 2, False, 0, True): '4a395aa6f392510a4951016baa2ca1fa2311226c9d74aff633ea2d8c786fea91',
    ('d4', 2, True, 0, True): 'da006267811984c9c82dd703ea93de028c0eb65a88731a83811d5b0678ad0110',
    ('d4', 2, False, 0, True): '0201190a35a4e2ffe8f5cd8d9d74624c497e21915edfb52e55f08f87a729e23d',
    ('t2', 2, True, 0, True): 'b3263ae7d9ec0190ba67d08223c8a0ae18dd40ce6ea97d6ad0cd446ec0a9beb4',
    ('t2', 2, False, 0, True): 'b3c6486d0af78978cda13b4f8146f9c3ab59770bf212d4bf88ee879d56cb3f95',
}


@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_witness_matches_its_recorded_digest(case):
    assert _digest(case) == DIGESTS[case]
