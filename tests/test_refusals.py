"""Malformed inputs are refused where they enter, with a typed error.

One row per probe: a thunk that hands a public entry point an input outside
its reach.  Each must raise a ``QuivhomError`` subclass, never a bare
``AttributeError``/``TypeError``/``ValueError`` from deep inside, and never
return.  A newly found refusal becomes one more row.
"""

from fractions import Fraction

import pytest

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.errors import QuivhomError
from quivhom.exactlin import GF, QQ, Mat, rank


def _ka2():
    return alg.path_algebra(QQ, qv.a_n(2))


def _simple():
    return alg.simple_module(_ka2(), "1")


def _sc():
    return alg.sc_of_bqa(_ka2())


def _t2k():
    return tm.t2_spec(alg.ground_field_algebra(QQ))


def _half_arrow_module():
    a = _ka2()
    return alg.AlgMod(a, {"1": 1, "2": 1}, {"a1": Mat.from_rows(QQ, [[0.5]])})


REFUSALS = {
    # entries that are no scalars of the field
    "from_rows float": lambda: Mat.from_rows(QQ, [[0.1]]),
    "column float": lambda: Mat.column(QQ, [0.5]),
    "from_rows string": lambda: Mat.from_rows(QQ, [[1, "x"]]),
    "Fraction over GF(5)": lambda: rank(Mat.from_rows(GF(5), [[Fraction(1, 2), 1], [1, 2]])),
    "float arrow, pd": lambda: alg.pd(_half_arrow_module()),
    # blocks that are no Mats
    "AlgMod list block": lambda: alg.AlgMod(_ka2(), {"1": 1, "2": 1}, {"a1": [[1]]}),
    "ModMap list block": lambda: alg.ModMap(_simple(), _simple(), {"1": [[1]]}),
    "SCModule list block": lambda: scm.SCModule(_sc(), 1, [[[1]]] * _sc().dim),
    "Bimodule list block": lambda: tm.Bimodule(_sc(), _sc(), 1, [[[1]]] * _sc().dim,
                                               [[[1]]] * _sc().dim),
    # malformed quivers
    "arrow of two parts": lambda: qv.make_quiver(["1", "2"], [("a", "1")]),
    "arrow as a string": lambda: qv.make_quiver(["1", "2"], ["a12"]),
    # caps, lengths and degrees that are no ints
    "pd cap": lambda: alg.pd(_simple(), "3"),
    "gldim cap": lambda: alg.gldim(_ka2(), "3"),
    "ext_dims upto": lambda: alg.ext_dims(*[_simple()] * 2, "2"),
    "minimal_resolution length": lambda: alg.minimal_resolution(_simple(), "2"),
    "pd_via_ext cap": lambda: alg.pd_via_ext(_simple(), "3"),
    "pd_sc cap": lambda: scm.pd_sc(scm.regular_module(_sc()), "3"),
    "gldim_sc cap": lambda: scm.gldim_sc(_sc(), "3"),
    "triple_pd cap": lambda: tm.triple_pd(tm.simple_triples(_t2k())[0][2], "3"),
    "trimat_gldim cap": lambda: tm.trimat_gldim(_t2k(), "3"),
    "complex degree": lambda: dv.Complex(cats.mod_cat(alg.ground_field_algebra(QQ)), "0", 1, {}, {}),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_malformed_input_is_refused_with_a_typed_error(name):
    with pytest.raises(QuivhomError):
        REFUSALS[name]()
