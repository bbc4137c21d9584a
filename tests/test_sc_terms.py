"""Structure-constant algebras keep one form of their table, its sparse terms.

Pinned here: the dense view ``SCAlgebra.mult`` of every table built in the
repdim reports equals the dense table that End(X-bar) and its cuts were
assembled as (one solve per composite, a dense cut per sub-table); a report
reads no dense view; End's reader solves nothing, with and without unit
rows in its bases; a table handed its Peirce grading checks it in place of
the unit axiom; and the constructor checks the terms' index ranges.
"""

import dataclasses

import pytest

from quivhom import algebra as alg
from quivhom import endo
from quivhom import exactlin
from quivhom import quiver as qv
from quivhom import repdim
from quivhom.errors import CompositionInconsistent, DimensionMismatch
from quivhom.exactlin import GF, QQ, Mat, solve_matrix

FIELDS = {"QQ": QQ, "GF2": GF(2), "GF3": GF(3), "GF101": GF(101)}


def _quivers():
    out = {"kronecker": qv.kronecker(),
           "k3": qv.make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")]),
           "a2": qv.a_n(2),
           "a3_sink": qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])}
    out.update(("d4_" + "".join(map(str, bits)), q) for bits, q in repdim.d4_orientations())
    return out


def _report(q, field):
    k = alg.ground_field_algebra(field)
    return repdim.repdim_bound_report(q, k, [alg.AlgMod(k, {"1": 1}, {})])


# -- the dense reference ----------------------------------------------------------------

def _dense_end_table(cat, blocks, dim):
    """E's dense table as it was assembled before the terms: every composite
    of basis maps re-expressed by a solve over its hom block's basis."""
    f = cat.field
    stacked = {key: Mat.hstack(f, [Mat.column(f, cat.flatten_map(b)) for b in basis])
               for key, (_, basis) in blocks.items() if basis}

    def express(i, j, h):
        vec = [f.zero()] * dim
        flat = Mat.column(f, cat.flatten_map(h))
        if flat.is_zero():
            return tuple(vec)
        off, basis = blocks[(i, j)]
        x = solve_matrix(stacked[(i, j)], flat)
        assert x is not None, "composite escapes its hom block"
        vec[off:off + len(basis)] = x.entries
        return tuple(vec)

    n = 1 + max(i for i, _ in blocks)
    mult = [[(f.zero(),) * dim for _ in range(dim)] for _ in range(dim)]
    for (c, d), (off_g, basis_g) in blocks.items():
        for b in range(n):
            off_f, basis_f = blocks[(d, b)]
            for gi, g in enumerate(basis_g):
                for fi, fmap in enumerate(basis_f):
                    mult[off_f + fi][off_g + gi] = express(c, b, cat.compose(fmap, g))
    return tuple(tuple(row) for row in mult)


def _dense_cut(mult, pos):
    """The sub-table on the positions ``pos``, cut densely."""
    return tuple(tuple(tuple(mult[x][y][z] for z in pos) for y in pos) for x in pos)


def _dense_path_blocks(f, gamma_mult, q):
    """(End A)Q's dense table from End A's dense one, as it was assembled."""
    n = len(gamma_mult)
    paths = [p for v in q.vertices for w in q.vertices for p in qv.paths_between(q, v, w)]
    labels = [(p, g) for p in paths for g in range(n)]
    zero = tuple(f.zero() for _ in labels)
    index = {p: i for i, p in enumerate(paths)}
    mult = [[zero for _ in labels] for _ in labels]
    for i, (r, d) in enumerate(labels):
        for j, (p, g) in enumerate(labels):
            pi = index.get(qv.concat(r, p)) if r.target == p.source else None
            if pi is not None:
                vec = list(zero)
                vec[pi * n:(pi + 1) * n] = gamma_mult[d][g]
                mult[i][j] = tuple(vec)
    return tuple(tuple(row) for row in mult)


def test_dense_views_equal_the_dense_assembly_on_48_reports(monkeypatch):
    # every table of the four templates and the eight D4 orientations, over
    # QQ, GF(2), GF(3) and GF(101): End(A) and End(X-bar) against a solve
    # per composite, corners and Sigma against a dense cut of that, and
    # (End A)Q' against its dense assembly from End A's reference
    built, refs, checked = [], {}, []
    real_set, real_end = alg.SCAlgebra._set, endo.end_algebra
    real_sub, real_paths = endo.EndAlgebra._sub_table, endo.path_block_algebra

    def record(self, *args):
        built.append(self)
        return real_set(self, *args)

    def end_algebra(summands, cat):
        e = real_end(summands, cat)
        refs[id(e.sc)] = _dense_end_table(cat, e.blocks, e.dim)
        checked.append(e.sc)
        return e

    def sub_table(self, idx, dropped):
        sub = real_sub(self, idx, dropped)
        pos = [z for i in idx for j in idx if (i, j) not in dropped for z in self.positions((i,), (j,))]
        refs[id(sub.sc)] = _dense_cut(refs[id(self.sc)], pos)
        checked.append(sub.sc)
        return sub

    def path_block_algebra(gamma, q):
        rhs, labels = real_paths(gamma, q)
        refs[id(rhs)] = _dense_path_blocks(gamma.field, refs[id(gamma)], q)
        checked.append(rhs)
        return rhs, labels

    monkeypatch.setattr(alg.SCAlgebra, "_set", record)
    monkeypatch.setattr(endo, "end_algebra", end_algebra)
    monkeypatch.setattr(endo.EndAlgebra, "_sub_table", sub_table)
    monkeypatch.setattr(endo, "path_block_algebra", path_block_algebra)
    reports = 0
    for fname, field in FIELDS.items():
        for name, q in _quivers().items():
            _report(q, field)
            reports += 1
    assert reports == 48
    assert len(built) == len(checked) == 432 and {id(sc) for sc in built} == {id(sc) for sc in checked}
    for sc in checked:
        # entry for entry, types included (an int is no Fraction(n, 1))
        assert repr(sc.mult) == repr(refs[id(sc)])


# -- counting guards ----------------------------------------------------------------------

def test_a_report_reads_no_dense_view(monkeypatch):
    reads = []
    real = alg.SCAlgebra.mult

    def counting(self):
        reads.append(self)
        return real.func(self)

    monkeypatch.setattr(alg.SCAlgebra, "mult", property(counting))
    for field in (QQ, GF(3)):
        for q in (qv.kronecker(), qv.d4((0, 1, 0))):
            assert _report(q, field).verdict == "PASS"
    assert reads == []
    sc = alg.sc_of_bqa(alg.path_algebra(QQ, qv.a_n(2)))
    assert sc.mult and len(reads) == 1  # the view is still there to read


def _xbar_end(q, field=QQ):
    k = alg.ground_field_algebra(field)
    xbar = repdim.build_xbar(q, k, [alg.AlgMod(k, {"1": 1}, {})])
    return xbar, repdim.end_xbar(xbar)


def test_end_algebra_reads_its_composites_with_no_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("a composite was solved for")

    for mod in (exactlin, endo):  # endo binds the name only while it imports it
        monkeypatch.setattr(mod, "solve_matrix", refuse, raising=False)
    for q in (qv.kronecker(), qv.d4((1, 1, 0))):
        xbar, e = _xbar_end(q)
        assert e.dim and endo.end_algebra(e.summands, e.cat).sc._terms == e.sc._terms


def _mixed(cat):
    """``cat`` with every hom basis b_0, ..., b_(d-1) replaced by
    2 b_0 + b_1, 2 b_1 + b_2, ..., 2 b_(d-1): the same spans, with no unit
    rows, so the reader finds them by an rref."""
    def hom_basis(x, y):
        basis = cat.hom_basis(x, y)
        return [cat.add_map(cat.scale_map(b, cat.field.of_int(2)), basis[t + 1]) if t + 1 < len(basis)
                else cat.scale_map(b, cat.field.of_int(2)) for t, b in enumerate(basis)]
    return dataclasses.replace(cat, hom_basis=hom_basis)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_the_reader_finds_unit_rows_by_one_rref_where_the_basis_has_none(field, monkeypatch):
    xbar, e = _xbar_end(qv.kronecker(), field)
    cat = _mixed(e.cat)
    seen = []
    real = endo._unit_rows

    def unit_rows(f, vecs):
        got = real(f, vecs)
        seen.append(got[1] is not None)
        return got

    monkeypatch.setattr(endo, "_unit_rows", unit_rows)
    mixed = endo.end_algebra(e.summands, cat)
    assert any(seen)
    assert repr(mixed.sc.mult) == repr(_dense_end_table(cat, mixed.blocks, mixed.dim))
    assert [len(b) for _, b in mixed.blocks.values()] == [len(b) for _, b in e.blocks.values()]


@pytest.mark.parametrize("mixed", [False, True], ids=["unit-rows", "rref"])
def test_the_reader_refuses_a_composite_outside_the_block(mixed):
    # drop the last basis map of a block of dimension >= 2: reading it must
    # fail on both paths, and reading the others must still succeed
    _, e = _xbar_end(qv.kronecker())
    cat = _mixed(e.cat) if mixed else e.cat
    key = next(k for k, (_, b) in e.blocks.items() if len(b) >= 2)
    full = cat.hom_basis(e.summands[key[0]], e.summands[key[1]])
    blocks = dict(e.blocks)
    blocks[key] = (e.blocks[key][0], full[:-1])
    read = endo._block_reader(cat, blocks)
    for t, b in enumerate(full[:-1]):
        assert read(*key, b) == tuple(int(s == t) for s in range(len(full) - 1))
    with pytest.raises(CompositionInconsistent):
        read(*key, full[-1])
    with pytest.raises(CompositionInconsistent):
        endo._block_reader(cat, {key: (0, [])})(*key, full[0])


def test_graded_tables_check_their_grading_in_place_of_the_unit(monkeypatch):
    # E, its corners and Sigma are handed their grading: the constructor runs
    # 2 dim grading products and n^2 idempotent products, and none with the
    # unit as a factor; a table built with no grading runs 2 dim unit products
    xbar, e = _xbar_end(qv.kronecker())
    n1, n2 = len(xbar.x1), len(xbar.x2)
    tables = [e, e.corner(range(n1)), e.corner(range(n1, n1 + n2)),
              e.triangular(range(n1), range(n1, n1 + n2))]
    products = []
    real = alg.SCAlgebra._product

    def counting(self, xs, ys):
        products.append((list(xs), list(ys)))
        return real(self, xs, ys)

    monkeypatch.setattr(alg.SCAlgebra, "_product", counting)
    tables = [t for t in tables if len(t.sc.idempotents) > 1]  # else e_0 is the unit
    assert len(tables) >= 3
    for t in tables:
        sc = t.sc
        n, unit = len(sc.idempotents), alg.SCAlgebra._support(sc.unit)
        peirce = sc._gradings[0]
        del products[:]
        graded = alg.SCAlgebra._of_terms(sc.field, sc._terms, sc.unit, sc.idempotents,
                                         sc.known_radical, peirce)
        assert graded._gradings == sc._gradings
        assert len(products) == 2 * sc.dim + n * n
        assert not [p for p in products if unit in p]
        del products[:]
        bare = alg.SCAlgebra._of_terms(sc.field, sc._terms, sc.unit, sc.idempotents, sc.known_radical)
        assert bare._gradings is None
        assert len(products) == 2 * sc.dim + n * n
        assert len([p for p in products if unit in p]) == 2 * sc.dim
    # end_algebra itself never multiplies by the unit
    del products[:]
    endo.end_algebra(e.summands, e.cat)
    assert products and not [p for p in products if alg.SCAlgebra._support(e.sc.unit) in p]


# -- the constructor -------------------------------------------------------------------------

def test_terms_out_of_range_are_refused():
    one = QQ.one()
    with pytest.raises(DimensionMismatch):
        alg.SCAlgebra._of_terms(QQ, [[((1, one),)]], (one,))
    with pytest.raises(DimensionMismatch):
        alg.SCAlgebra._of_terms(QQ, [[((-1, one),)]], (one,))
    with pytest.raises(DimensionMismatch):
        alg.SCAlgebra._of_terms(QQ, [[((0, one),), ()]], (one,))
    assert alg.SCAlgebra._of_terms(QQ, [[((0, one),)]], (one,)).mult == (((1,),),)


def test_a_dense_table_is_converted_once_and_viewed_back():
    sc = alg.sc_of_bqa(alg.path_algebra(QQ, qv.kronecker()))
    again = alg.SCAlgebra(QQ, sc.mult, sc.unit, sc.idempotents, sc.known_radical)
    assert again._terms == sc._terms and "mult" not in vars(again)
    assert again.mult == sc.mult and again.mult is again.mult
    assert all(k in range(sc.dim) and c for row in again._terms for t in row for k, c in t)
    assert all(list(t) == sorted(t) for row in again._terms for t in row)
