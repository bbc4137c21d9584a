import copy
import dataclasses
import inspect
import pickle
import random
from fractions import Fraction

import pytest

from quivhom import exactlin
from quivhom.exactlin import (GF, QQ, Field, Mat, _kernel_blocks, _null_space, _reduced_span, inverse, rank,
                              rref, solve_matrix)
from quivhom.errors import DimensionMismatch, QuivhomError


def M(rows, field=QQ):
    return Mat.from_rows(field, rows)


def test_field_validation():
    with pytest.raises(QuivhomError):
        Field("fp", 6)
    with pytest.raises(QuivhomError):
        Field("q", 5)
    assert GF(7).inv(3) == 5  # 3*5 = 15 = 1 mod 7


def test_scalar_roundtrip():
    assert QQ.format(QQ.parse("-3/6")) == "-1/2"
    assert GF(5).format(GF(5).parse("7")) == "2"
    assert GF(5).parse("1/2") == 3  # 2*3 = 1 mod 5


def test_rref_identity():
    r, rk, piv = rref(Mat.identity(QQ, 2))
    assert r == Mat.identity(QQ, 2)
    assert rk == 2 and piv == (0, 1)


def test_rref_zero():
    z = Mat.zeros(QQ, 3, 2)
    r, rk, piv = rref(z)
    assert r == z and rk == 0 and piv == ()


def test_rref_rank_one():
    r, rk, piv = rref(M([[1, 2], [2, 4]]))
    assert rk == 1 and piv == (0,)
    assert r.row_list() == [[1, 2], [0, 0]]


def _kernel_columns(m):
    """The columns of ``_null_space``'s basis, one Mat each."""
    basis, free = _null_space(m)
    return [basis.col(t) for t in range(len(free))]


def test_kernel_identity_and_zero():
    assert _kernel_columns(Mat.identity(QQ, 3)) == []
    ker = _kernel_columns(Mat.zeros(QQ, 2, 3))
    assert len(ker) == 3
    for i, v in enumerate(ker):
        col = v.column_vector()
        assert col[i] == 1 and sum(x != 0 for x in col) == 1


def test_kernel_line():
    (v,) = _kernel_columns(M([[1, 1]]))
    a, b = v.column_vector()
    assert a + b == 0 and (a, b) != (0, 0)


def test_solve_cases():
    b = Mat.column(QQ, [4, 5])
    assert solve_matrix(Mat.identity(QQ, 2), b) == b
    assert solve_matrix(M([[1], [0]]), Mat.column(QQ, [0, 1])) is None
    x = solve_matrix(M([[2]]), Mat.column(QQ, [1]))
    assert x.column_vector() == [QQ.parse("1/2")]


def _random_matrix(rng, field, rows, cols, lo=-4, hi=4):
    return Mat.from_rows(field, [[field.of_int(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)])


def test_property_suite_rref_idempotent_and_rank_nullity():
    rng = random.Random(20240)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, QQ, rows, cols)
        r, rk, piv = rref(m)
        r2, rk2, piv2 = rref(r)
        assert r2 == r and rk2 == rk and piv2 == piv
        ker = _kernel_columns(m)
        assert rk + len(ker) == cols
        for v in ker:
            assert m.mul(v).is_zero()


def test_property_solve_soundness():
    rng = random.Random(77)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, QQ, rows, cols)
        x0 = _random_matrix(rng, QQ, cols, 1)
        b = a.mul(x0)
        x = solve_matrix(a, b)
        assert x is not None
        assert a.mul(x) == b


def test_qq_fp_agreement_on_integer_matrices():
    # ranks agree over QQ and F_p when p is large relative to the entries
    rng = random.Random(5150)
    p = 1000003
    fp = GF(p)
    for _ in range(40):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(5)]
        mq = Mat.from_rows(QQ, rows)
        mp = Mat.from_rows(fp, rows)
        assert rank(mq) == rank(mp)


def test_inverse_and_kron():
    m = M([[1, 2], [3, 5]])
    mi = inverse(m)
    assert m.mul(mi).is_identity()
    assert inverse(M([[1, 2], [2, 4]])) is None
    k = Mat.kron(Mat.identity(QQ, 2), M([[0, 1], [1, 0]]))
    assert k.rows == 4 and rank(k) == 4


def test_stacking():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert Mat.vstack(QQ, [a, b]).row_list() == [[1, 2], [3, 4]]
    assert Mat.hstack(QQ, [a, b]).row_list() == [[1, 2, 3, 4]]
    d = Mat.block_diag(QQ, [a, b])
    assert d.row_list() == [[1, 2, 0, 0], [0, 0, 3, 4]]


# -- the sparse elimination against the dense one ------------------------------------

def _dense_eliminate(rows, field):
    """The dense Gauss-Jordan elimination that ``_eliminate`` replaced, kept
    as the reference: every row update runs over all columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    nrows = len(rows)
    zero = field.zero()
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one():
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if factor == zero:
                continue
            ri = rows[i]
            if field.kind == "q":
                rows[i] = [x - factor * y for x, y in zip(ri, prow)]
            else:
                p = field.p
                rows[i] = [(x - factor * y) % p for x, y in zip(ri, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _elimination_inputs(field, rng):
    """Seeded sparse and dense matrices, zero and empty shapes, rank-deficient
    products, non-unit pivots and rows that vanish mid-elimination."""
    out = [Mat.zeros(field, 0, 4), Mat.zeros(field, 4, 0), Mat.zeros(field, 0, 0),
           Mat.zeros(field, 3, 5), M([[2, 4, 6], [3, 6, 9]], field), M([[0, 3, 1], [5, 0, 2]], field),
           M([[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1], [2, 5, 1, 2]], field)]
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.15, 0.4, 1.0))
        out.append(Mat.from_rows(field, [[rng.randint(-5, 5) if rng.random() < density else 0
                                          for _ in range(cols)] for _ in range(rows)]))
    for _ in range(20):
        rows, inner, cols = rng.randint(2, 7), rng.randint(1, 3), rng.randint(2, 7)
        a = _random_matrix(rng, field, rows, inner)
        b = _random_matrix(rng, field, inner, cols)
        out.append(a.mul(b))  # rank at most inner
    if field.kind == "q":
        out.append(Mat.from_rows(field, [[QQ.parse(f"{rng.randint(-4, 4)}/{rng.randint(1, 5)}")
                                          for _ in range(5)] for _ in range(4)]))
    return out


def _exact(m):
    return None if m is None else (m.rows, m.cols, repr(m.entries))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=["QQ", "GF2", "GF3", "GF101"])
def test_sparse_elimination_matches_the_dense_one(field, monkeypatch):
    from quivhom import exactlin

    rng = random.Random(19 + (field.p or 0))
    for m in _elimination_inputs(field, rng):
        before = tuple(m.entries)
        rref(m)
        assert m.entries == before  # rref eliminates a copy of the rows
        b = _random_matrix(rng, field, m.rows, 2)  # mostly inconsistent
        consistent = m.mul(_random_matrix(rng, field, m.cols, 2))
        square = _random_matrix(rng, field, m.rows, m.rows)

        def answers():
            return [rref(m), _kernel_columns(m), solve_matrix(m, b), solve_matrix(m, consistent),
                    inverse(square), inverse(m)]

        got = answers()
        with monkeypatch.context() as mp:
            mp.setattr(exactlin, "_eliminate", _dense_eliminate)
            refs = answers()
        (r, rk, piv), (r0, rk0, piv0) = got[0], refs[0]
        assert (_exact(r), rk, piv) == (_exact(r0), rk0, piv0)
        assert [_exact(v) for v in got[1]] == [_exact(v) for v in refs[1]]
        assert got[3] is not None
        for x, x0 in zip(got[2:], refs[2:]):
            assert _exact(x) == _exact(x0)


# -- the readers against the code they replaced ---------------------------------------

def _kernel_basis(m):
    """The kernel basis as a list of column vectors, one per non-pivot
    column, as exactlin built it before ``_null_space``; kept as the
    reference."""
    r, rk, pivots = rref(m)
    field = m.field
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero()] * m.cols
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(r.at(i, fc))
        basis.append(Mat(field, m.cols, 1, tuple(v)))
    return basis


def _row_space(field, rows):
    """The nonzero rows of the RREF, as the library built a row basis before
    ``_reduced_span``; kept as the reference."""
    m = Mat.from_rows(field, rows)
    red, rk, _ = rref(m)
    keep = red.row_list()[:rk]
    if not keep:
        return Mat.zeros(field, 0, m.cols)
    return Mat.from_rows(field, keep)


FIELDS = pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["QQ", "GF2", "GF101"])


@FIELDS
def test_kernel_blocks_are_the_kernel_basis_vectors(field):
    # every hom basis is _kernel_blocks: vector for vector the kernel basis,
    # cut into blocks; no rows (Mat.zeros(field, 0, 4)) gives the standard basis
    rng = random.Random(23 + (field.p or 0))
    for m in _elimination_inputs(field, rng):
        half = m.cols // 2
        shapes = [(1, half), (m.cols - half, 1)]
        got = _kernel_blocks(field, m.row_list(), shapes)
        want = _kernel_basis(m)
        assert [[(b.rows, b.cols) for b in blocks] for blocks in got] == [shapes] * len(want)
        assert [tuple(x for b in blocks for x in b.entries) for blocks in got] \
            == [v.entries for v in want]
    zero, one = field.zero(), field.one()
    got = _kernel_blocks(field, [], [(2, 3), (1, 2)])
    assert [tuple(x for b in blocks for x in b.entries) for blocks in got] \
        == [tuple(one if i == j else zero for i in range(8)) for j in range(8)]


@FIELDS
def test_null_space_is_the_identity_at_its_free_rows(field):
    rng = random.Random(29 + (field.p or 0))
    for m in _elimination_inputs(field, rng):
        basis, free = _null_space(m)
        pivots = rref(m)[2]
        assert free == [c for c in range(m.cols) if c not in pivots]
        assert [basis.col(t) for t in range(len(free))] == _kernel_basis(m)
        assert Mat(field, len(free), len(free),
                   tuple(basis.at(i, t) for i in free for t in range(len(free)))).is_identity()


@FIELDS
def test_reduced_span_is_the_row_space(field, monkeypatch):
    from quivhom import exactlin

    rng = random.Random(31 + (field.p or 0))
    for m in _elimination_inputs(field, rng):
        red, pivots, free = _reduced_span(m)
        rk = len(pivots)
        if m.rows:
            assert Mat(field, rk, m.cols, red[:rk * m.cols]) == _row_space(field, m.row_list())
        assert pivots == rref(m)[2]
        assert sorted([*pivots, *free]) == list(range(m.cols)) and not set(pivots) & set(free)
    # no rows spans the zero subspace: nothing is eliminated
    calls = []
    monkeypatch.setattr(exactlin, "rref", lambda m: calls.append(m))
    assert _reduced_span(Mat.zeros(field, 0, 3)) == ((), (), [0, 1, 2])
    assert calls == []


# -- one type per rational value ------------------------------------------------------

def _one_type(x):
    """An int, or a Fraction that is not integral: never a float, a bool or
    an integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_rational_values_have_one_type():
    for x in [QQ.zero(), QQ.one(), QQ.of_int(0), QQ.of_int(-7), QQ.inv(2), QQ.inv(Fraction(1, 3)),
              QQ.inv(-1), QQ.inv(Fraction(-2, 3)), QQ.div(4, 2), QQ.div(Fraction(3, 2), Fraction(1, 2)),
              QQ.div(1, 3), QQ.div(Fraction(4), Fraction(6)), QQ.parse("6/3"), QQ.parse(" -4 "),
              QQ.parse("1/2"), QQ.parse("2.5"), QQ.parse("1e3")]:
        assert _one_type(x), repr(x)
    assert (QQ.zero(), QQ.one(), QQ.inv(Fraction(1, 3)), QQ.div(4, 2), QQ.parse("6/3")) == (0, 1, 3, 2, 2)
    assert QQ.div(1, 3) == Fraction(1, 3) and QQ.parse("1e3") == 1000

    def answers(m, b, square):
        basis, _ = _null_space(m)
        return [rref(m)[0], basis, solve_matrix(m, b), inverse(square), inverse(m)]

    def as_fractions(m):
        return Mat(QQ, m.rows, m.cols, tuple(Fraction(x) for x in m.entries))

    def formatted(x):
        return None if x is None else (x.rows, x.cols, [QQ.format(e) for e in x.entries])

    rng = random.Random(43)
    for m in _elimination_inputs(QQ, rng):
        b = m.mul(_random_matrix(rng, QQ, m.cols, 2))
        square = _random_matrix(rng, QQ, m.rows, m.rows)
        got = answers(m, b, square)
        for x in got:
            assert x is None or all(_one_type(e) for e in x.entries), x
        ref = answers(as_fractions(m), as_fractions(b), as_fractions(square))
        assert [formatted(x) for x in got] == [formatted(x) for x in ref]

    # products, sums and scalings keep the rule, whether their operands hold
    # non-integral Fractions, integral Fractions or ints
    def rational(rows, cols):
        return Mat(QQ, rows, cols, tuple(rng.choice((Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                                     Fraction(rng.randint(-3, 3)), rng.randint(-3, 3)))
                                         for _ in range(rows * cols)))

    half = Mat(QQ, 1, 2, (Fraction(1, 2), Fraction(3, 2)))
    fixed = [half.mul(Mat(QQ, 2, 1, (2, 2))), half.add(half), half.scale(2), half.scale(Fraction(4, 3)),
             Mat(QQ, 1, 1, (Fraction(1, 2),)).mul(Mat(QQ, 1, 1, (4,))), half.sub(half)]
    assert [x.entries for x in fixed] == [(4,), (1, 3), (1, 3), (Fraction(2, 3), 2), (2,), (0, 0)]
    for _ in range(60):
        n, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, a2, b = rational(n, k), rational(n, k), rational(k, c)
        s = rng.choice((2, Fraction(3, 2), Fraction(4), 0))
        for x, ref in [(a.mul(b), _ref_mul(a, b)), (a.add(a2), _ref_add(a, a2)),
                       (a.sub(a2), _ref_add(a, a2.neg())), (a.scale(s), _ref_scale(a, s))]:
            assert all(_one_type(e) for e in x.entries), x
            assert x == ref


def test_integral_fractions_enter_as_ints():
    # Mat.from_rows and Mat.column take a rational in its one type, as every
    # other entry point does: an integral Fraction becomes an int
    got = [Mat.from_rows(QQ, [[Fraction(2, 1), Fraction(1, 2)], [3, Fraction(-4, 2)]]).entries,
           Mat.column(QQ, [Fraction(6, 3), Fraction(1, 3), 5]).entries]
    assert got == [(2, Fraction(1, 2), 3, -2), (2, Fraction(1, 3), 5)]
    assert [type(x) for e in got for x in e] == [int, Fraction, int, int, int, Fraction, int]


def test_inv_and_div_match_the_fraction_forms():
    # QQ.inv and QQ.div read 1/a off a; their values and types are those of
    # _q(1 / Fraction(a)) and _q(Fraction(a) / b)
    def ref_inv(a):
        x = 1 / Fraction(a)
        return x.numerator if x.denominator == 1 else x

    def ref_div(a, b):
        x = Fraction(a) / b
        return x.numerator if x.denominator == 1 else x

    rng = random.Random(31)
    values = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 7), Fraction(5, 3)]
    values += [rng.choice([rng.randint(-40, 40), Fraction(rng.randint(-40, 40), rng.randint(1, 40))])
               for _ in range(300)]
    values = [QQ.parse(str(v)) for v in values if v]  # integral values as ints
    for a in values:
        got, want = QQ.inv(a), ref_inv(a)
        assert (got, type(got)) == (want, type(want)), a
        for b in [0] + values[:40]:
            got, want = QQ.div(b, a), ref_div(b, a)
            assert (got, type(got)) == (want, type(want)), (b, a)
    for bad in (0, QQ.zero()):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(bad)
        with pytest.raises(ZeroDivisionError):
            QQ.div(1, bad)


# -- Mat is a slotted immutable value ---------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _FrozenMat:
    """The frozen dataclass that Mat's equality, hash and repr follow."""

    field: Field
    rows: int
    cols: int
    entries: tuple


def test_mat_is_a_slotted_immutable_value():
    m = Mat(QQ, 2, 2, (1, Fraction(1, 2), 0, -3))
    assert not hasattr(m, "__dict__") and Mat.__slots__ == ("field", "rows", "cols", "entries")
    for name in ("rows", "entries", "extra"):
        with pytest.raises(AttributeError):
            setattr(m, name, 5)
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert (m.field, m.rows, m.cols, m.entries) == (QQ, 2, 2, (1, Fraction(1, 2), 0, -3))
    with pytest.raises(QuivhomError):
        Mat(QQ, 2, 2, (1, 2, 3))
    # mul is a plain function on the class, so it can be wrapped there
    assert inspect.isfunction(Mat.__dict__["mul"])
    assert copy.copy(m) == m and pickle.loads(pickle.dumps(m)) == m


def test_mat_equality_and_hash_are_the_frozen_dataclass_ones():
    rng = random.Random(17)
    mats = []
    for field in (QQ, GF(3), GF(5)):
        for rows, cols in ((0, 0), (0, 2), (2, 0), (1, 4), (4, 1), (2, 2)):
            for _ in range(3):
                ent = tuple(field.of_int(rng.randint(-1, 1)) for _ in range(rows * cols))
                mats.append((Mat(field, rows, cols, ent), _FrozenMat(field, rows, cols, ent)))
    for a, fa in mats:
        # equal across separately built matrices, with equal hashes
        twin = Mat(a.field, a.rows, a.cols, tuple(list(a.entries)))
        assert twin == a and hash(twin) == hash(a) == hash(fa) and twin is not a
        assert repr(a) == repr(fa).replace("_FrozenMat(", "Mat(", 1)
        assert a != fa and a != a.entries
        for b, fb in mats:
            assert (a == b) == (fa == fb)
    # unequal across fields and across shapes with the same entries
    assert Mat(QQ, 1, 1, (1,)) != Mat(GF(3), 1, 1, (1,))
    assert len({Mat(QQ, 1, 4, (1, 0, 0, 1)), Mat(QQ, 4, 1, (1, 0, 0, 1)),
                Mat(QQ, 2, 2, (1, 0, 0, 1))}) == 3


# -- empty shapes --------------------------------------------------------------

# the general code's answers, written out entry by entry
def _ref_zeros(f, rows, cols):
    return Mat(f, rows, cols, tuple(f.zero() for _ in range(rows * cols)))


def _ref_mul(a, b):
    f = a.field
    ent = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero()
            for t in range(a.cols):
                acc = f.add(acc, f.mul(a.at(i, t), b.at(t, j)))
            ent.append(acc)
    return Mat(f, a.rows, b.cols, tuple(ent))


def _ref_add(a, b):
    f = a.field
    return Mat(f, a.rows, a.cols, tuple(f.add(x, y) for x, y in zip(a.entries, b.entries)))


def _ref_scale(m, c):
    f = m.field
    return Mat(f, m.rows, m.cols, tuple(f.mul(c, x) for x in m.entries))


def _ref_transpose(m):
    return Mat(m.field, m.cols, m.rows, tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows)))


def _ref_place(f, rows, cols, placed):
    """rows x cols, with each (r0, c0, block) of ``placed`` at (r0, c0)."""
    ent = [[f.zero()] * cols for _ in range(rows)]
    for r0, c0, blk in placed:
        for i in range(blk.rows):
            for j in range(blk.cols):
                ent[r0 + i][c0 + j] = blk.at(i, j)
    return Mat(f, rows, cols, tuple(x for row in ent for x in row))


_EMPTY_SHAPES = [(0, 0), (0, 3), (3, 0)]


@pytest.mark.parametrize("f", [QQ, GF(3)])
def test_empty_shapes_give_the_general_answers(f):
    rng = random.Random(5)

    def rand(rows, cols):
        return Mat(f, rows, cols, tuple(f.of_int(rng.randint(-2, 2)) for _ in range(rows * cols)))

    assert Mat.identity(f, 0) == _ref_zeros(f, 0, 0) and Mat.identity(f, 0) is Mat.zeros(f, 0, 0)
    for rows, cols in _EMPTY_SHAPES + [(2, 3)]:
        assert Mat.zeros(f, rows, cols) == _ref_zeros(f, rows, cols)
    for rows, cols in _EMPTY_SHAPES:
        m = Mat(f, rows, cols, ())
        assert m.transpose() == _ref_transpose(m)
        assert m.scale(f.of_int(2)) == m
        assert rref(m) == (m, 0, ())
    # an empty operand, and an empty inner dimension with a nonempty result
    for n, k, c in [(0, 2, 3), (2, 3, 0), (0, 0, 0), (2, 0, 3), (0, 2, 0)]:
        a, b = rand(n, k), rand(k, c)
        assert a.mul(b) == _ref_mul(a, b)
    blocks = [rand(0, 2), rand(3, 0), rand(0, 0), rand(2, 0)]
    assert Mat.block_diag(f, blocks) == _ref_place(f, 5, 2, [(0, 0, blocks[0]), (0, 2, blocks[1]),
                                                           (3, 2, blocks[2]), (3, 2, blocks[3])])
    assert Mat.block_diag(f, [rand(0, 2), rand(0, 1)]) == _ref_zeros(f, 0, 3)
    assert Mat.block_diag(f, [rand(2, 0), rand(1, 0)]) == _ref_zeros(f, 3, 0)
    assert Mat.block_diag(f, []) == _ref_zeros(f, 0, 0)
    assert Mat.from_blocks(f, [0, 0], [2, 1], {(0, 0): rand(0, 2), (1, 1): rand(0, 1)}) \
        == _ref_zeros(f, 0, 3)
    assert Mat.from_blocks(f, [2], [0, 0], {(0, 1): rand(2, 0)}) == _ref_zeros(f, 2, 0)
    assert Mat.from_blocks(f, [], [], {}) == _ref_zeros(f, 0, 0)


def test_empty_operands_still_fail_their_checks():
    with pytest.raises(DimensionMismatch):
        Mat.zeros(QQ, 0, 2).mul(Mat.zeros(QQ, 3, 0))
    with pytest.raises(DimensionMismatch, match="field"):
        Mat.zeros(QQ, 0, 2).mul(Mat.zeros(GF(3), 2, 0))
    with pytest.raises(DimensionMismatch, match="block"):
        Mat.from_blocks(QQ, [0], [2], {(0, 0): Mat.zeros(QQ, 0, 3)})
    with pytest.raises(DimensionMismatch, match="block"):
        Mat.from_blocks(QQ, [2], [0], {(0, 0): Mat.zeros(QQ, 3, 0)})


def test_only_empty_zeros_are_shared_and_they_are_immutable():
    z = Mat.zeros(QQ, 0, 0)
    for name in Mat.__slots__:
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert Mat.zeros(QQ, 0, 0) == _ref_zeros(QQ, 0, 0)
    for rows, cols in _EMPTY_SHAPES:
        assert Mat.zeros(QQ, rows, cols) is Mat.zeros(QQ, rows, cols)
        assert Mat.zeros(QQ, rows, cols) is not Mat.zeros(GF(3), rows, cols)
    assert Mat.zeros(QQ, 2, 2) is not Mat.zeros(QQ, 2, 2)
    assert Mat.zeros(QQ, 2, 2) != Mat.zeros(GF(3), 2, 2)
    assert all(not m.entries for m in exactlin._EMPTY.values())


# -- one-row rref, field and shape checks --------------------------------

def _direct_inputs(f, rng):
    """Seeded scalars over f: zeros, ones and, over QQ, non-integral and
    integral Fractions beside ints."""
    if f.kind == "q":
        pool = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(3), Fraction(-2), Fraction(0)]
    else:
        pool = [0, 1, f.p - 1] + [rng.randrange(f.p) for _ in range(4)]
    return lambda rows, cols: Mat(f, rows, cols, tuple(rng.choice(pool) for _ in range(rows * cols)))


@pytest.mark.parametrize("f", [QQ, GF(2), GF(101)], ids=["QQ", "GF2", "GF101"])
def test_one_row_rref_equals_the_elimination(f):
    # rref answers a one-row matrix directly; _eliminate on the same row is
    # the reference, values and types
    rng = random.Random(17 + (f.p or 0))
    rand = _direct_inputs(f, rng)
    for cols in [0, 1, 2, 3, 5, 8] * 6:
        m = rand(1, cols)
        rows = m.row_list()
        pivots = exactlin._eliminate(rows, f)
        if f.kind == "q":
            exactlin._integral(rows)
        want = (Mat(f, 1, cols, tuple(rows[0])), len(pivots), tuple(pivots))
        red, rk, piv = rref(m)
        assert (_exact(red), rk, piv) == (_exact(want[0]), want[1], want[2])


def test_stacking_refuses_a_part_over_another_field():
    for f, g in [(QQ, GF(3)), (GF(3), QQ), (GF(3), GF(5))]:
        one, other = Mat.identity(f, 1), Mat.identity(g, 1)
        for build in [lambda: Mat.hstack(f, [other, one]), lambda: Mat.vstack(f, [one, other]),
                      lambda: Mat.block_diag(f, [other]), lambda: Mat.hstack(f, [other]),
                      lambda: Mat.block_diag(f, [one, Mat.zeros(g, 0, 0)]),
                      lambda: Mat.from_blocks(f, [1, 1], [1], {(0, 0): one, (1, 0): other}),
                      lambda: Mat.from_blocks(f, [1], [1], {(0, 0): other})]:
            with pytest.raises(DimensionMismatch, match="field mismatch"):
                build()
    # an equal field built apart is the same field
    assert Mat.hstack(GF(3), [Mat.identity(GF(3), 1), Mat.identity(GF(3), 1)]).field == GF(3)


def test_from_blocks_refuses_a_key_outside_its_grid():
    one = Mat.identity(QQ, 1)
    for key in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
        with pytest.raises(DimensionMismatch, match="outside"):
            Mat.from_blocks(QQ, [1], [1], {key: one})


def test_mat_refuses_a_negative_shape():
    for rows, cols, entries in [(-1, -1, (5,)), (-2, 0, ()), (0, -3, ()), (-1, 2, ())]:
        with pytest.raises(DimensionMismatch, match="negative"):
            Mat(QQ, rows, cols, entries)
    with pytest.raises(DimensionMismatch):
        Mat.zeros(GF(3), -1, 0)
