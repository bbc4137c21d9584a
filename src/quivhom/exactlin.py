"""Exact linear algebra over the rationals and prime fields.

Everything downstream (Hom spaces, resolutions, rank certificates) reduces to
one elimination, read in three ways: ``rref`` (with ``rank``), the reduced
rows of a span with its pivot and non-pivot columns (``_reduced_span``), and
the kernel basis that is the identity at the non-pivot rows
(``_null_space``); ``solve_matrix`` eliminates an augmented matrix.
Over a prime field scalars are plain ``int`` residues.  Over the rationals a
value has one type: an ``int`` when it is integral and a
``fractions.Fraction`` only when it is not (Python mixes the two exactly), and
no ``float`` enters.  Eliminations, products, sums and scalings keep the
rule: an integral result is an ``int``, and only a ``Fraction`` is
normalised.  Elimination uses first-nonzero pivoting, so all
outputs are reproducible.  It touches only nonzero entries: zero tests are
truth tests, and each row is updated in place on the pivot row's nonzero
support, which gives the dense elimination's result entry for entry.

A matrix is a ``Mat``: an immutable value held in four slots (field, shape
and the row-major tuple of entries), with no per-object ``__dict__``, so
the many small matrices of a witness cost one small object each.  It
compares and hashes by its four fields, as a frozen dataclass would.

A shape with no entries (a zero-dimensional vertex, an empty grade, a
zero object of a complex) costs nothing.  Being immutable, such a matrix is
shared: ``Mat.zeros`` of a shape with no entries, and ``Mat.identity`` of
size 0, hand out one value per field and shape, kept in ``_EMPTY`` and
keyed by the field's kind and modulus; each holds an empty tuple.

Some shapes are answered directly, each only once the operation's field
and shape checks have passed (fields compare by identity first), and each
answer is the general code's, entry for entry and type for type:

* a shape with no entries: ``mul``, ``transpose``, ``scale``,
  ``block_diag``, ``from_blocks`` and ``rref`` return the shared value, or
  the operand itself;
* one part: ``hstack``, ``vstack`` and ``block_diag`` return the part
  itself, which is safe as a ``Mat`` is immutable;
* a 1x1 product: ``mul`` forms the one product with no loops;
* a one-row matrix: ``rref`` scales the row by the inverse of its first
  nonzero entry, as the elimination would, with no elimination loop.

A ``Mat`` refuses a negative shape, and the stacking and placing
constructors a part over another field, as ``mul`` and ``add`` do.
``from_rows`` and ``column`` refuse an entry that is no scalar of the field
(an int, or over QQ a Fraction); the raw constructor checks no entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .errors import DimensionMismatch, QuivhomError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _q(x: Fraction):
    """The rational ``x`` in its one type: an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _one_type(values) -> tuple:
    """The rationals ``values`` as a tuple, each in its one type: only a
    Fraction is normalised, so an int passes as it is."""
    return tuple(_q(x) if x.__class__ is Fraction else x for x in values)


def _scalar_of(field: Field, x):
    """``x``, a value that is no int, as a scalar of ``field``: over QQ a
    Fraction passes, in its one type (an integral one as an int); anything
    else (a float, a string, a Fraction over GF(p)) raises
    ``QuivhomError``."""
    if field.kind == "q" and isinstance(x, Fraction):
        return _q(x)
    raise QuivhomError(f"{x!r} is not a scalar of {field}")


def _integral(rows):
    """Turn the integral Fractions of ``rows`` (lists of rationals) into ints,
    in place."""
    for row in rows:
        row[:] = _one_type(row)


@dataclass(frozen=True)
class Field:
    """Ground field: the rationals ('q') or a prime field ('fp').

    ``zero``/``one`` are ``0``/``1`` for both kinds.  Over the rationals,
    ``of_int``, ``inv``, ``div`` and ``parse`` return an int when the value
    is integral and a Fraction only when it is not; over GF(p) every scalar
    is an int residue in 0..p-1.
    """

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "q":
            if self.p is not None:
                raise QuivhomError("rationals carry no modulus")
        elif self.kind == "fp":
            if self.p is None or not _is_prime(self.p):
                raise QuivhomError(f"modulus {self.p} is not prime")
        else:
            raise QuivhomError(f"unknown field kind {self.kind!r}")

    # -- scalar arithmetic ------------------------------------------------
    def zero(self):
        return 0

    def one(self):
        return 1

    def of_int(self, n: int):
        return n if self.kind == "q" else n % self.p

    def add(self, a, b):
        return a + b if self.kind == "q" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "q" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "q" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "q" else (-a) % self.p

    def inv(self, a):
        if self.kind == "q":
            if not a:
                raise ZeroDivisionError("inverse of zero")
            # 1/a read off a: an int's is itself at +-1, a Fraction's has its
            # numerator and denominator swapped
            if a.__class__ is int:
                return a if a == 1 or a == -1 else Fraction(1, a)
            return _q(Fraction(a.denominator, a.numerator))
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        if self.kind == "q":
            # a / b of two ints would be a float
            return _q(Fraction(a, b) if a.__class__ is int and b.__class__ is int else a / b)
        return self.mul(a, self.inv(b))

    # -- text form ---------------------------------------------------------
    def format(self, a) -> str:
        if self.kind == "q":
            a = Fraction(a)
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return str(a % self.p)

    def parse(self, text: str):
        text = text.strip()
        try:
            if self.kind == "q":
                return _q(Fraction(text))
            if "/" in text:
                num, den = text.split("/")
                return self.div(self.of_int(int(num)), self.of_int(int(den)))
            return self.of_int(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise QuivhomError(f"bad scalar {text!r}: {exc}") from exc


QQ = Field("q")


def GF(p: int) -> Field:
    return Field("fp", p)


# Mat.zeros of a shape with no entries: one shared value per
# (field.kind, field.p, rows, cols)
_EMPTY = {}


class Mat:
    """Immutable dense matrix, entries in row-major order.

    A value of four slots, ``field``, ``rows``, ``cols`` and ``entries`` (a
    tuple), with no ``__dict__``: ``__init__`` checks the length and sets
    the slots through their descriptors, and every other assignment or
    deletion of an attribute raises.  Equality, hash and ``repr`` are those
    of a frozen dataclass with these four fields, in this order.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        # (rows | cols) < 0 iff either is negative
        if len(entries) != rows * cols or (rows | cols) < 0:
            if (rows | cols) < 0:
                raise DimensionMismatch(f"negative shape {rows}x{cols}")
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        _set_field(self, field)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a Mat is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: a Mat is immutable")

    def __reduce__(self):
        return Mat, (self.field, self.rows, self.cols, self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.rows, self.cols, self.entries) == \
            (other.field, other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Mat(field={self.field!r}, rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_rows(field: Field, rows) -> "Mat":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        ent = tuple(field.of_int(x) if isinstance(x, int) else _scalar_of(field, x) for r in rows for x in r)
        return Mat(field, nrows, ncols, ent)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        """The zero matrix; one shared value per field and shape with no
        entries."""
        if rows and cols:
            return Mat(field, rows, cols, (field.zero(),) * (rows * cols))
        key = (field.kind, field.p, rows, cols)  # no dataclass hash runs
        got = _EMPTY.get(key)
        if got is None:
            got = _EMPTY[key] = Mat(field, rows, cols, ())
        return got

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        if not n:
            return Mat.zeros(field, 0, 0)
        z, o = field.zero(), field.one()
        ent = [z] * (n * n)
        for i in range(n):
            ent[i * n + i] = o
        return Mat(field, n, n, tuple(ent))

    @staticmethod
    def column(field: Field, values) -> "Mat":
        vals = [field.of_int(v) if isinstance(v, int) else _scalar_of(field, v) for v in values]
        return Mat(field, len(vals), 1, tuple(vals))

    # -- access --------------------------------------------------------------
    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_list(self):
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def col(self, j: int) -> "Mat":
        return Mat(self.field, self.rows, 1, tuple(self.at(i, j) for i in range(self.rows)))

    def row_block(self, start: int, stop: int) -> "Mat":
        """The rows start..stop-1."""
        w = self.cols
        return Mat(self.field, stop - start, w, self.entries[start * w:stop * w])

    def col_block(self, start: int, stop: int) -> "Mat":
        """The columns start..stop-1."""
        e, w = self.entries, self.cols
        return Mat(self.field, self.rows, stop - start,
                   tuple(chain.from_iterable(e[i * w + start:i * w + stop] for i in range(self.rows))))

    def column_vector(self):
        if self.cols != 1:
            raise DimensionMismatch("not a column")
        return list(self.entries)

    # -- arithmetic -----------------------------------------------------------
    def add(self, other: "Mat") -> "Mat":
        if other.field is not self.field and other.field != self.field:
            raise DimensionMismatch("field mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        f = self.field
        if f.kind == "q":
            return Mat(f, self.rows, self.cols, _one_type(a + b for a, b in zip(self.entries, other.entries)))
        return Mat(f, self.rows, self.cols,
                   tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.neg())

    def neg(self) -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols, tuple(f.neg(a) for a in self.entries))

    def scale(self, c) -> "Mat":
        if not self.entries:
            return self
        f = self.field
        if f.kind == "q":
            return Mat(f, self.rows, self.cols, _one_type(c * a for a in self.entries))
        return Mat(f, self.rows, self.cols, tuple(f.mul(c, a) for a in self.entries))

    def mul(self, other: "Mat") -> "Mat":
        if other.field is not self.field and other.field != self.field:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        n, m, k = self.rows, other.cols, self.cols
        if not (n and m and k):
            return Mat.zeros(f, n, m)
        a, b = self.entries, other.entries
        zero = f.zero()
        if n == m == k == 1:
            x, y = a[0], b[0]
            if not (x and y):
                return Mat(f, 1, 1, (zero,))
            return Mat(f, 1, 1, _one_type((x * y,)) if f.kind == "q" else (x * y % f.p,))
        out = [zero] * (n * m)
        if f.kind == "q":
            for i in range(n):
                arow = a[i * k:(i + 1) * k]
                base = i * m
                for t in range(k):
                    coef = arow[t]
                    if not coef:
                        continue
                    brow = b[t * m:(t + 1) * m]
                    for j in range(m):
                        if brow[j]:
                            out[base + j] += coef * brow[j]
            out = _one_type(out)
        else:
            p = f.p
            for i in range(n):
                arow = a[i * k:(i + 1) * k]
                base = i * m
                for t in range(k):
                    coef = arow[t]
                    if coef == 0:
                        continue
                    brow = b[t * m:(t + 1) * m]
                    for j in range(m):
                        if brow[j]:
                            out[base + j] = (out[base + j] + coef * brow[j]) % p
        return Mat(f, n, m, tuple(out))

    def transpose(self) -> "Mat":
        e, w = self.entries, self.cols
        if not e:
            return Mat.zeros(self.field, w, self.rows)
        return Mat(self.field, w, self.rows, tuple(chain.from_iterable(e[j::w] for j in range(w))))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return self == Mat.identity(self.field, self.rows)

    # -- stacking ---------------------------------------------------------------
    @staticmethod
    def vstack(field: Field, mats) -> "Mat":
        mats = list(mats)
        if not mats:
            return Mat.zeros(field, 0, 0)
        cols = mats[0].cols
        ent = []
        rows = 0
        for m in mats:
            if m.cols != cols:
                raise DimensionMismatch("vstack column mismatch")
            ent.extend(m.entries)
            rows += m.rows
        _check_fields(field, mats)
        if len(mats) == 1:
            return mats[0]
        return Mat(field, rows, cols, tuple(ent))

    @staticmethod
    def hstack(field: Field, mats) -> "Mat":
        mats = list(mats)
        if not mats:
            return Mat.zeros(field, 0, 0)
        rows = mats[0].rows
        for m in mats:
            if m.rows != rows:
                raise DimensionMismatch("hstack row mismatch")
        _check_fields(field, mats)
        if len(mats) == 1:
            return mats[0]
        ent = []
        for i in range(rows):
            for m in mats:
                ent.extend(m.entries[i * m.cols:(i + 1) * m.cols])
        return Mat(field, rows, sum(m.cols for m in mats), tuple(ent))

    @staticmethod
    def summand_units(field: Field, sizes):
        """[(inj_k, proj_k)]: the coordinate inclusions of k^d_k into
        k^(d_1 + ... + d_n), onto the coordinates after d_1 + ... + d_(k-1),
        and the projections onto them."""
        n = sum(sizes)
        zero, one = field.zero(), field.one()
        out, at = [], 0
        for d in sizes:
            # the projection's row r, and the injection's column r, have
            # their one in place at + r
            pent = [zero] * (d * n)
            ient = [zero] * (n * d)
            for r in range(d):
                pent[r * n + at + r] = one
                ient[(at + r) * d + r] = one
            out.append((Mat(field, n, d, tuple(ient)), Mat(field, d, n, tuple(pent))))
            at += d
        return out

    @staticmethod
    def block_diag(field: Field, mats) -> "Mat":
        mats = list(mats)
        _check_fields(field, mats)
        if len(mats) == 1:
            return mats[0]
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        if not rows or not cols:
            return Mat.zeros(field, rows, cols)
        z = field.zero()
        ent = [z] * (rows * cols)
        r0 = c0 = 0
        for m in mats:
            for i in range(m.rows):
                base = (r0 + i) * cols + c0
                ent[base:base + m.cols] = m.entries[i * m.cols:(i + 1) * m.cols]
            r0 += m.rows
            c0 += m.cols
        return Mat(field, rows, cols, tuple(ent))

    @staticmethod
    def from_blocks(field: Field, row_sizes, col_sizes, blocks) -> "Mat":
        """Block matrix with the given block-row heights and block-column
        widths; ``blocks`` maps (i, j) to the block in block row i and block
        column j, and every absent block is zero."""
        roff, coff = [0], [0]
        for n in row_sizes:
            roff.append(roff[-1] + n)
        for n in col_sizes:
            coff.append(coff[-1] + n)
        rows, cols = roff[-1], coff[-1]
        nr, nc = len(row_sizes), len(col_sizes)
        for (i, j), m in blocks.items():
            if not (0 <= i < nr and 0 <= j < nc):
                raise DimensionMismatch(f"block ({i}, {j}) lies outside the {nr}x{nc} grid")
            if (m.rows, m.cols) != (row_sizes[i], col_sizes[j]):
                raise DimensionMismatch(f"block ({i}, {j}) is {m.rows}x{m.cols}, "
                                        f"expected {row_sizes[i]}x{col_sizes[j]}")
        _check_fields(field, blocks.values())
        if not rows or not cols:
            return Mat.zeros(field, rows, cols)
        ent = [field.zero()] * (rows * cols)
        for (i, j), m in blocks.items():
            for r in range(m.rows):
                base = (roff[i] + r) * cols + coff[j]
                ent[base:base + m.cols] = m.entries[r * m.cols:(r + 1) * m.cols]
        return Mat(field, rows, cols, tuple(ent))

    @staticmethod
    def kron(a: "Mat", b: "Mat") -> "Mat":
        f = a.field
        rows, cols = a.rows * b.rows, a.cols * b.cols
        ent = [f.zero()] * (rows * cols)
        for i in range(a.rows):
            for j in range(a.cols):
                c = a.at(i, j)
                if not c:
                    continue
                for k in range(b.rows):
                    for l in range(b.cols):
                        ent[(i * b.rows + k) * cols + (j * b.cols + l)] = f.mul(c, b.at(k, l))
        return Mat(f, rows, cols, tuple(ent))

    def flatten(self):
        return list(self.entries)


def _check_fields(field: Field, mats):
    """``DimensionMismatch`` when one of the parts ``mats`` of a stacking or
    placement is over another field than ``field`` (compared by identity
    first, so the usual shared field costs no dataclass ``__eq__``)."""
    for m in mats:
        if m.field is not field and m.field != field:
            raise DimensionMismatch("field mismatch")


# the slots' own setters, which Mat.__init__ calls past its __setattr__
_set_field, _set_rows, _set_cols, _set_entries = (Mat.__dict__[n].__set__ for n in Mat.__slots__)


def _eliminate(rows, field):
    """In-place Gauss-Jordan on list-of-lists; returns pivot column list.

    Pivoting is first-nonzero.  The pivot row is scaled on its nonzero
    entries only, and every other row is updated in place on the pivot row's
    nonzero support from the pivot column c on: left of c the pivot row is
    zero by construction.  So the result is the dense elimination's, entry
    for entry.  The row lists are written in place, so callers pass fresh
    copies (``Mat.row_list``).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    nrows = len(rows)
    zero, one, p = field.zero(), field.one(), field.p
    for c in range(ncols):
        # first nonzero pivot at or below r
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        support = [j for j in range(c + 1, ncols) if prow[j]]
        inv = field.inv(prow[c])
        if inv != one:
            for j in support:
                prow[j] = field.mul(inv, prow[j])
            prow[c] = one
        terms = [(j, prow[j]) for j in support]
        for i in range(nrows):
            ri = rows[i]
            factor = ri[c]
            if not factor or i == r:
                continue
            if p is None:
                for j, y in terms:
                    ri[j] -= factor * y
            else:
                for j, y in terms:
                    ri[j] = (ri[j] - factor * y) % p
            ri[c] = zero
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m: Mat):
    """Reduced row-echelon form.  Returns (reduced matrix, rank, pivot cols)."""
    if not m.entries:
        return m, 0, ()
    if m.rows == 1:
        return _rref_row(m)
    rows = m.row_list()
    pivots = _eliminate(rows, m.field)
    if m.field.kind == "q":
        _integral(rows)
    rank = len(pivots)
    # move zero rows to the bottom (elimination already ordered pivot rows)
    ent = tuple(chain.from_iterable(rows))
    return Mat(m.field, m.rows, m.cols, ent), rank, tuple(pivots)


def _rref_row(m: Mat):
    """``rref`` of a one-row matrix, as ``_eliminate`` reduces it: the row
    scaled by the inverse of its first nonzero entry, on its nonzero
    entries."""
    f, row = m.field, list(m.entries)
    pivots = ()
    for c, x in enumerate(row):
        if x:
            inv = f.inv(x)
            if inv != 1:
                for j in range(c + 1, len(row)):
                    if row[j]:
                        row[j] = f.mul(inv, row[j])
                row[c] = 1
            pivots = (c,)
            break
    if f.kind == "q":
        _integral([row])
    return Mat(f, 1, m.cols, tuple(row)), len(pivots), pivots


def rank(m: Mat) -> int:
    return rref(m)[1]


def _reduced_span(span: Mat):
    """(rref entries, pivot columns, non-pivot columns) of ``span``.  No rows
    spans the zero subspace: every column is then a non-pivot, and nothing
    is eliminated."""
    if not span.rows:
        return (), (), list(range(span.cols))
    red, _, pivots = rref(span)
    pivset = set(pivots)
    return red.entries, pivots, [c for c in range(span.cols) if c not in pivset]


def _null_space(span: Mat):
    """(basis, free): the kernel of ``span`` (r x n) as the columns of one
    n x len(free) matrix, read off one rref.  Column t is 1 at the non-pivot
    column free[t] and minus the reduced rows' entries there at the pivots,
    so the basis is the identity at the rows ``free``."""
    red, pivots, free = _reduced_span(span)
    f, n, d = span.field, span.cols, len(free)
    zero, neg = f.zero(), f.neg
    ent = [zero] * (n * d)
    for t, c in enumerate(free):
        ent[c * d + t] = f.one()
    for i, c in enumerate(pivots):
        row = red[i * n:(i + 1) * n]
        ent[c * d:(c + 1) * d] = [neg(row[fc]) if row[fc] else zero for fc in free]
    return Mat(f, n, d, tuple(ent)), free


def solve_matrix(a: Mat, b: Mat) -> Optional[Mat]:
    """Solve a X = B columnwise; None if any column is inconsistent."""
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row mismatch")
    field = a.field
    aug = Mat.hstack(field, [a, b])
    rows = aug.row_list()
    pivots = _eliminate(rows, field)
    # any pivot in the b-block means inconsistency
    for c in pivots:
        if c >= a.cols:
            return None
    zero = field.zero()
    out = [[zero] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc][j] = rows[i][a.cols + j]
    if field.kind == "q":
        _integral(out)
    return Mat.from_rows(field, out) if a.cols else Mat.zeros(field, 0, b.cols)


def inverse(m: Mat) -> Optional[Mat]:
    if m.rows != m.cols:
        return None
    x = solve_matrix(m, Mat.identity(m.field, m.rows))
    if x is None:
        return None
    if not m.mul(x).is_identity():
        return None
    return x


def _commuting_rows(field: Field, shapes, constraints):
    """Rows of the linear system phi_p . a - b . phi_q = 0 in flat unknowns.

    The unknowns are the blocks of ``shapes`` (rows, cols), laid out one after
    another, each in row-major order.  Each constraint ``(p, a, q, b)`` ties
    block p (b.rows x a.rows) to block q (b.cols x a.cols) and gives one row
    per entry of the product, in row-major order.  All-zero rows are dropped.
    """
    offs, total = [], 0
    for r, c in shapes:
        offs.append(total)
        total += r * c
    zero = field.zero()
    rows = []
    for p, a, q, b in constraints:
        off_p, off_q = offs[p], offs[q]
        ar, ac, bc = a.rows, a.cols, b.cols
        for i in range(b.rows):
            for j in range(ac):
                row = [zero] * total
                for k in range(ar):
                    c = a.entries[k * ac + j]
                    if c:
                        idx = off_p + i * ar + k
                        row[idx] = field.add(row[idx], c)
                for l in range(bc):
                    c = b.entries[i * bc + l]
                    if c:
                        idx = off_q + l * ac + j
                        row[idx] = field.sub(row[idx], c)
                if any(row):
                    rows.append(row)
    return rows


def _kernel_blocks(field: Field, rows, shapes):
    """Null space of ``rows``, each basis vector cut into the blocks of ``shapes``."""
    total = sum(r * c for r, c in shapes)
    basis, free = _null_space(Mat(field, len(rows), total, tuple(chain.from_iterable(rows))))
    out = []
    for t in range(len(free)):
        v = basis.entries[t::len(free)]
        blocks, at = [], 0
        for r, c in shapes:
            blocks.append(Mat(field, r, c, tuple(v[at:at + r * c])))
            at += r * c
        out.append(blocks)
    return out
