"""Exact matrices and subspaces over any supported field, on one sparse kernel.

All elimination goes through one field-generic sparse echelon kernel: rows
are {column: scalar} dicts, inserted one at a time, reduced against the
pivots, normalised and back-substituted, so the work follows the nonzeros
(the rows of g - 1 for a monomial path action have at most two).
`Matrix` is a small dense grid, kept for per-arrow generator matrices; its
rref, rank, inverse and kernel run on the sparse kernel.  A subspace of k^n
is stored as its unique reduced row echelon basis in sparse form, so
subspace equality is literal equality of the stored rows, and its vectors
are fixed by their pivot entries: so `Subspace.split` sums subspaces of it
in its own coordinates, and reads a complement off that elimination.
Tensor products use one fixed basis-ordering convention throughout the
package: the left factor is the major index (the slot for the later
composition factor comes first).
"""

from __future__ import annotations

import functools

from .fields import FieldMismatch


class LinAlgError(Exception):
    pass


class ShapeMismatch(LinAlgError):
    pass


class AmbientMismatch(LinAlgError):
    pass


class NotASubspace(LinAlgError):
    pass


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, entries):
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise ShapeMismatch("ragged rows")

    @classmethod
    def from_rows(cls, field, rows):
        """Build a matrix, coercing plain ints (and rationals) per the field."""
        return cls(field, [[field.coerce(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, field, n):
        zero, one = field.zero(), field.one()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero()
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        return Matrix(
            self.field,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.field != other.field:
                raise FieldMismatch("matrices over different fields")
            if self.ncols != other.nrows:
                raise ShapeMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
            cols = list(zip(*other.entries)) if other.entries else []
            zero = self.field.zero()
            out = []
            for row in self.entries:
                new = []
                for col in cols:
                    acc = zero
                    for a, b in zip(row, col):
                        acc = acc + a * b
                    new.append(acc)
                out.append(new)
            return Matrix(self.field, out)
        # scalar multiple
        s = self.field.coerce(other)
        return Matrix(self.field, [[a * s for a in row] for row in self.entries])

    def __rmul__(self, other):
        return self * other

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.entries])

    def __pow__(self, k: int):
        if self.nrows != self.ncols:
            raise ShapeMismatch("powers need a square matrix")
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        out = Matrix.identity(self.field, self.nrows)
        for _ in range(k):
            out = out * self
        return out

    def transpose(self):
        return Matrix(self.field, list(zip(*self.entries)) if self.entries else [])

    def tensor(self, other: "Matrix") -> "Matrix":
        """Kronecker product; the left factor is the major index."""
        if self.field != other.field:
            raise FieldMismatch("tensor of matrices over different fields")
        rows = []
        for arow in self.entries:
            for brow in other.entries:
                rows.append([a * b for a in arow for b in brow])
        if not rows:
            return Matrix.zeros(self.field, self.nrows * other.nrows, self.ncols * other.ncols)
        return Matrix(self.field, rows)

    def sparse_rows(self):
        """The rows as {column: nonzero entry} dicts."""
        return [{c: x for c, x in enumerate(row) if x} for row in self.entries]

    def rref(self):
        """Reduced row echelon form (zero rows last) and the pivot columns."""
        pivots = _echelon(self.field, self.sparse_rows())
        zero = self.field.zero()
        rows = [_dense(self.field, self.ncols, p, tail) for p, tail in pivots.items()]
        rows += [[zero] * self.ncols for _ in range(self.nrows - len(rows))]
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        """Exact inverse via row reduction of the augmented matrix."""
        if self.nrows != self.ncols:
            raise ShapeMismatch("only square matrices can be inverted")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        augmented = Matrix(
            self.field,
            [list(a) + list(b) for a, b in zip(self.entries, ident.entries)],
        )
        red, pivots = augmented.rref()
        if tuple(pivots) != tuple(range(n)):
            raise LinAlgError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in red.entries])

    def kernel(self) -> "Subspace":
        """The right kernel {v : m v = 0}, as a canonical subspace of k^ncols."""
        return kernel_of_rows(self.field, self.ncols, self.sparse_rows())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def tensor_vector(u, v):
    """Coordinates of u (x) v in the left-major lexicographic tensor basis."""
    return tuple(a * b for a in u for b in v)


def tensor_rows(left, right, right_ncols: int):
    """Sparse rows of the Kronecker product of two sparse row lists, left major."""
    return [
        {c * right_ncols + k: x * y for c, x in lrow.items() for k, y in rrow.items()}
        for lrow in left
        for rrow in right
    ]


# ---------------------------------------------------------------------------
# The elimination kernel.  A reduced echelon basis is a dict {pivot column:
# tail}, where the tail holds the row's nonzero entries other than the
# implicit 1 at the pivot; no tail has an entry in any pivot column.  Rows
# are {column: nonzero scalar} dicts, so the work follows the nonzeros.


def _subtract(row: dict, f, tail: dict) -> None:
    """row -= f * tail, in place, dropping entries that cancel."""
    for k, v in tail.items():
        x = row.get(k)
        if x is None:
            row[k] = -(f * v)
        else:
            x = x - f * v
            if x:
                row[k] = x
            else:
                del row[k]


def _reduce(pivots: dict, row: dict) -> dict:
    """Eliminate the pivot columns from a sparse row, in place.

    Tails avoid the pivot columns, so one pass over the pivots the row
    starts with clears them all.
    """
    for c in [c for c in row if c in pivots]:
        _subtract(row, row.pop(c), pivots[c])
    return row


def _insert(pivots: dict, row: dict, one) -> None:
    """Add a sparse row (which the basis takes over) to a reduced echelon basis."""
    _reduce(pivots, row)
    if not row:
        return
    lead = min(row)
    scale = row.pop(lead)
    if row and scale != one:
        inverse = one / scale
        for k, x in row.items():
            row[k] = x * inverse
    for tail in pivots.values():
        f = tail.pop(lead, None)
        if f is not None:
            _subtract(tail, f, row)
    pivots[lead] = row


def _echelon(field, rows) -> dict:
    """The reduced echelon basis of the span of sparse rows, sorted by pivot.

    The rows are consumed: the basis takes them over and edits them.
    """
    pivots: dict = {}
    one = field.one()
    for row in rows:
        _insert(pivots, row, one)
    return dict(sorted(pivots.items()))


def _sparse_vector(vector, ambient_dim: int) -> dict:
    v = tuple(vector)
    if len(v) != ambient_dim:
        raise AmbientMismatch(f"vector of length {len(v)} in k^{ambient_dim}")
    return {i: x for i, x in enumerate(v) if x}


def _dense(field, ncols: int, pivot: int, tail: dict) -> list:
    row = [field.zero()] * ncols
    row[pivot] = field.one()
    for k, x in tail.items():
        row[k] = x
    return row


def _kernel_of_echelon(field, ncols: int, pivots: dict) -> "Subspace":
    if len(pivots) in (0, ncols):  # no pivot or no free column
        return _trivial(field, ncols, not pivots)
    # one kernel vector per free column f: e_f - sum over pivots p of R[p][f] e_p
    one = field.one()
    vectors = {f: {f: one} for f in range(ncols) if f not in pivots}
    for p, tail in pivots.items():
        for f, x in tail.items():
            vectors[f][p] = -x
    return Subspace._canonical(field, ncols, _echelon(field, vectors.values()))


def kernel_of_rows(field, ncols: int, rows) -> "Subspace":
    """The right kernel of the matrix with these sparse rows (which it consumes)."""
    return _kernel_of_echelon(field, ncols, _echelon(field, rows))


@functools.lru_cache(maxsize=128)
def _trivial(field, ambient_dim: int, full: bool) -> "Subspace":
    rows = {i: {} for i in range(ambient_dim)} if full else {}
    return Subspace(field, ambient_dim, rows)


class Subspace:
    """A subspace of k^n held as its reduced row echelon basis.

    The basis is stored sparse only: ``rows`` maps each pivot column, in
    increasing order, to the row's tail (see the elimination kernel above).
    Values are never edited after construction, so the zero and full
    subspaces, unique in reduced form, are shared instances.
    """

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field, ambient_dim, rows):
        # callers go through _canonical(), which shares the trivial subspaces
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def _canonical(cls, field, ambient_dim, rows) -> "Subspace":
        """Wrap a sorted reduced echelon basis, sharing the zero and full subspaces."""
        if not rows or len(rows) == ambient_dim:
            return _trivial(field, ambient_dim, bool(rows))
        return cls(field, ambient_dim, rows)

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors) -> "Subspace":
        rows = [_sparse_vector(v, ambient_dim) for v in vectors]
        return cls._canonical(field, ambient_dim, _echelon(field, rows))

    @classmethod
    def zero(cls, field, ambient_dim) -> "Subspace":
        return _trivial(field, ambient_dim, False)

    @classmethod
    def full(cls, field, ambient_dim) -> "Subspace":
        return _trivial(field, ambient_dim, True)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        return tuple(self.rows)

    @property
    def basis(self) -> tuple:
        """The reduced echelon basis as dense row tuples."""
        return tuple(
            tuple(_dense(self.field, self.ambient_dim, p, tail))
            for p, tail in self.rows.items()
        )

    def _sparse_rows(self):
        """Fresh full sparse rows, safe to hand to the kernel."""
        one = self.field.one()
        return [{p: one, **tail} for p, tail in self.rows.items()]

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"k^{self.ambient_dim} vs k^{other.ambient_dim}")

    def __add__(self, other: "Subspace") -> "Subspace":
        """The sum, with the smaller space's rows inserted into the larger one's pivots."""
        self._check_compatible(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        pivots = {p: dict(tail) for p, tail in big.rows.items()}
        one = self.field.one()
        for row in small._sparse_rows():
            _insert(pivots, row, one)
        if len(pivots) == big.dim:
            return big
        return Subspace._canonical(self.field, self.ambient_dim, dict(sorted(pivots.items())))

    def annihilator(self) -> "Subspace":
        """All functionals (as coordinate vectors) vanishing on this subspace."""
        return _kernel_of_echelon(self.field, self.ambient_dim, self.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def reduce(self, vector):
        """Remainder of a vector after elimination against the basis."""
        zero = self.field.zero()
        row = _reduce(self.rows, _sparse_vector(vector, self.ambient_dim))
        return [row.get(i, zero) for i in range(self.ambient_dim)]

    def contains(self, vector) -> bool:
        return not _reduce(self.rows, _sparse_vector(vector, self.ambient_dim))

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if self.dim > other.dim:
            return False
        return not any(_reduce(other.rows, row) for row in self._sparse_rows())

    def complement_in(self, whole: "Subspace") -> "Subspace":
        """A canonical complement c with self (+) c = whole (see `split`)."""
        self._check_compatible(whole)
        return whole.split((self,))[1]

    def split(self, spaces):
        """(S, c): the sum S of subspaces of self, in k^(dim self), and a complement.

        Each row of the spaces is restricted to self's pivot columns and
        eliminated there once; c is the rows of self whose position is no
        pivot of S (pivot extension).  The restriction is exact only inside
        self, so each row is also reduced against self: NotASubspace if not.
        """
        if not spaces:
            return Subspace.zero(self.field, self.dim), self
        position = {p: j for j, p in enumerate(self.rows)}
        coords = []
        for space in spaces:
            for row in space._sparse_rows():
                coords.append({position[k]: x for k, x in row.items() if k in position})
                if _reduce(self.rows, row):
                    raise NotASubspace("split: a space is not inside the whole")
        used = _echelon(self.field, coords)
        keep = {p: tail for j, (p, tail) in enumerate(self.rows.items()) if j not in used}
        return (
            Subspace._canonical(self.field, self.dim, used),
            Subspace._canonical(self.field, self.ambient_dim, keep),
        )

    def tensor(self, other: "Subspace") -> "Subspace":
        """Span of all pairwise tensors of basis vectors, left factor major.

        Tensors of reduced echelon rows are reduced echelon rows with pivot
        p * m + q, so no elimination is needed.
        """
        if self.field != other.field:
            raise FieldMismatch("tensor of subspaces over different fields")
        m = other.ambient_dim
        rows = {}
        for p, left in self.rows.items():
            for q, right in other.rows.items():
                tail = {p * m + k: y for k, y in right.items()}
                for c, x in left.items():
                    tail[c * m + q] = x
                    for k, y in right.items():
                        tail[c * m + k] = x * y
                rows[p * m + q] = tail
        return Subspace._canonical(self.field, self.ambient_dim * m, rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"
