"""Exact matrices and subspaces over any supported field, on one sparse kernel.

All elimination goes through one field-generic sparse echelon kernel: rows
are {column: scalar} dicts, each reduced against the pivots found before
it and normalised, then back-substituted in one pass, so the work follows
the nonzeros (the rows of g - 1 for a monomial path action have at most
two).  A path action's rows, which are never edited, are tuples of
(column, scalar) pairs in increasing column order instead (`tensor_rows`):
a dict of them is an elimination row, and equal actions hash equal as
they are.
`Matrix` is a small dense grid, kept for per-arrow generator matrices; its
rref, rank and kernel run on the sparse kernel.  A subspace of k^n
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
import heapq

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

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        zero = self.field.zero()
        out = []
        for row in self.entries:
            new = [zero] * other.ncols
            for a, brow in zip(row, other.entries):
                if a:  # a zero entry of the left factor adds nothing
                    new = [x + a * b for x, b in zip(new, brow)]
            out.append(new)
        return Matrix(self.field, out)

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


def tensor_rows(left, right, right_ncols: int) -> tuple:
    """Rows of the Kronecker product of two row lists, left major.

    A row is a tuple of (column, nonzero scalar) pairs in strictly
    increasing column order; the output keeps that order and has no zero,
    so a row is the one pair tuple of its vector and equal rows compare
    and hash equal (scalars are canonical in every field).
    """
    return tuple(
        tuple((c * right_ncols + k, x * y) for c, x in lrow for k, y in rrow)
        for lrow in left
        for rrow in right
    )


# ---------------------------------------------------------------------------
# The elimination kernel.  A reduced echelon basis is a dict {pivot column:
# tail}, where the tail holds the row's nonzero entries other than the
# implicit 1 at the pivot, all in later columns; once back-substituted, no
# tail has an entry in any pivot column.  Rows are {column: nonzero scalar}
# dicts, so the work follows the nonzeros.


def _reduce(pivots: dict, row: dict) -> dict:
    """Clear the pivot columns from a sparse row in place, lowest column first.

    A tail that is not yet back-substituted can bring in a later pivot
    column, so a heap holds each pivot column the row starts with or gains.
    """
    heap = [c for c in row if c in pivots]
    heapq.heapify(heap)
    while heap:
        c = heapq.heappop(heap)
        f = row.pop(c, None)
        if f is None:  # cancelled, or pushed twice
            continue
        for k, v in pivots[c].items():
            x = row.get(k)
            if x is None:
                row[k] = -(f * v)
                if k in pivots:
                    heapq.heappush(heap, k)
            else:
                x = x - f * v
                if x:
                    row[k] = x
                else:
                    del row[k]
    return row


def _echelon(field, rows) -> dict:
    """The reduced echelon basis of the span of sparse rows, sorted by pivot.

    Forward: each row is cleared of the pivots found so far, normalised and
    stored as found, with its tail left unreduced.  Then one pass from the
    highest pivot down reduces each tail against the pivots above it, which
    are reduced already.  The rows are consumed: the basis takes them over.
    """
    pivots: dict = {}
    one = field.one()
    for row in rows:
        _reduce(pivots, row)
        if not row:
            continue
        lead = min(row)
        scale = row.pop(lead)
        if row and scale != one:
            inverse = one / scale
            for k, x in row.items():
                row[k] = x * inverse
        pivots[lead] = row
    order = sorted(pivots)
    for p in reversed(order):
        _reduce(pivots, pivots[p])
    return {p: pivots[p] for p in order}


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

    @property
    def dim(self) -> int:
        return len(self.rows)

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
        """The sum: one elimination of the rows of both bases."""
        self._check_compatible(other)
        rows = _echelon(self.field, self._sparse_rows() + other._sparse_rows())
        return Subspace._canonical(self.field, self.ambient_dim, rows)

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
