"""Homogeneous finite-group actions on the arrow spaces of a quiver.

A group element, generator or closed, is a plain tuple of `Matrix`, one
invertible matrix per track edge in `ActionSpec.edges` order, and the
product of two elements is the tuple of their componentwise products.  The
acting group is materialized as the closure of the generator tuples under
that product, i.e. the image of the abstract group inside the product of
general linear groups; invariants only depend on this image.  The action
extends to a path's tensor space diagonally, with the matrix for the last
edge as the leftmost tensor factor, in `linalg`'s row format
(`action_rows`); `tests/oracle.py` has the dense `act_on_path`, and the
characters of a Schurian spec over the closed group.
"""

from __future__ import annotations

from .linalg import Matrix
from .quiver import Quiver


DEFAULT_GROUP_CAP = 1024


class ActionError(Exception):
    pass


class NonInvertibleGenerator(ActionError):
    pass


class ClosureCapExceeded(ActionError):
    pass


class ActionSpec:
    """Generator matrices for each nonzero arrow space of a quiver."""

    def __init__(self, quiver: Quiver, field, generators, group_cap: int = DEFAULT_GROUP_CAP):
        """generators: iterable of (name, {(target, source): Matrix-like rows})."""
        self.quiver = quiver
        self.field = field
        self.group_cap = group_cap
        self.edges = quiver.track_edges()
        self._position = {e: i for i, e in enumerate(self.edges)}
        names = []
        elements = []
        for name, mats in generators:
            missing = [e for e in self.edges if e not in mats]
            if missing:
                t, s = missing[0]
                raise ValueError(f"generator {name!r} has no matrix for arrow {s!r} -> {t!r}")
            unknown = [e for e in mats if e not in self._position]
            if unknown:
                t, s = unknown[0]
                raise ValueError(f"generator {name!r} has a matrix for the nonexistent arrow {s!r} -> {t!r}")
            tuple_mats = []
            for edge in self.edges:
                m = mats[edge]
                if not isinstance(m, Matrix):
                    m = Matrix.from_rows(field, m)
                d = quiver.dim(*edge)
                if (m.nrows, m.ncols) != (d, d):
                    t, s = edge
                    raise ValueError(
                        f"generator {name!r}: matrix for {s!r} -> {t!r} must be {d}x{d}, got {m.nrows}x{m.ncols}"
                    )
                if m.field != field:
                    raise ValueError(f"generator {name!r}: matrix over the wrong field")
                if not m.is_invertible():
                    t, s = edge
                    raise NonInvertibleGenerator(f"generator {name!r} is singular on {s!r} -> {t!r}")
                tuple_mats.append(m)
            names.append(name)
            elements.append(tuple(tuple_mats))
        self.generator_names = tuple(names)
        self.generator_elements = tuple(elements)

    def identity(self) -> tuple:
        return tuple(
            Matrix.identity(self.field, self.quiver.dim(*edge)) for edge in self.edges
        )

    def edge_matrix(self, element: tuple, edge) -> Matrix:
        return element[self._position[edge]]


def close_group(spec: ActionSpec) -> list[tuple]:
    """Breadth-first closure of the generator tuples, identity first.

    An element is a tuple of matrices in `spec.edges` order, and the product
    of u and g is the tuple of their componentwise products.  The returned
    list is also the queue: the loop multiplies each element, in the order
    they were found, by every generator.
    """
    identity = spec.identity()
    elements = [identity]
    seen = {identity}
    for u in elements:
        for g in spec.generator_elements:
            v = tuple(a * b for a, b in zip(u, g))
            if v not in seen:
                if len(elements) >= spec.group_cap:
                    raise ClosureCapExceeded(
                        f"group closure exceeds the cap of {spec.group_cap} elements"
                    )
                seen.add(v)
                elements.append(v)
    return elements
