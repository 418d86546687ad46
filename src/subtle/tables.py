"""Poincare tables: bigraded GF(2)-dimension counts over a finite box, and
the algebra every derived table is made with.

Four routines know how a table is laid out and combined: ``PoincareTable.of``
builds one from its entries, ``direct_sum`` adds twisted tables,
``class_monomials`` lists the monomials in free classes that a box holds and
``PoincareTable.first_difference`` compares two tables.  ``bigraded``
re-exports ``PoincareTable`` and ``table_tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import ShapeMismatch

if TYPE_CHECKING:
    from .bigraded import Bidegree


@dataclass(frozen=True)
class PoincareTable:
    """Bigraded GF(2)-dimension counts over a finite box."""

    wmax: int
    dmax: int
    counts: tuple[tuple[int, ...], ...]  # counts[w][d]
    class_gens: tuple[Bidegree, ...] | None = None
    clipped: bool = False

    @classmethod
    def of(
        cls, wmax: int, dmax: int, entry: Callable[[int, int], int], clipped: bool = False
    ) -> "PoincareTable":
        """The table whose (w, d) entry is ``entry(w, d)``, asked for in
        rising weight, then degree."""
        counts = tuple(
            tuple(entry(w, d) for d in range(dmax + 1)) for w in range(wmax + 1)
        )
        return cls(wmax, dmax, counts, None, clipped)

    def entry(self, w: int, d: int) -> int:
        if 0 <= w <= self.wmax and 0 <= d <= self.dmax:
            return self.counts[w][d]
        return 0

    def cells(self):
        for w in range(self.wmax + 1):
            for d in range(self.dmax + 1):
                yield w, d, self.counts[w][d]

    def __add__(self, other: "PoincareTable") -> "PoincareTable":
        if (self.wmax, self.dmax) != (other.wmax, other.dmax):
            raise ShapeMismatch("tables cover different boxes")
        return direct_sum(self.wmax, self.dmax, [(self, 0, 0), (other, 0, 0)])

    def shift(self, i: int, j: int) -> "PoincareTable":
        """Tate twist (i)[j]: entry (w, d) becomes old entry (w-i, d-j)."""
        return direct_sum(self.wmax, self.dmax, [(self, i, j)])

    def first_difference(self, other: "PoincareTable") -> tuple[int, int] | None:
        """The first cell (w, d) of this table whose entry ``other`` does not share."""
        return next(((w, d) for w, d, c in self.cells() if other.entry(w, d) != c), None)

    def same_entries(self, other: "PoincareTable") -> bool:
        return (self.wmax, self.dmax) == (other.wmax, other.dmax) and (
            self.first_difference(other) is None
        )

    def to_json_obj(self) -> dict:
        entries = [[w, d, c] for w, d, c in self.cells()]
        return {"box": [self.wmax, self.dmax], "entries": entries}

    def render_text(self) -> str:
        width = max(
            len(f"d={self.dmax}"),
            max((len(str(c)) for _, _, c in self.cells()), default=1),
        ) + 2
        label = max(len(f"w={self.wmax}"), 4)
        lines = []
        header = " " * label + "".join(
            f"d={d}".rjust(width) for d in range(self.dmax + 1)
        )
        lines.append(header)
        for w in range(self.wmax + 1):
            row = f"w={w}".ljust(label) + "".join(
                str(self.counts[w][d]).rjust(width) for d in range(self.dmax + 1)
            )
            lines.append(row)
        return "\n".join(lines)


def direct_sum(
    wmax: int, dmax: int, parts: Iterable[tuple[PoincareTable, int, int]]
) -> PoincareTable:
    """The sum over ``parts`` of each table twisted by its (i)[j], on the box:
    entry (w, d) adds the entries at (w - i, d - j).  It is clipped when a
    part is, or when a negative twist moves cells of a part out of the box."""
    parts = tuple(parts)
    clipped = any(t.clipped or i < 0 or j < 0 for t, i, j in parts)
    return PoincareTable.of(
        wmax, dmax, lambda w, d: sum(t.entry(w - i, d - j) for t, i, j in parts), clipped
    )


def class_monomials(
    degs: Iterable[Bidegree], wmax: int, dmax: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """Every monomial in free classes of bidegrees ``degs`` whose bidegree
    lies in the box, as (exponents, w, d); a class at (0)[0] counts only to
    the power 0."""
    found: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    for b in degs:
        grown = []
        for e, w, d in found:
            k = 0
            while w + k * b.w <= wmax and d + k * b.d <= dmax:
                grown.append((e + (k,), w + k * b.w, d + k * b.d))
                k += 1
                if b.w == b.d == 0:
                    break
        found = grown
    return found


def table_tensor(free: PoincareTable, module: PoincareTable) -> PoincareTable:
    """Tensor over H of a free H-algebra table with a module table: the module
    table twisted by each class monomial of ``free`` (its ``class_gens``)."""
    if free.class_gens is None:
        raise ShapeMismatch("free factor lacks generator metadata")
    wmax = min(free.wmax, module.wmax)
    dmax = min(free.dmax, module.dmax)
    monomials = class_monomials(free.class_gens, wmax, dmax)
    return direct_sum(wmax, dmax, ((module, w, d) for _, w, d in monomials))
