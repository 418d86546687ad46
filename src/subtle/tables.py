"""Poincare tables: bigraded GF(2)-dimension counts over a finite box, and
the tensor of a free H-algebra table with a module table.

``bigraded`` re-exports both names; the engine there fills the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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
        counts = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.counts, other.counts)
        )
        return PoincareTable(
            self.wmax, self.dmax, counts, None, self.clipped or other.clipped
        )

    def shift(self, i: int, j: int) -> "PoincareTable":
        """Tate twist (i)[j]: entry (w, d) becomes old entry (w-i, d-j)."""
        clipped = self.clipped or i < 0 or j < 0
        counts = tuple(
            tuple(self.entry(w - i, d - j) for d in range(self.dmax + 1))
            for w in range(self.wmax + 1)
        )
        return PoincareTable(self.wmax, self.dmax, counts, None, clipped)

    def same_entries(self, other: "PoincareTable") -> bool:
        return (self.wmax, self.dmax) == (other.wmax, other.dmax) and all(
            a == b
            for ra, rb in zip(self.counts, other.counts)
            for a, b in zip(ra, rb)
        )

    def to_json_obj(self) -> dict:
        entries = [
            [w, d, self.counts[w][d]]
            for w in range(self.wmax + 1)
            for d in range(self.dmax + 1)
        ]
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


def table_tensor(free: PoincareTable, module: PoincareTable) -> PoincareTable:
    """Tensor over H of a free H-algebra table with a module table.

    ``free`` must carry class-generator bidegrees; the result convolves the
    module table against the class-monomial counting function.
    """
    if free.class_gens is None:
        raise ShapeMismatch("free factor lacks generator metadata")
    wmax = min(free.wmax, module.wmax)
    dmax = min(free.dmax, module.dmax)
    cls_counts = [[0] * (dmax + 1) for _ in range(wmax + 1)]
    cls_counts[0][0] = 1
    for b in free.class_gens:
        # unbounded powers of each generator, folded one generator at a time
        nxt = [[0] * (dmax + 1) for _ in range(wmax + 1)]
        for w in range(wmax + 1):
            for d in range(dmax + 1):
                if not cls_counts[w][d]:
                    continue
                k = 0
                while w + k * b.w <= wmax and d + k * b.d <= dmax:
                    nxt[w + k * b.w][d + k * b.d] += cls_counts[w][d]
                    k += 1
                    if b.w == 0 and b.d == 0:
                        break
        cls_counts = nxt
    counts = tuple(
        tuple(
            sum(
                cls_counts[a][b] * module.entry(w - a, d - b)
                for a in range(w + 1)
                for b in range(d + 1)
            )
            for d in range(dmax + 1)
        )
        for w in range(wmax + 1)
    )
    return PoincareTable(wmax, dmax, counts)
