"""Dense linear algebra over GF(2) on int-encoded bit rows.

A vector over a basis b_0..b_{n-1} is an int whose bit i is the coefficient
of b_i.  Row reduction keeps a pivot row per leading bit, which makes rank,
membership and kernel computations short and fast at desk scale.
"""

from __future__ import annotations


def _reduce(row: int, pivots: dict[int, int]) -> int:
    while row:
        h = row.bit_length() - 1
        p = pivots.get(h)
        if p is None:
            return row
        row ^= p
    return 0


class RowSpace:
    """Incrementally built row space with membership queries."""

    def __init__(self, rows: list[int] | None = None):
        self.pivots: dict[int, int] = {}
        for row in rows or []:
            self.add(row)

    def add(self, row: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = _reduce(row, self.pivots)
        if row:
            self.pivots[row.bit_length() - 1] = row
            return True
        return False

    def contains(self, row: int) -> bool:
        return _reduce(row, self.pivots) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _eliminate(columns: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Forward elimination tagging each row with the columns it sums: returns
    (leading bit -> (row, tag), tags of the combinations that vanish)."""
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i, col in enumerate(columns):
        row, tag = col, 1 << i
        while row:
            h = row.bit_length() - 1
            if h not in pivots:
                pivots[h] = (row, tag)
                break
            prow, ptag = pivots[h]
            row ^= prow
            tag ^= ptag
        else:
            kernel.append(tag)
    return pivots, kernel


def kernel_of_map(images: list[int]) -> list[int]:
    """Kernel basis of the linear map sending domain basis vector i to images[i].

    Returns ints over the domain basis; bit i set means basis vector i enters
    the kernel combination.
    """
    return _eliminate(images)[1]


def solve(columns: list[int], target: int) -> tuple[int | None, list[int]]:
    """Solve sum_{i in x} columns[i] = target over GF(2).

    Returns (particular solution as a bitset over column indices or None,
    kernel basis of the column combination map).  Deterministic for fixed
    input order.
    """
    pivots, kernel = _eliminate(columns)
    row, tag = target, 0
    while row:
        h = row.bit_length() - 1
        if h not in pivots:
            return None, kernel
        prow, ptag = pivots[h]
        row ^= prow
        tag ^= ptag
    return tag, kernel
