"""Dense linear algebra over GF(2) on int-encoded bit rows.

A vector over a basis b_0..b_{n-1} is an int whose bit i is the coefficient
of b_i.  Row reduction keeps a pivot row per leading bit, which makes rank,
membership and kernel computations short and fast at desk scale.
"""

from __future__ import annotations


def _reduce(row: int, tag: int, pivots: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """Clear leading bits of ``row`` against the pivots, summing their tags
    into ``tag``; stops at 0 or at the first leading bit with no pivot."""
    while row:
        p = pivots.get(row.bit_length() - 1)
        if p is None:
            break
        row ^= p[0]
        tag ^= p[1]
    return row, tag


class RowSpace:
    """Incrementally built row space with membership queries."""

    def __init__(self, rows: list[int] | None = None):
        self.pivots: dict[int, tuple[int, int]] = {}
        for row in rows or []:
            self.add(row)

    def add(self, row: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = _reduce(row, 0, self.pivots)[0]
        if row:
            self.pivots[row.bit_length() - 1] = (row, 0)
            return True
        return False

    def contains(self, row: int) -> bool:
        return _reduce(row, 0, self.pivots)[0] == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _eliminate(columns: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Forward elimination tagging each row with the columns it sums: returns
    (leading bit -> (row, tag), tags of the combinations that vanish)."""
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i, col in enumerate(columns):
        row, tag = _reduce(col, 1 << i, pivots)
        if row:
            pivots[row.bit_length() - 1] = (row, tag)
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
    row, tag = _reduce(target, 0, pivots)
    return (None if row else tag), kernel
