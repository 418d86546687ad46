"""Groebner-free cross-check of graded dimensions.

For one bidegree cell, the dimension of a presented algebra is the number of
monomials of that bidegree minus the rank of all relation multiples landing
there, computed by dense GF(2) row reduction on raw polynomial products.  No
normal forms, no basis completion: this is the independent side of the
engine/oracle pair, kept deliberately naive.

A table holds its relations and the enumerator's tails memo for itself.  The
finished cell lists depend only on the generator layout, so tables handed one
``shared`` dict list each cell of a layout once; without one, each table
keeps its own.  No enumeration state is process-wide.
"""

from __future__ import annotations

from .bigraded import AlgebraPresentation, PoincareTable, _mono_mul
# the name bench/test_bench.py::test_oracle_keeps_its_own_enumerator reads
from .bigraded import _dense_monomials as _monomials_of_bidegree
from .gf2 import RowSpace


def _cell(pres: AlgebraPresentation, w: int, d: int, unit: bool, store: dict) -> list:
    """The enumerator's monomials of (w)[d], listed once per key in the
    table's cell lists ``store["cells"]``; callers only read them."""
    cells = store.setdefault("cells", {})
    found = cells.get((w, d, unit))
    if found is None:
        found = cells[w, d, unit] = _monomials_of_bidegree(pres, w, d, unit, store=store)
    return found


def oracle_entry(pres: AlgebraPresentation, w: int, d: int, store: dict | None = None) -> int:
    """Dimension of the (w)[d] piece by exhaustive row reduction.  The cells of
    one table share its dict ``store``: the relations with their bidegrees and
    module flags, the enumeration memo and the cell lists; a call without one
    makes its own."""
    store = {} if store is None else store
    if "relations" not in store:
        store["relations"] = [
            (r, pres.poly_bidegree(r), any(map(pres.module_count, r))) for r in pres.relations
        ]
    basis = _cell(pres, w, d, pres.has_unit, store)
    if not basis:
        return 0
    index = {m: i for i, m in enumerate(basis)}
    space = RowSpace()
    for rel, rb, rel_has_module in store["relations"]:
        tw, td = w - rb.w, d - rb.d
        if tw < 0 or td < 0:
            continue
        for t in _cell(pres, tw, td, True, store):
            if rel_has_module and pres.module_count(t):
                continue  # module relations only take coefficient-ring multiples
            row = 0
            for m in rel:
                prod = _mono_mul(t, m)
                if prod not in index:
                    break
                row ^= 1 << index[prod]
            else:
                space.add(row)
    return len(basis) - space.rank


def oracle_table(
    pres: AlgebraPresentation, wmax: int, dmax: int, shared: dict | None = None
) -> PoincareTable:
    """The oracle's counts on the box (wmax, dmax).  ``shared`` keeps the cell
    lists per generator layout ``(gen_w, gen_d, module_idx)`` across the
    tables handed it, so each cell of a layout is enumerated once; the
    relations and the tails memo stay with this table."""
    store: dict = {}
    if shared is not None:
        store["cells"] = shared.setdefault((pres.gen_w, pres.gen_d, pres.module_idx), {})
    return PoincareTable.of(wmax, dmax, lambda w, d: oracle_entry(pres, w, d, store))
