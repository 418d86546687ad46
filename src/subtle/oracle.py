"""Groebner-free cross-check of graded dimensions.

For one bidegree cell, the dimension of a presented algebra is the number of
monomials of that bidegree minus the rank of all relation multiples landing
there, computed by dense GF(2) row reduction on raw polynomial products.  No
normal forms, no basis completion: this is the independent side of the
engine/oracle pair, kept deliberately naive.
"""

from __future__ import annotations

from .bigraded import AlgebraPresentation, PoincareTable, _mono_mul
# the name bench/test_bench.py::test_oracle_keeps_its_own_enumerator reads
from .bigraded import _dense_monomials as _monomials_of_bidegree
from .gf2 import RowSpace


def oracle_entry(pres: AlgebraPresentation, w: int, d: int, store: dict | None = None) -> int:
    """Dimension of the (w)[d] piece by exhaustive row reduction.  The cells of
    one table share its dict ``store``: the relations with their bidegrees and
    module flags, and the enumeration memo; a call without one makes its own."""
    store = {} if store is None else store
    if "relations" not in store:
        store["relations"] = [
            (r, pres.poly_bidegree(r), any(map(pres.module_count, r))) for r in pres.relations
        ]
    basis = _monomials_of_bidegree(pres, w, d, pres.has_unit, store=store)
    if not basis:
        return 0
    index = {m: i for i, m in enumerate(basis)}
    space = RowSpace()
    for rel, rb, rel_has_module in store["relations"]:
        tw, td = w - rb.w, d - rb.d
        if tw < 0 or td < 0:
            continue
        for t in _monomials_of_bidegree(pres, tw, td, True, store=store):
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


def oracle_table(pres: AlgebraPresentation, wmax: int, dmax: int) -> PoincareTable:
    store: dict = {}
    counts = tuple(
        tuple(oracle_entry(pres, w, d, store) for d in range(dmax + 1))
        for w in range(wmax + 1)
    )
    return PoincareTable(wmax, dmax, counts)
