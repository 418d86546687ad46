import itertools
import random
from collections import Counter

from subtle.bigraded import Bidegree
from subtle.tables import PoincareTable, class_monomials, direct_sum


def _random_table(rng, wmax, dmax, clipped=False):
    counts = tuple(tuple(rng.randint(0, 3) for _ in range(dmax + 1)) for _ in range(wmax + 1))
    return PoincareTable(wmax, dmax, counts, None, clipped)


def _naive_entry(table, w, d):
    if 0 <= w <= table.wmax and 0 <= d <= table.dmax:
        return table.counts[w][d]
    return 0


def test_table_algebra_matches_naive_references_random():
    # the builder, the twisted sum, the class census and the comparison,
    # each against a reference written out cell by cell
    rng = random.Random(37)
    degs_pool = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 6)]
    fixed = [[], [(0, 0)], [(0, 0), (1, 2)], [(1, 2), (0, 0), (0, 1)]]
    clipped = Counter()
    found = Counter()
    for trial in range(300):
        wmax, dmax = rng.randint(0, 5), rng.randint(0, 5)

        # of: entries asked for in rising weight, then degree
        asked = []
        built = PoincareTable.of(wmax, dmax, lambda w, d: asked.append((w, d)) or w * 7 + d)
        assert asked == [(w, d) for w in range(wmax + 1) for d in range(dmax + 1)]
        assert all(c == w * 7 + d for w, d, c in built.cells())
        assert not built.clipped and built.class_gens is None

        # direct_sum: per-cell sums of twisted tables of any box, some clipped
        parts = [
            (
                _random_table(rng, rng.randint(0, 6), rng.randint(0, 6), rng.random() < 0.15),
                rng.randint(-2, 3),
                rng.randint(-2, 3),
            )
            for _ in range(rng.randint(0, 4))
        ]
        total = direct_sum(wmax, dmax, iter(parts))
        assert (total.wmax, total.dmax) == (wmax, dmax)
        for w in range(wmax + 1):
            for d in range(dmax + 1):
                want = sum(_naive_entry(t, w - i, d - j) for t, i, j in parts)
                assert total.counts[w][d] == want, (trial, w, d)
        should_clip = any(t.clipped or i < 0 or j < 0 for t, i, j in parts)
        assert total.clipped == should_clip, (trial, [(t.clipped, i, j) for t, i, j in parts])
        clipped[should_clip] += 1

        # class_monomials: a filter over every exponent vector; a class at
        # (0)[0] counts only to the power 0
        degs = fixed[trial] if trial < len(fixed) else rng.sample(degs_pool, rng.randint(0, 3))
        caps = [0 if b == (0, 0) else max(wmax, dmax) for b in degs]
        naive = []
        for e in itertools.product(*(range(c + 1) for c in caps)):
            w = sum(k * b[0] for k, b in zip(e, degs))
            d = sum(k * b[1] for k, b in zip(e, degs))
            if w <= wmax and d <= dmax:
                naive.append((e, w, d))
        census = class_monomials([Bidegree(*b) for b in degs], wmax, dmax)
        assert census == naive, (degs, wmax, dmax)

        # first_difference: a scan of this table's cells against the other's
        # entries, the other a copy of another box with a few cells changed
        table = _random_table(rng, wmax, dmax)
        ow, od = rng.randint(0, 6), rng.randint(0, 6)
        rows = [[_naive_entry(table, w, d) for d in range(od + 1)] for w in range(ow + 1)]
        for _ in range(rng.randint(0, 2)):
            w, d = rng.randint(0, ow), rng.randint(0, od)
            rows[w][d] += 1
        other = PoincareTable(ow, od, tuple(map(tuple, rows)))
        first = None
        for w in range(wmax + 1):
            for d in range(dmax + 1):
                if first is None and table.counts[w][d] != _naive_entry(other, w, d):
                    first = (w, d)
        assert table.first_difference(other) == first, (trial, table, other)
        assert table.same_entries(other) == ((ow, od) == (wmax, dmax) and first is None)
        found[first is None] += 1
    assert min(clipped.values()) >= 50 and min(found.values()) >= 50, (clipped, found)
