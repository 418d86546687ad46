import random

from subtle.gf2 import RowSpace, kernel_of_map, solve


def _combine(columns, tag):
    """Sum over GF(2) of the columns whose index bit is set in tag."""
    out = 0
    for i, col in enumerate(columns):
        if tag >> i & 1:
            out ^= col
    return out


def _random_columns(rng):
    # narrow rows next to many columns force dependencies; zero columns included
    width = rng.randint(0, 8)
    return [rng.getrandbits(width) if width else 0 for _ in range(rng.randint(0, 10))]


def test_solve_particular_solution_hits_the_target_random():
    rng = random.Random(3)
    found = missed = 0
    for trial in range(300):
        columns = _random_columns(rng)
        if rng.random() < 0.5:
            target = _combine(columns, rng.getrandbits(len(columns)))  # reachable
        else:
            target = rng.getrandbits(8)
        x, _ = solve(columns, target)
        assert (x is None) == (not RowSpace(columns).contains(target)), (columns, target)
        if x is None:
            missed += 1
        else:
            found += 1
            assert x >> len(columns) == 0, (columns, target, x)
            assert _combine(columns, x) == target, (columns, target, x)
    assert found > 50 and missed > 50


def test_kernel_maps_to_zero_and_has_full_dimension_random():
    rng = random.Random(5)
    for trial in range(300):
        columns = _random_columns(rng)
        kernel = kernel_of_map(columns)
        for tag in kernel:
            assert tag and tag >> len(columns) == 0, (columns, kernel)
            assert _combine(columns, tag) == 0, (columns, kernel)
        assert len(kernel) == len(columns) - RowSpace(columns).rank, (columns, kernel)
        # a basis: no nonempty sum of kernel vectors vanishes
        assert RowSpace(kernel).rank == len(kernel), (columns, kernel)
        assert kernel == solve(columns, 0)[1] == solve(columns, rng.getrandbits(8))[1]


def test_solve_zero_target_and_empty_map():
    assert solve([], 0) == (0, [])
    assert solve([], 1) == (None, [])
    assert solve([0, 0], 0) == (0, [0b01, 0b10])
    assert kernel_of_map([0b11, 0b01, 0b10]) == [0b111]
