"""Tests for the integer Smith form with transforms that the oracle
routes of tests/oracles.py build on (the kernels modulo any modulus behind
the Smith-route meets, complements and congruence-unit kernels, and the
Smith diagonal), its diagonal checked against sympy."""

import random

import pytest
import sympy

import oracles
from oracles import smith_with_transforms


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def checked_diagonal(mat):
    """The diagonal of smith_with_transforms, after checking u*mat*v = d,
    that d is diagonal, and that u and v are unimodular."""
    d, u, v = smith_with_transforms(mat)
    rows, cols = len(mat), len(mat[0]) if mat else 0
    assert _product(_product(u, mat), v) == d
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    for t in (u, v):
        assert not t or abs(sympy.Matrix(t).det()) == 1
    return [d[i][i] for i in range(min(rows, cols))]


def _check_chain(diag):
    """d_1 | d_2 | ..., every entry nonnegative (0 is divisible by all)."""
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0


class TestSmithDiagonal:
    @pytest.mark.parametrize("mat, expected", [
        ([], []),
        ([[]], []),
        ([[]] * 3, []),
        ([[0, 0, 0], [0, 0, 0]], [0, 0]),
        ([[2, 4], [4, 8]], [2, 0]),
        ([[1, 2, 3], [2, 4, 6], [0, 0, 0]], [1, 0, 0]),
        ([[2, 4, 6]], [2]),
        ([[6], [-4], [10]], [2]),
        ([[-3, 0], [0, -6]], [3, 6]),
        ([[-4, 0], [0, -6]], [2, 12]),
        ([[0, -5], [-7, 0]], [1, 35]),
    ])
    def test_edge_shapes(self, mat, expected):
        before = [list(row) for row in mat]
        diag = checked_diagonal(mat)
        assert diag == expected
        assert diag == oracles.smith_invariants(mat)
        assert mat == before

    def test_random_batch_matches_oracle(self):
        rng = random.Random("smith-diagonal")
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            bound = rng.choice((2, 9, 40))
            mat = [[rng.randint(-bound, bound) for _ in range(cols)]
                   for _ in range(rows)]
            # a row combination of others keeps the rank below min(rows, cols)
            if rows > 1 and rng.random() < 0.3:
                a, b = rng.sample(range(rows), 2)
                c = rng.randint(-3, 3)
                mat[a] = [c * x for x in mat[b]]
            diag = checked_diagonal(mat)
            assert len(diag) == min(rows, cols)
            assert diag == oracles.smith_invariants(mat)
            _check_chain(diag)
