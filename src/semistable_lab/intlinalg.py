"""Integer Smith form with transforms, and kernels modulo any modulus.

These serve what the Z/l^N column engine of `padic` cannot: a kernel needs
the column transform, and `padic.intersect` and `padic.orthogonal` read
their lattices off kernels modulo l^N.  Matrices are lists of row lists of
Python ints. Sizes here are tiny (ambient rank <= 8), so the plain
gcd-driven eliminations below are fine.
"""

from __future__ import annotations

from math import gcd


def _mat_copy(m: list[list[int]]) -> list[list[int]]:
    return [list(row) for row in m]


def _identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_with_transforms(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith form with transforms: returns (d, u, v) with u*mat*v = d.

    u and v are unimodular; d is diagonal (rectangular allowed).
    """
    m = _mat_copy(mat)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = _identity_matrix(rows)
    v = _identity_matrix(cols)

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        mi, mj = m[i], m[j]
        for k in range(cols):
            mi[k] -= q * mj[k]
        ui, uj = u[i], u[j]
        for k in range(rows):
            ui[k] -= q * uj[k]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    n = min(rows, cols)
    top = 0
    while top < n:
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                val = m[i][j]
                if val != 0 and (best is None or abs(val) < abs(best[0])):
                    best = (val, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != top:
            row_swap(top, bi)
        if bj != top:
            col_swap(top, bj)
        while True:
            piv = m[top][top]
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    row_sub(i, top, m[i][top] // piv)
                    if m[i][top]:
                        row_swap(top, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    col_sub(j, top, m[top][j] // piv)
                    if m[top][j]:
                        col_swap(top, j)
                        dirty = True
                        break
            if not dirty:
                break
        piv = m[top][top]
        fixed = True
        for i in range(top + 1, rows):
            bad = next((j for j in range(top + 1, cols) if m[i][j] % piv), None)
            if bad is not None:
                row_sub(top, i, -1)  # row_top += row_i
                fixed = False
                break
        if not fixed:
            continue
        if piv < 0:
            for j in range(cols):
                m[top][j] = -m[top][j]
            for j in range(rows):
                u[top][j] = -u[top][j]
        top += 1
    d = [[m[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    # Keep any residue outside the processed block (rank-deficient tail is zero
    # by construction, but be defensive).
    for i in range(rows):
        for j in range(cols):
            if i != j and m[i][j] != 0:
                raise AssertionError("smith reduction left an off-diagonal entry")
    return d, u, v


def kernel_mod(mat: list[list[int]], modulus: int) -> list[list[int]]:
    """Generators (as columns) of {x : mat*x == 0 (mod modulus)}.

    Returns a list of column vectors spanning the kernel of the map
    (Z/modulus)^cols -> (Z/modulus)^rows.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    d, _u, v = smith_with_transforms(mat)
    gens = []
    for j in range(cols):
        dj = d[j][j] if j < rows else 0
        # Least s >= 1 with s*dj == 0 (mod modulus); dj == 0 means y_j is free.
        scale = 1 if dj == 0 else modulus // gcd(dj, modulus)
        col = [(v[i][j] * scale) % modulus for i in range(cols)]
        if any(col):
            gens.append(col)
    return gens
