"""Plain-Python references shared by the test modules; nothing here calls qc15."""

import math

import numpy as np


def gauss_jordan(rows, p: int) -> list[list[int]]:
    """Reduced row echelon form over GF(p) of a 2-D array or list of rows, in
    plain Python ints, zero rows dropped: the reference for the row scan
    (leading_independent_rows, and gf_rref read off it) at any p."""
    rows = [[x % p for x in row] for row in np.asarray(rows).tolist()]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def rank(rows, p: int) -> int:
    """The rank over GF(p), by gauss_jordan."""
    return len(gauss_jordan(rows, p))


def min_distance(rows, p: int) -> int:
    """The least weight of a nonzero combination of the rows over GF(p), by
    exhausting all p^k messages, k the number of rows (at least one): the
    reference for Qc15Code.min_distance and the threshold scan. The products
    are taken in float64, exact while (p-1)^2 k < 2^53, which holds wherever
    p^k messages can be listed."""
    gen = np.asarray(rows, dtype=np.int64) % p
    k, best = len(gen), gen.shape[1] + 1
    assert (p - 1) ** 2 * k < 2**53
    radix = p ** np.arange(k, dtype=np.int64)
    for start in range(0, p**k, 1 << 15):
        index = np.arange(start, min(start + (1 << 15), p**k), dtype=np.int64)
        words = (index[:, None] // radix % p).astype(float) @ gen.astype(float) % p
        weights = np.count_nonzero(words, axis=1)
        best = int(weights[weights > 0].min(initial=best))
    return best


def multiplier_class_count(codes, m: int, p: int) -> int:
    """The number of codes of length 3m, laid out (w, copy of w, v) and each
    given by its generator rows, up to the multipliers X -> X^s for the units
    s mod m, which move coordinate i of each third to s i mod m: the distinct
    least gauss_jordan forms of each code's images."""
    units = [s for s in range(m) if math.gcd(s, m) == 1]

    def image(rows, s):
        out = [[0] * (3 * m) for _ in rows]
        for new, row in zip(out, rows):
            for j, x in enumerate(row):
                new[j // m * m + j % m * s % m] = x
        return out

    return len({min(tuple(map(tuple, gauss_jordan(image(rows, s), p))) for s in units)
                for rows in (np.asarray(code).tolist() for code in codes)})
