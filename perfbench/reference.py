"""Benchmark-side generators and reference math.

Nothing here imports posiflag: inputs are generated, and outputs checked,
with code that is independent of the code under test.  Matrices are plain
lists of rows of `Fraction`, 0-based.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd


def identity(d: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(grid) -> Fraction:
    """Cofactor (Laplace) expansion along the rows, memoized on column sets.

    Row r is expanded over the columns still free; the value of the
    remaining block depends only on that set, so each set is expanded
    once: O(k 2^k) products for a k x k block.
    """
    k = len(grid)
    memo: dict[int, Fraction] = {}

    def block(r: int, free: int) -> Fraction:
        if r == k:
            return Fraction(1)
        if free in memo:
            return memo[free]
        total = Fraction(0)
        sign = 1
        for c in range(k):
            if free >> c & 1:
                if grid[r][c]:
                    total += sign * grid[r][c] * block(r + 1, free & ~(1 << c))
                sign = -sign
        memo[free] = total
        return total

    return block(0, (1 << k) - 1)


def minor(grid, rows, cols) -> Fraction:
    """Minor at 1-based row and column tuples."""
    return det([[grid[i - 1][j - 1] for j in cols] for i in rows])


def staircase(d: int, rng: random.Random, special: int | None = None,
              value: Fraction = Fraction(0)) -> list[list[Fraction]]:
    """Product of factors I + t E_{i,i+1} along the word (1)(2,1)...(d-1,...,1).

    Every t is a random positive rational p/q with 1 <= p, q <= 9, except
    the parameter at position `special` (0-based along the word), which is
    set to `value`.  With all t positive the product is totally positive;
    a zero parameter puts it on the nonnegative boundary, and a negative
    one, with every other parameter nonzero, puts it outside.
    """
    m = identity(d)
    k = 0
    for stage in range(1, d):
        for i in range(stage, 0, -1):
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if k == special:
                t = value
            # right multiplication by I + t E_{i,i+1}: column i+1 += t * column i
            for row in m:
                row[i] += t * row[i - 1]
            k += 1
    return m


def word_length(d: int) -> int:
    return d * (d - 1) // 2


def sym_power(a, b, c, e, d: int) -> list[list[Fraction]]:
    """d-dimensional symmetric power of [[a, b], [c, e]] on monomials.

    Column j (0-based) holds the coefficients of (a x + c y)^(d-1-j) (b x + e y)^j,
    row i the coefficient of x^(d-1-i) y^i.
    """
    n = d - 1

    def power(u, v, m):
        # coefficients of (u x + v y)^m by powers of y
        return [comb(m, s) * Fraction(u) ** (m - s) * Fraction(v) ** s for s in range(m + 1)]

    cols = []
    for j in range(d):
        p, q = power(a, c, n - j), power(b, e, j)
        col = [Fraction(0)] * d
        for s, x in enumerate(p):
            for t, y in enumerate(q):
                col[s + t] += x * y
        cols.append(col)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def veronese_frame(p: int, q: int, d: int) -> list[list[Fraction]]:
    """Frame of the Veronese flag at [p:q]: the symmetric power of [[p, -q], [q, p]]."""
    return sym_power(p, -q, q, p, d)


def pascal(d: int) -> list[list[Fraction]]:
    return [[Fraction(comb(j, i)) for j in range(d)] for i in range(d)]


def reversal(d: int) -> list[list[Fraction]]:
    return [[Fraction(int(i + j == d - 1)) for j in range(d)] for i in range(d)]


def sheared_descending(d: int, a: int) -> list[list[Fraction]]:
    """Frame of the descending flag moved by I + a E_{1,2}."""
    shear = identity(d)
    shear[0][1] = Fraction(a)
    return matmul(shear, reversal(d))


def _angle_key(p: int, q: int):
    # counterclockwise from [1:0] over representatives with q > 0
    return (0, Fraction(0)) if q == 0 else (1, Fraction(-p, q))


def cyclic_points(n: int, rng: random.Random, bound: int) -> list[tuple[int, int]]:
    """n distinct projective points with |p|, q <= bound, in strict cyclic order.

    The list is a random rotation of the counterclockwise order, so every
    cyclically ordered position of the first point occurs.
    """
    seen: set[tuple[int, int]] = set()
    while len(seen) < n:
        p, q = rng.randint(-bound, bound), rng.randint(0, bound)
        if (p, q) == (0, 0):
            continue
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        seen.add((p, q))
    pts = sorted(seen, key=lambda x: _angle_key(*x))
    r = rng.randrange(n)
    return pts[r:] + pts[:r]


# -- the documented text formats --------------------------------------------


def format_matrix(grid) -> str:
    lines = [f"dim {len(grid)}", "entries"]
    lines += [" ".join(str(x) for x in row) for row in grid]
    return "\n".join(lines) + "\n"


def format_frames(frames) -> str:
    return "".join("frame\n" + format_matrix(f) for f in frames)


def format_points(points) -> str:
    return "".join(f"point {p} {q}\n" for p, q in points)


def format_sample(points, frames) -> str:
    return "".join(
        f"point {p} {q}\nframe\n{format_matrix(f)}" for (p, q), f in zip(points, frames)
    )


def parse_matrices(text: str) -> list[list[list[Fraction]]]:
    """Every `dim d entries ...` block in a matrix or flags file."""
    toks = text.split()
    out = []
    i = 0
    while i < len(toks):
        if toks[i] != "dim":
            i += 1
            continue
        d = int(toks[i + 1])
        if toks[i + 2] != "entries":
            raise ValueError(f"expected 'entries' after dim {d}")
        vals = [Fraction(t) for t in toks[i + 3:i + 3 + d * d]]
        if len(vals) != d * d:
            raise ValueError("matrix block is short")
        out.append([vals[r * d:(r + 1) * d] for r in range(d)])
        i += 3 + d * d
    return out


def record_fields(line: str) -> dict[str, str]:
    """key=value pairs of one machine-format record."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
