"""Exact linear algebra over the rationals by one fraction-free elimination.

Both the rank probe (``column_rank``) and the solver (``solve_exact``) run
the same integer-preserving (Bareiss) elimination.  Denominators are
cleared row by row: each row is multiplied by the lcm of its own
denominators, which changes neither the rank nor the solution set, and
from then on elimination divides integers exactly (the solver first puts
the right-hand side over one common denominator).  Rationals reappear
only in the solution and in the residual check.

Built for small, possibly overdetermined systems that must hold exactly:
full column rank is mandatory and every equation (including surplus rows)
is re-checked, as given and in its own units, against the solution, so a
wrong right-hand side can never pass silently.

The Hodge extraction hands these routines only its dense block: after
interpolation, the keys whose exponents all lie below the grid bound are
unit columns and are solved by back substitution, so the block holds the
other keys' columns on the basis rows that no unit key occupies.  It can
have no columns at all; the solve then only checks that every right-hand
side entry is zero.  Every surplus row is still residual-checked exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class RankDeficientError(ValueError):
    """The coefficient matrix does not have full column rank."""


class InconsistentSystemError(ValueError):
    """Some equation has a nonzero residual; carries the first offender and
    the solution of the pivot rows that it misses."""

    def __init__(self, row_index: int, residual: Fraction, solution: list[Fraction]):
        self.row_index = row_index
        self.residual = residual
        self.solution = solution
        super().__init__(f"equation {row_index} has nonzero residual {residual}")


def _rationals(values) -> list:
    """``values`` as ints and Fractions, converting only what is neither."""
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]


def _echelon(rows, width: int) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form of ``rows`` and its pivot columns.

    Entries are ints or Fractions.  Each row is first scaled to integers
    by the lcm of its own denominators.  Pivots are sought in the first
    ``width`` columns, and pivot i ends up in row i; columns past
    ``width`` (a right-hand side) are carried along.  Bareiss's update
    divides by the previous pivot, and by Sylvester's identity that
    division is exact, so every entry is a minor of the scaled matrix and
    no rational is ever formed.
    """
    work = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        work.append([v.numerator * (scale // v.denominator) for v in row])
    pivots: list[int] = []
    previous = 1
    for col in range(width):
        top_at = len(pivots)
        pivot_at = next((r for r in range(top_at, len(work)) if work[r][col]), None)
        if pivot_at is None:
            continue
        work[top_at], work[pivot_at] = work[pivot_at], work[top_at]
        top = work[top_at]
        pivot = top[col]
        for r in range(top_at + 1, len(work)):
            row = work[r]
            f = row[col]
            row[col:] = [(pivot * a - f * b) // previous for a, b in zip(row[col:], top[col:])]
        previous = pivot
        pivots.append(col)
    return work, pivots


def column_rank(matrix) -> int:
    """Rank of the column space, by exact elimination on a working copy."""
    rows = [_rationals(row) for row in matrix]
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]))[1])


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly; A may have more rows than columns.

    Raises RankDeficientError if the columns are dependent and
    InconsistentSystemError, carrying that solution, if any row of the
    original system is not satisfied exactly by the solution of the pivot
    rows.  Returns the solution as a list of Fractions.  A matrix with no
    columns is allowed: its solution is empty, and every right-hand side
    entry must be zero.
    """
    rows = [list(row) for row in matrix]
    if not rows:
        raise ValueError("empty system")
    n_cols = len(rows[0])
    if any(len(row) != n_cols for row in rows):
        raise ValueError("ragged matrix")
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length does not match the matrix")
    original = [_rationals([*row, b]) for row, b in zip(rows, rhs)]
    # One common denominator for b, so that a large one does not inflate
    # every entry of its row; the system solved is A (unit x) = unit b.
    unit = lcm(*(row[-1].denominator for row in original))
    work, pivots = _echelon([[*row[:-1], row[-1] * unit] for row in original], n_cols)
    if len(pivots) < n_cols:
        col = next(c for c in range(n_cols) if c not in pivots)
        raise RankDeficientError(f"column rank below {n_cols}: no pivot for column {col}")
    # The last pivot is the determinant det of the pivot rows' square block,
    # so by Cramer's rule det * unit * x is integral and back substitution
    # stays in exact integer division.
    det = work[n_cols - 1][n_cols - 1] if n_cols else 1
    numerators = [0] * n_cols
    for col in range(n_cols - 1, -1, -1):
        row = work[col]
        s = det * row[-1] - sum(row[c] * numerators[c] for c in range(col + 1, n_cols))
        numerators[col] = s // row[col]
    denominator = det * unit
    solution = [Fraction(v, denominator) for v in numerators]
    for idx, row in enumerate(original):
        total = sum(a * v for a, v in zip(row, numerators))
        residual = Fraction(total, denominator) - row[-1]
        if residual:
            raise InconsistentSystemError(idx, residual, solution)
    return solution
