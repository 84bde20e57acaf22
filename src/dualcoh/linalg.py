"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping column index -> nonzero Fraction.  Column index 0 is
the highest elimination priority; reduced row echelon form therefore pivots
on the smallest index present in each row.

``SparseRREF`` is the only elimination.  To solve as well as row-reduce,
each unknown j gets a tag column: its row enters as ``(column_j | e_{m+j})``
with m the number of equations.  The tags record which combination of
input rows every pivot row is, so reducing a right-hand side b leaves
``(b - sum_j x_j column_j | -x)``: when nothing is left below m, minus the
tag entries is a solution x.  The same reduction therefore decides
independence and solves; kept after a full-rank build, it converts any
vector to coordinates over the input rows, which is an inverse.
"""

from fractions import Fraction


def add_scaled(out, c, row):
    """``out += c * row`` in place on sparse dicts, dropping zeros.

    >>> out = {0: 1, 1: 2}; add_scaled(out, 2, {0: 3, 1: -1}); out
    {0: 7}
    """
    for k, v in row.items():
        nv = out.get(k, 0) + c * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


class SparseRREF:
    """Incrementally maintained reduced row echelon form.

    Pivot rows are monic and mutually reduced: a pivot row contains its own
    pivot column and otherwise only non-pivot columns.
    """

    def __init__(self):
        self.pivot_rows = {}  # pivot column -> row dict

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, row):
        """Return a copy of ``row`` reduced against all pivot rows."""
        out = dict(row)
        # Pivot rows never contain other pivot columns, so eliminating each
        # pivot entry of `out` once suffices; new fill-in is non-pivot only.
        for c in [c for c in out if c in self.pivot_rows]:
            add_scaled(out, -out[c], self.pivot_rows[c])
        return out

    def add(self, row):
        """Insert ``row``; return its pivot column, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        p = min(r)
        inv = 1 / Fraction(r.pop(p))
        r = {c: v * inv for c, v in r.items()}
        r[p] = Fraction(1)
        # Clear the new pivot column from existing rows.
        for prow in self.pivot_rows.values():
            if p in prow:
                add_scaled(prow, -prow[p], r)
        self.pivot_rows[p] = r
        return p


def solve(columns, rhs):
    """Solve ``sum_j x_j * columns[j] = rhs`` exactly in one tagged pass.

    ``columns`` is a list of n length-m vectors and ``rhs`` a length-m
    vector.  Returns ``(x, rank)``: ``rank`` is the rank of the columns and
    ``x`` one solution (a list of n Fractions), or None exactly when the
    system is inconsistent.  With rank < n the solution is not unique.

    >>> solve([[1, 1], [1, -1]], [3, 1])
    ([Fraction(2, 1), Fraction(1, 1)], 2)
    >>> x, rank = solve([[1, 2], [2, 4]], [3, 6])
    >>> rank, x[0] + 2 * x[1]
    (1, Fraction(3, 1))
    >>> solve([[1, 2], [2, 4]], [1, 0])
    (None, 1)
    """
    m = len(rhs)
    rref = SparseRREF()
    for j, col in enumerate(columns):
        row = {i: Fraction(v) for i, v in enumerate(col) if v}
        row[m + j] = Fraction(1)
        rref.add(row)
    rank = sum(1 for p in rref.pivot_rows if p < m)
    left = rref.reduce({i: Fraction(v) for i, v in enumerate(rhs) if v})
    if any(c < m for c in left):
        return None, rank
    return [-left.get(m + j, Fraction(0)) for j in range(len(columns))], rank
