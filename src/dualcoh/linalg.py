"""Sparse exact linear algebra over the rationals.

Rows are dicts mapping column index -> nonzero Fraction.  Column index 0 is
the highest elimination priority; reduced row echelon form therefore pivots
on the smallest index present in each row.
"""

from fractions import Fraction


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
            coef = out.pop(c)
            for c2, v2 in self.pivot_rows[c].items():
                if c2 == c:
                    continue
                nv = out.get(c2, 0) - coef * v2
                if nv:
                    out[c2] = nv
                else:
                    out.pop(c2, None)
        return out

    def add(self, row):
        """Insert ``row``; return its pivot column, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        p = min(r)
        pv = r.pop(p)
        if pv != 1:
            r = {c: v / pv for c, v in r.items()}
        # Clear the new pivot column from existing rows.
        for prow in self.pivot_rows.values():
            coef = prow.pop(p, None)
            if coef is None:
                continue
            for c2, v2 in r.items():
                nv = prow.get(c2, 0) - coef * v2
                if nv:
                    prow[c2] = nv
                else:
                    prow.pop(c2, None)
        r[p] = Fraction(1)
        self.pivot_rows[p] = r
        return p


def solve_dense(columns, rhs):
    """Solve ``sum_j x_j * columns[j] = rhs`` exactly.

    ``columns`` is a list of length-m vectors (lists of Fractions), ``rhs`` a
    length-m vector.  Returns one solution (free variables set to zero) or
    None when the system is inconsistent.
    """
    n = len(columns)
    m = len(rhs)
    aug = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(rhs[i])]
           for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x
