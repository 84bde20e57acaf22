"""Sparse exact linear algebra over the rationals, computed over the integers.

Rows are dicts mapping column index -> nonzero ``int`` or ``Fraction``; a
float is refused.  Column index 0 is the highest elimination priority;
reduced row echelon form therefore pivots on the smallest index present in
each row.

``SparseRREF`` is the only elimination.  It is fraction-free: each pivot
row is stored as the primitive integer multiple of its monic row, with a
positive pivot, and a vector is reduced by integer cross-multiplication
under one common scale, divided out once at the end (Bareiss, *Math.
Comp.* 22, 1968, keeps entries small the same way).  Results are exact, and
an entry is a ``Fraction`` only where the division leaves a denominator.

To solve as well as row-reduce, each unknown j gets a tag column: its row
enters as ``(column_j | e_{m+j})`` with m the number of equations.  The
tags record which combination of input rows every pivot row is, so
reducing a right-hand side b leaves ``(b - sum_j x_j column_j | -x)``:
when nothing is left below m, minus the tag entries is a solution x.  The
same reduction therefore decides independence and solves; kept after a
full-rank build, it converts any vector to coordinates over the input
rows, which is an inverse.
"""

from fractions import Fraction
from math import gcd, lcm


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


def _integral(row):
    """``(w, s)``: an integer row w and a positive int s with w / s == row."""
    den = None
    for v in row.values():
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"inexact entry {v!r}")
            den = lcm(den or 1, v.denominator)
    if den is None:
        return dict(row), 1
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}, den


def _primitive(w, p):
    """The integer row w divided by its content, signed so that w[p] > 0."""
    g = gcd(*w.values())
    if w[p] < 0:
        g = -g
    return {c: v // g for c, v in w.items()} if g != 1 else w


def _divide(w, s):
    """``w / s`` entrywise; an entry stays an ``int`` when s divides it."""
    if s == 1:
        return w
    out = {}
    for c, v in w.items():
        q, r = divmod(v, s)
        out[c] = Fraction(v, s) if r else q
    return out


class SparseRREF:
    """Incrementally maintained reduced row echelon form, fraction-free.

    Pivot rows are mutually reduced: a pivot row contains its own pivot
    column and otherwise only non-pivot columns.  Each is stored as a
    primitive integer vector with a positive pivot, the canonical multiple
    of the monic row, so its entries never grow.  ``rows`` holds these;
    ``pivot_rows`` computes the monic rows, so read it once, not per test.

    >>> rr = SparseRREF()
    >>> rr.add({0: Fraction(2, 3), 1: 1}), rr.rows
    (0, {0: {0: 2, 1: 3}})
    >>> rr.pivot_rows
    {0: {0: 1, 1: Fraction(3, 2)}}
    >>> rr.reduce({0: 1})
    {1: Fraction(-3, 2)}
    """

    def __init__(self):
        self.rows = {}  # pivot column -> primitive integer row, pivot > 0; read-only

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivot_rows(self):
        """Pivot column -> monic row, computed afresh on every read."""
        return {p: _divide(row, row[p]) for p, row in self.rows.items()}

    def pivot_row_dots(self, vec):
        """Pivot column p -> monic row p dotted with the sparse ``vec``, where nonzero."""
        out = {}
        for p, row in self.rows.items():
            t = sum(v * vec[c] for c, v in row.items() if c in vec)
            if t:
                q, r = divmod(t, row[p])
                out[p] = Fraction(t, row[p]) if r else q
        return out

    def _reduce(self, row):
        """``(w, s)`` with w an integer row and w / s the reduced ``row``."""
        w, s = _integral(row)
        rows = self.rows
        # Pivot rows never contain other pivot columns, so eliminating each
        # pivot entry of w once suffices; new fill-in is non-pivot only.
        for c in [c for c in w if c in rows]:
            prow = rows[c]
            a, b = prow[c], w[c]
            g = gcd(a, b)
            if g != a:
                a //= g
                for k in w:
                    w[k] *= a
                s *= a
            add_scaled(w, -(b // g), prow)
        return w, s

    def reduce(self, row):
        """Return ``row`` reduced against all pivot rows (a new dict)."""
        return _divide(*self._reduce(row))

    def add(self, row):
        """Insert ``row``; return its pivot column, or None if dependent."""
        w, _ = self._reduce(row)
        if not w:
            return None
        p = min(w)
        w = _primitive(w, p)
        # Clear the new pivot column from existing rows.  Their pivots stay
        # positive, as w has no entry in any of their pivot columns.
        a = w[p]
        for q, prow in self.rows.items():
            b = prow.get(p)
            if b is not None:
                h = gcd(a, b)
                new = {c: (a // h) * v for c, v in prow.items()} if h != a else dict(prow)
                add_scaled(new, -(b // h), w)
                self.rows[q] = _primitive(new, q)
        self.rows[p] = w
        return p


def solve(columns, rhs):
    """Solve ``sum_j x_j * columns[j] = rhs`` exactly in one tagged pass.

    ``columns`` is a list of n length-m vectors and ``rhs`` a length-m
    vector, with ``int`` or ``Fraction`` entries.  Returns ``(x, rank)``:
    ``rank`` is the rank of the columns and ``x`` one solution (a list of n
    ``int`` or ``Fraction`` values), or None exactly when the system is
    inconsistent.  With rank < n the solution is not unique.

    >>> solve([[1, 1], [1, -1]], [3, 1])
    ([2, 1], 2)
    >>> solve([[2, 0], [0, 4]], [1, 2])
    ([Fraction(1, 2), Fraction(1, 2)], 2)
    >>> x, rank = solve([[1, 2], [2, 4]], [3, 6])
    >>> rank, x[0] + 2 * x[1] == 3
    (1, True)
    >>> solve([[1, 2], [2, 4]], [1, 0])
    (None, 1)
    """
    m = len(rhs)
    rref = SparseRREF()
    rank = 0
    for j, col in enumerate(columns):
        row = {i: v for i, v in enumerate(col) if v}
        row[m + j] = 1
        p = rref.add(row)
        if p is not None and p < m:
            rank += 1
    left = rref.reduce({i: v for i, v in enumerate(rhs) if v})
    if any(c < m for c in left):
        return None, rank
    return [-left.get(m + j, 0) for j in range(len(columns))], rank
