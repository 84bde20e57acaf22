"""Reference implementations that the tests hold production code against.

``FractionRREF`` and ``fraction_solve`` are the elimination over
``fractions.Fraction`` that ``dualcoh.linalg`` used before it went
fraction-free: every pivot row is stored monic and every update is rational.
They are slow and obviously exact, which is what a reference is for.
"""

from fractions import Fraction

from dualcoh.linalg import add_scaled


class FractionRREF:
    """Reduced row echelon form over Fraction with monic, mutually reduced rows."""

    def __init__(self):
        self.pivot_rows = {}  # pivot column -> monic row dict

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, row):
        out = dict(row)
        for c in [c for c in out if c in self.pivot_rows]:
            add_scaled(out, -out[c], self.pivot_rows[c])
        return out

    def add(self, row):
        r = self.reduce(row)
        if not r:
            return None
        p = min(r)
        inv = 1 / Fraction(r.pop(p))
        r = {c: v * inv for c, v in r.items()}
        r[p] = Fraction(1)
        for prow in self.pivot_rows.values():
            if p in prow:
                add_scaled(prow, -prow[p], r)
        self.pivot_rows[p] = r
        return p


def fraction_solve(columns, rhs):
    """``(x, rank)`` for ``sum_j x_j * columns[j] = rhs`` by one tagged FractionRREF."""
    m = len(rhs)
    rref = FractionRREF()
    for j, col in enumerate(columns):
        row = {i: Fraction(v) for i, v in enumerate(col) if v}
        row[m + j] = Fraction(1)
        rref.add(row)
    rank = sum(1 for p in rref.pivot_rows if p < m)
    left = rref.reduce({i: Fraction(v) for i, v in enumerate(rhs) if v})
    if any(c < m for c in left):
        return None, rank
    return [-left.get(m + j, Fraction(0)) for j in range(len(columns))], rank
