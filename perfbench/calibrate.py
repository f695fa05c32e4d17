"""Fixed reference work that tracks the machine's current speed.

Run as its own process between benchmark ops:

    python3 perfbench/calibrate.py

It eliminates a fixed sparse system of ``Fraction`` rows, the same kind of
interpreter work as the program's hot paths, and imports nothing from
latticecalc, so no change to the program moves its time.  On a shared
machine the speed drifts by 10-30 % over minutes; dividing op times by this
process's time, measured in the same run, cancels most of that drift.
"""

from fractions import Fraction

ROWS = 90


def eliminate(rows: int = ROWS) -> int:
    system = [
        {(i * 7 + j * 3) % 40: Fraction((i * j) % 11 - 5, (i + j) % 7 + 1)
         for j in range(12)}
        for i in range(rows)
    ]
    pivots: dict[int, dict] = {}
    for row in system:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = row[col]
                pivots[col] = {c: v / inv for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return len(pivots)


if __name__ == "__main__":
    eliminate()
