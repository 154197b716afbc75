"""A fixed reference workload that gauges how fast the machine runs Python
at the moment it is timed.

On a shared 2-vCPU Linux VM, a pure-Python loop swings between two speeds
about 1.5x apart, and the mix drifts over minutes, so two runs of the same
code a few minutes apart can read 30% apart.  Each child of an untraced
pass times this workload just before and just after its op, and ``run.py`` reports the op's
time relative to the reference's, which cancels most of the machine's speed
and leaves the program's.

The workload never imports ``hochcat`` and its input is a constant, so no
change to the program or to ``--seed`` changes its work.  It exercises what
the program's hot paths are made of: sparse row elimination over dicts of
ints modulo a prime, ``Fraction`` arithmetic, tuple keys in dicts and sets,
many small objects alive at once, turned into text and JSON, and page
faults on freshly mapped memory.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

P = 3


def _matrix(rng, nrows, ncols, per_row):
    return [{c: rng.randrange(1, P) for c in rng.sample(range(ncols), per_row)}
            for _ in range(nrows)]


def _rank_mod_p(rows, ncols):
    """Rank of sparse rows over GF(P) by left-to-right elimination."""
    rows = [dict(r) for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in rows if col in r), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], P - 2, P)
        for row in rows:
            f = row.get(col)
            if f:
                f = f * inv % P
                for c, v in pivot.items():
                    w = (row.get(c, 0) - f * v) % P
                    if w:
                        row[c] = w
                    else:
                        row.pop(c, None)
        rank += 1
    return rank


def _fraction_sum(rng, n):
    total = Fraction(0)
    for _ in range(n):
        step = Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
        total += step * Fraction(1, 1 + len(str(total.denominator)) % 7)
    return total


def _table_text(n):
    table = {(a, b): (a * b + a + b) % n for a in range(n) for b in range(n)}
    seen = set(table.values())
    lines = [f"compose m{a} m{b} = m{c}" for (a, b), c in sorted(table.items())]
    return len(seen), len("\n".join(lines))


def _many_objects(n):
    """Allocation-heavy: many small tuples and strings alive at once, then
    serialized, as when the program builds and emits a large category."""
    named = {}
    for i in range(n):
        a, b = i % 257, i * 7919 % 65521
        named[f"m{a}_{b}_{i}"] = (a, b, a * b % 97)
    text = json.dumps({"lines": [f"compose {k} {v[0]} = {v[2]}" for k, v in named.items()],
                       "rows": [list(v) for v in named.values()]})
    return len(text)


def _fresh_pages(mib):
    """Write every page of a newly mapped buffer.  A fresh interpreter that
    grows its heap pays a page fault per page, and the cost of a fault
    drifts with the host apart from the cost of computing.  glibc maps a
    buffer over 32 MiB anew on every call, whatever it freed before."""
    buf = bytearray(mib << 20)      # zero-filled, so every page is written
    return len(buf) >> 20


def reference() -> tuple:
    """Run the fixed workload once and return its result, which never changes."""
    rng = random.Random(20220618)
    rank = _rank_mod_p(_matrix(rng, 120, 140, 6), 140)
    total = _fraction_sum(rng, 1500)
    return (rank, total.numerator % 1000003, _table_text(90), _many_objects(20000),
            _fresh_pages(40))
