"""Sort-based reference for the distinct row tuples of a table.

:func:`lexsort_distinct_rows` is the implementation that the per-column
codes of ``ecdf._distinct_rows`` replaced: one ``np.lexsort`` over every
column, runs of float-equal rows in the sorted table, and each run's values
taken from its first row (``lexsort`` is stable, so that is the run's first
row in input order).  The replacement must give the same ids and the same
value bits.
"""

import numpy as np


def lexsort_distinct_rows(columns):
    order = np.lexsort(tuple(reversed(columns)))
    ordered = [col[order] for col in columns]
    start = np.zeros(order.size, dtype=bool)
    start[:1] = True
    for key in ordered:
        start[1:] |= key[1:] != key[:-1]
    bounds = np.append(np.flatnonzero(start), order.size)
    ids = np.empty(order.size, dtype=np.intp)
    ids[order] = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    return [col[bounds[:-1]] for col in ordered], ids
