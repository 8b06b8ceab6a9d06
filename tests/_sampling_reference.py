"""Mask-loop reference for table-node sampling.

:func:`mask_loop_values` is the implementation that grouped
``TableNode.values`` replaced: it finds the distinct parent rows with
``np.unique(axis=0)`` and fills one full-length boolean mask per parent
combination, visiting the combinations in lexicographic order.  The
grouped version must agree with it bit for bit, and raise the same error
for the same missing table cell.
"""

import numpy as np


def mask_loop_values(node, parent_cols: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.empty(u.shape, dtype=np.float64)
    if parent_cols.shape[1] == 0:
        cuts, values = node.step(())
        out[:] = np.asarray(values)[np.searchsorted(cuts, u, side="right")]
        return out
    combos = np.unique(parent_cols, axis=0)
    for row in combos:
        mask = np.all(parent_cols == row, axis=1)
        cuts, values = node.step(tuple(row))
        out[mask] = np.asarray(values)[np.searchsorted(cuts, u[mask], side="right")]
    return out
