"""Reference implementations for table-node sampling.

:func:`mask_loop_values` is the implementation that grouped
table-node sampling replaced: it finds the distinct parent rows with
``np.unique(axis=0)`` and fills one full-length boolean mask per parent
combination, visiting the combinations in lexicographic order.  The
grouped version must agree with it bit for bit, and raise the same error
for the same missing table cell.

:func:`searchsorted_values` and :func:`float_sample_observational` are the
sampler that level codes replaced, copied unchanged: every node is drawn
from float parent columns alone, and a table node codes each parent
column with ``searchsorted`` against its key levels.  The coded sampler
must give the same columns bit for bit, and raise the same error for the
same missing table cell.
"""

import numpy as np

from pocmed import oracle
from pocmed.data import ColumnRoles, Dataset


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


def searchsorted_values(node, parent_cols: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The table node sampler before level codes; its lookup is rebuilt on
    each call."""
    out = np.empty(u.shape, dtype=np.float64)
    if parent_cols.shape[1] == 0:
        cuts, values = node.step(())
        out[:] = np.asarray(values)[np.searchsorted(cuts, u, side="right")]
        return out
    if u.size == 0:
        return out
    k = parent_cols.shape[1]
    keys = [key for key in node._table if len(key) == k]
    levels = [np.append(np.unique([key[j] for key in keys]), np.nan) for j in range(k)]
    ids, size, tables = np.zeros(len(keys), dtype=np.intp), 1, []
    for j, lv in enumerate(levels):
        codes = np.searchsorted(lv, [key[j] for key in keys])
        prefixes, ids = np.unique(ids * lv.size + codes, return_inverse=True)
        tables.append(np.full((size + 1) * lv.size, prefixes.size))
        tables[-1][prefixes], size = np.arange(prefixes.size), prefixes.size
    steps = dict(zip(ids.tolist(), map(node._table.__getitem__, keys)))
    cell = np.zeros(u.size, dtype=np.intp)
    for lv, table, col in zip(levels, tables, parent_cols.T):
        code = np.searchsorted(lv, col)
        cell = table[cell * lv.size + np.where(lv[code] == col, code, lv.size - 1)]
    if (cell == len(steps)).any():
        missing = parent_cols[cell == len(steps)]
        node.step(missing[np.lexsort(missing.T[::-1])[0]].tolist())
    order = np.argsort(cell.astype(np.min_scalar_type(len(steps))), kind="stable")
    counts = np.bincount(cell, minlength=len(steps))
    present = np.flatnonzero(counts)
    for i, rows in zip(present.tolist(), np.split(order, np.cumsum(counts[present])[:-1])):
        cuts, values = steps[i]
        out[rows] = np.asarray(values)[np.searchsorted(cuts, u[rows], side="right")]
    return out


def drawn_values(node, parent_cols: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``node.draw`` of the columns of ``parent_cols``, none of them coded:
    the node's values alone."""
    return node.draw(list(parent_cols.T), [None] * parent_cols.shape[1], u)[0]


def _values(node, parent_cols, u):
    if isinstance(node, oracle.TableNode):
        return searchsorted_values(node, parent_cols, u)
    return drawn_values(node, parent_cols, u)


def _draw_exogenous(scm, n: int, seed: int):
    u = oracle._uniform_matrix(seed, n, 4)
    support = scm.covariate_support()
    if scm.covariates is None:
        c_matrix = np.empty((n, 0))
    else:
        weights = np.cumsum([w for _, w in support])
        idx = np.searchsorted(weights, u[:, 0], side="right")
        idx = np.minimum(idx, len(support) - 1)
        c_matrix = np.asarray([c for c, _ in support], dtype=np.float64)[idx]
    return c_matrix, u[:, 1], u[:, 2], u[:, 3]


def float_sample_observational(scm, n: int, seed: int) -> Dataset:
    """``sample_observational`` before level codes."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    c_matrix, u_x, u_m, u_y = _draw_exogenous(scm, n, seed)
    x = _values(scm.treatment, c_matrix, u_x)
    m = _values(scm.mediator, np.column_stack([x, c_matrix]), u_m)
    y = _values(scm.outcome, np.column_stack([x, m, c_matrix]), u_y)
    c_names = tuple(f"c{i+1}" for i in range(c_matrix.shape[1]))
    columns = {"x": x, "m": m, "y": y}
    for i, name in enumerate(c_names):
        columns[name] = c_matrix[:, i]
    return Dataset(columns, ColumnRoles("x", "m", "y", c_names))
