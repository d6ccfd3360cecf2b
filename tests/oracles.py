"""Test oracles: reference answers the program itself never computes.

:func:`exact_ot` is exact (unregularised) optimal transport via linear
programming: as the entropic regulariser ``λ → 0`` the Sinkhorn value must
converge to this LP value.  Only suitable for small problems (the LP has
``n·m`` variables).  It needs scipy, a ``dev`` dependency; the runtime
package does not import it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linprog

__all__ = ["exact_ot"]


def exact_ot(
    cost: np.ndarray,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Solve ``min_P <P, C>`` over the transport polytope.

    Parameters
    ----------
    cost:
        ``(n, m)`` cost matrix.
    a, b:
        Source / target marginals; default uniform (``1/n`` and ``1/m``),
        matching the empirical measures of Definition 2.

    Returns
    -------
    ``(value, plan)`` where ``plan`` has row sums ``a`` and column sums ``b``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if a is None:
        a = np.full(n, 1.0 / n)
    if b is None:
        b = np.full(m, 1.0 / m)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not np.isclose(a.sum(), b.sum()):
        raise ValueError("marginals must have equal total mass")

    # Equality constraints: row sums = a, column sums = b.  One constraint is
    # redundant (total mass); scipy's HiGHS handles that fine.
    row_constraints = np.zeros((n, n * m))
    for i in range(n):
        row_constraints[i, i * m : (i + 1) * m] = 1.0
    col_constraints = np.zeros((m, n * m))
    for j in range(m):
        col_constraints[j, j::m] = 1.0
    a_eq = np.vstack([row_constraints, col_constraints])
    b_eq = np.concatenate([a, b])

    result = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"exact OT solver failed: {result.message}")
    plan = result.x.reshape(n, m)
    return float(result.fun), plan
