"""Dense two-phase simplex for standard-form linear programs.

Solves min c.x subject to A x = b, x >= 0. Both phases pivot with Bland's
rule (smallest eligible index enters, ties in the ratio test break toward
the smallest basic variable index), which cannot cycle, so the iteration
cap only trips on genuinely pathological input and raises instead of
returning a wrong answer. The solver is deterministic: the same problem
always produces the same basis and the same optimal vertex.

A pivot costs what it changes, by one of three updates. On a narrow
tableau a single outer-product update of every row is cheapest
(``ROW_COST`` below; at 44 rows the crossover is about 1,500 columns). On a
wide one only the rows whose pivot-column entry is nonzero are updated:
one at a time in a reused buffer, as ``row -= factor * pivot_row``, or,
when the pivot row is mostly zeros (``SPARSE_COST``), as one block of those
rows x the pivot row's nonzero columns. All three compute each entry they
change by the same product and difference, and a skipped entry would only
have had a zero subtracted, so the tableau holds the same values either
way. At most the sign of a zero entry differs (x - (-0.0) turns -0.0 into
+0.0), which no comparison sees and which cannot reach x: phase 2 starts
from a right-hand side clipped to +0.0, and no update then makes a -0.0
there. So the pivot sequence, x, basis and pivot count are identical bit
for bit on all three paths.

A solve may start warm from a basis, typically the optimal basis of a
nearby problem. When that basis is full-size and nonsingular, [A | b] is
first made canonical in it (B^-1 A, B^-1 b); rows whose right-hand side
turns negative are negated and get an artificial variable, the others keep
their basic variable. Without a usable basis every row gets an artificial,
which is the cold start. Both then run the same phase 1, artificial
drive-out and phase 2, so Bland's rule still guarantees termination, and a
warm start only shortens phase 1 when few rows lost feasibility. Phase 2
runs in the phase-1 tableau's own buffer, its rows packed in place without
the artificial columns, so a solve allocates one tableau, not two.

Every optimal answer carries a certificate recomputed from the original
A, b and c: the primal residual, nonnegativity of x, and dual feasibility
of the reduced costs of its basis. A warm answer that fails it is solved
again cold; a cold answer that fails it raises ``SimplexError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SimplexError(Exception):
    """Pivot limit exceeded or an internal invariant failed."""


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    basis: np.ndarray | None
    iterations: int
    warm: bool = False  # the answer came from a warm start


# The Python overhead of one row update, counted in tableau entries: a pivot
# takes the row loop when touched_rows * ROW_COST < tableau.size.
ROW_COST = 2048

# A wide tableau's row-loop pivot instead updates touched rows x the pivot
# row's nonzero columns as one block when nonzeros * SPARSE_COST < width.
# Timed per pivot on generated 5-station plans (12,692 columns), the block
# took 1.3x the row loop's time at one nonzero in 7 and 0.46x at one in 27;
# with nonzeros scattered at random it breaks even near one in 24.
SPARSE_COST = 16


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    column = tableau[:, col]
    if np.count_nonzero(column) * ROW_COST < tableau.size:
        touched = np.flatnonzero(column)
        # nonzeros of a boolean mask are found several times faster
        cols = np.flatnonzero(pivot_row != 0) if pivot_row.size > ROW_COST else None
        if cols is not None and cols.size * SPARSE_COST < pivot_row.size:
            touched = touched[touched != row]
            # flat indices into the tableau's own buffer: faster than np.ix_,
            # and reshape raises rather than hand back a copy
            block = touched[:, None] * pivot_row.size + cols
            update = np.outer(column[touched], pivot_row[cols])
            tableau.reshape(-1, copy=False)[block] -= update
        else:
            scaled = np.empty_like(pivot_row)
            for i, factor in zip(touched.tolist(), column[touched].tolist()):
                if i != row:
                    np.multiply(pivot_row, factor, out=scaled)
                    tableau[i] -= scaled
    else:
        factors = column.copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, pivot_row)
    # keep the pivot column exactly canonical
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _entering(tableau: np.ndarray, n_cols: int, tol: float) -> int | None:
    """Bland: leftmost column with a negative reduced cost."""
    reduced = tableau[-1, :n_cols]
    candidates = np.nonzero(reduced < -tol)[0]
    return int(candidates[0]) if candidates.size else None


def _leaving(
    tableau: np.ndarray, col: int, basis: np.ndarray, tol: float
) -> int | None:
    """Minimum-ratio row; ties go to the smallest basic variable index."""
    rows = np.flatnonzero(tableau[:-1, col] > tol)
    if not rows.size:
        return None
    ratios = tableau[rows, -1] / tableau[rows, col]
    ties = rows[ratios == ratios.min()]
    return int(ties[np.argmin(basis[ties])])


def _run_phase(
    tableau: np.ndarray,
    basis: np.ndarray,
    n_cols: int,
    tol: float,
    max_iter: int,
) -> tuple[str, int]:
    iterations = 0
    while True:
        col = _entering(tableau, n_cols, tol)
        if col is None:
            return "optimal", iterations
        row = _leaving(tableau, col, basis, tol)
        if row is None:
            return "unbounded", iterations
        _pivot(tableau, row, col)
        basis[row] = col
        iterations += 1
        if iterations > max_iter:
            raise SimplexError(f"pivot limit {max_iter} exceeded")


# An optimal answer is certified when its primal residual, negative entries
# and negative reduced costs stay within CERTIFICATE_SLACK * tol of the
# problem's scale: loose enough for the round-off of a few thousand pivots,
# tight enough to reject a wrong basis.
CERTIFICATE_SLACK = 100.0


def solve_standard_form(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int | None = None,
    basis: np.ndarray | None = None,
) -> SimplexResult:
    """Minimize c.x over {A x = b, x >= 0}.

    Returns an optimal basic solution, or status "infeasible"/"unbounded".
    ``basis`` (m column indices, e.g. a previous result's ``basis``) warm
    starts the solve; a short, singular or malformed one is ignored. The
    result's ``warm`` says whether the answer came from the warm start.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not all(np.isfinite(v).all() for v in (a, b, c)):
        raise ValueError("LP data must be finite")
    if max_iter is None:
        max_iter = max(5000, 100 * (m + n))
    b_scale = abs(b).max(initial=0.0)

    pivots = 0
    start = _canonical(c, a, b, basis, tol)
    if start is not None:
        result = _two_phase(c, *start, b_scale, tol, max_iter)
        if result.status != "optimal" or _certified(c, a, b, result, tol):
            result.warm = True
            return result
        pivots = result.iterations
    result = _two_phase(c, a, b, None, b_scale, tol, max_iter)
    result.iterations += pivots
    if result.status == "optimal" and not _certified(c, a, b, result, tol):
        raise SimplexError("optimal answer failed its certificate")
    return result


def _canonical(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray | None, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(B^-1 a, B^-1 b, basic column of each row) for a usable basis, else None."""
    if basis is None:
        return None
    m, n = a.shape
    basis = np.asarray(basis, dtype=np.int64)
    if basis.shape != (m,) or not np.all((basis >= 0) & (basis < n)):
        return None
    inverse = _basis_inverse(c, a, basis, tol)
    if inverse is None:
        return None
    b_inv, _, row_of = inverse
    # einsum, not BLAS matmul, whose sums (and so the warm path's pivots)
    # change with the BLAS thread count.
    rows = np.einsum("ij,jk->ik", b_inv, np.column_stack([a, b]))
    basic = basis[row_of]
    rows[:, basic] = 0.0  # keep the basic columns exactly canonical
    rows[np.arange(m), basic] = 1.0
    return rows[:, :-1], rows[:, -1], basic


def _basis_inverse(
    c: np.ndarray, a: np.ndarray, basis: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Row-permuted B^-1, the duals y with B^T y = c_B, and the row permutation.

    Gauss-Jordan on [[B, I], [c_B, 0]], B = a[:, basis]: each basis column
    is pivoted into the unused row where its entry is largest (partial
    pivoting), which leaves [[P, P B^-1], [0, -y]]. ``row_of[i]`` is the
    position in ``basis`` of the column basic in row i (-1 for rows left
    without one when ``basis`` is short). None when the columns are
    dependent. Built on ``_pivot`` rather than LAPACK, whose code and
    buffers would cost a few MB of resident memory.
    """
    m, k = a.shape[0], basis.size
    tableau = np.zeros((m + 1, k + m))
    tableau[:m, :k] = a[:, basis]
    tableau[:m, k:] = np.eye(m)
    tableau[-1, :k] = c[basis]
    row_of = np.full(m, -1)
    for col in range(k):
        entries = np.abs(tableau[:m, col])
        entries[row_of >= 0] = -1.0
        row = int(np.argmax(entries))
        if entries[row] <= tol:
            return None
        _pivot(tableau, row, col)
        row_of[row] = col
    return tableau[:m, k:], -tableau[-1, k:], row_of


def _two_phase(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    start: np.ndarray | None,
    b_scale: float,
    tol: float,
    max_iter: int,
) -> SimplexResult:
    """Phase 1, drive-out and phase 2 from ``start``, in which [a | b] is canonical.

    Rows with b < 0 are negated. Artificials go on those rows, or on every
    row when there is no ``start`` (the cold start).
    """
    m, n = a.shape
    flipped = np.flatnonzero(b < 0)
    art = np.arange(m) if start is None else flipped
    k = art.size

    # Phase 1 tableau: original columns, artificial columns, rhs.
    tableau = np.zeros((m + 1, n + k + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[flipped] *= -1.0
    tableau[art, n + np.arange(k)] = 1.0
    art_rows = tableau[:m] if start is None else tableau[art]
    tableau[-1, :n] = -art_rows[:, :n].sum(axis=0)
    tableau[-1, -1] = -np.abs(b[art]).sum()
    basis = np.arange(n, n + m) if start is None else start
    basis[art] = n + np.arange(k)

    status, it1 = _run_phase(tableau, basis, n + k, tol, max_iter)
    if status == "unbounded":
        raise SimplexError("phase 1 reported unbounded")
    phase1_obj = -tableau[-1, -1]
    if phase1_obj > tol * (1.0 + b_scale):
        return SimplexResult("infeasible", None, None, None, it1)

    # Drive leftover artificial variables out of the basis. A row where no
    # original column can pivot is redundant and gets dropped.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            pivot_cols = np.nonzero(np.abs(tableau[i, :n]) > tol)[0]
            if pivot_cols.size:
                _pivot(tableau, i, int(pivot_cols[0]))
                basis[i] = int(pivot_cols[0])
                keep_rows.append(i)
        else:
            keep_rows.append(i)
    if len(keep_rows) < m:
        tableau = tableau[keep_rows + [m]]
        basis = basis[keep_rows]
        m = len(keep_rows)

    # Phase 2: pack each row's original columns and rhs to the front of the
    # phase-1 buffer, in row order so no unread row is overwritten. Unlike a
    # strided view (whose dense updates made the bundled re-plans about 5 %
    # slower) it is contiguous, and it has a copy's size for ``_pivot``.
    flat, width = tableau.reshape(-1), tableau.shape[1]
    for i in range(m + 1):
        flat[i * (n + 1) : i * (n + 1) + n] = flat[i * width : i * width + n]
        flat[i * (n + 1) + n] = flat[(i + 1) * width - 1]
    tableau = flat[: (m + 1) * (n + 1)].reshape(m + 1, n + 1)
    tableau[:-1, -1] = np.maximum(tableau[:-1, -1], 0.0)
    tableau[-1, :n] = c - c[basis] @ tableau[:-1, :n]
    tableau[-1, -1] = -float(c[basis] @ tableau[:-1, -1])

    status, it2 = _run_phase(tableau, basis, n, tol, max_iter)
    iterations = it1 + it2
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, None, iterations)

    x = np.zeros(n)
    x[basis] = tableau[:-1, -1]
    return SimplexResult("optimal", x, float(c @ x), basis.copy(), iterations)


def _certified(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, result: SimplexResult, tol: float
) -> bool:
    """Primal residual, x >= 0 and dual feasibility, recomputed from a, b, c.

    The duals come from a fresh elimination of the result's basis columns
    of the original a (``_basis_inverse``), so the reduced costs c - a^T y
    do not inherit the tableau's round-off. Each test is written so that a
    NaN fails it.
    """
    x = result.x
    slack = CERTIFICATE_SLACK * tol
    a_max = max(a.max(initial=0.0), -a.min(initial=0.0))
    residual = np.abs(a @ x - b).max(initial=0.0)
    if not residual <= slack * (1.0 + abs(b).max(initial=0.0) + a_max * abs(x).sum()):
        return False
    if not x.min(initial=0.0) >= -slack * (1.0 + abs(x).max(initial=0.0)):
        return False
    inverse = _basis_inverse(c, a, result.basis, tol)
    if inverse is None:
        return False
    y = inverse[1]
    reduced = c - a.T @ y
    return bool(
        reduced.min(initial=0.0)
        >= -slack * (1.0 + abs(c).max(initial=0.0) + a_max * abs(y).sum())
    )
