"""Dense two-phase simplex for standard-form linear programs.

Solves min c.x subject to A x = b, x >= 0. By default both phases pivot
with Bland's rule (smallest eligible index enters, ties in the ratio test
break toward the smallest basic variable index), which cannot cycle, so the
iteration cap only trips on genuinely pathological input and raises instead
of returning a wrong answer. The solver is deterministic: the same problem
always produces the same basis and the same optimal vertex.

With ``dantzig=True`` the column with the most negative reduced cost
enters instead (Dantzig's rule), which takes far fewer pivots but can
cycle on a degenerate vertex. So after ``STALL`` pivots in a row that do
not lower the objective, Bland's rule picks until it falls, then Dantzig's
again. Bland's rule ends from any basis, so each stall ends in a fall or in
the phase's answer; each fall leaves a vertex for good, since the objective
never rises, and there are finitely many vertices, so the solve still ends.
Where an LP has several optimal vertices the two rules may end at
different ones; with a unique optimum they end at the same vertex, up to
round-off.

A pivot costs what it changes, by one of three updates. On a narrow
tableau a single outer-product update of every row is cheapest
(``ROW_COST`` below; at 44 rows the crossover is about 1,500 columns). On a
wide one only the rows whose pivot-column entry is nonzero are updated:
one at a time in a reused buffer, as ``row -= factor * pivot_row``, or,
when the pivot row is mostly zeros (``SPARSE_COST``), as one block of those
rows x the pivot row's nonzero columns. The outer products come from
``np.einsum``, whose products are ``np.outer``'s plus +0.0: a zero product
subtracts +0.0, which leaves its entry's bits as a skipped entry keeps
them. All three compute each entry they change by the same product and
difference, and a skipped entry would only have had a zero subtracted, so
the tableau holds the same values either way. At most the sign of a zero
entry differs (x - (-0.0) turns -0.0 into +0.0), which no comparison sees
and which cannot reach x: phase 2 starts from a right-hand side clipped to
+0.0, and no update then makes a -0.0 there. So the pivot sequence, x,
basis and pivot count are identical bit for bit on all three paths.

A solve may start warm from a basis, typically the optimal basis of a
nearby problem. When that basis is full-size and nonsingular, [A | b] is
first made canonical in it (B^-1 A, B^-1 b); rows whose right-hand side
turns negative are negated and get an artificial variable, the others keep
their basic variable. Without a usable basis every row gets an artificial,
which is the cold start. Both then run the same phase 1, artificial
drive-out and phase 2, so the rule's termination still holds, and a
warm start only shortens phase 1 when few rows lost feasibility. Phase 2
runs in the phase-1 tableau's own buffer, its rows packed in place without
the artificial columns, so a solve allocates one tableau, not two.

Every optimal answer carries a certificate recomputed from the original
A, b and c: the primal residual, nonnegativity of x, and dual feasibility
of the reduced costs c - A^T y of its basis. A warm answer that fails it
is solved again cold; a cold answer that fails it raises ``SimplexError``.

The duals y, and the B^-1 of a warm start, come from a Gauss-Jordan
elimination of the basis columns of the original A (``Elimination``),
never from the pivoted tableau. An elimination is deterministic, so one
made earlier has the bits of one made again, and a solve reuses it where
it would otherwise repeat it:

- the certificate takes y from the warm start's elimination when the
  answer's basis holds the same columns as the warm basis;
- a warm start takes B^-1 from the ``elimination`` of the result whose
  ``basis`` it starts from, when that was made from an equal basis, equal
  a[:, basis] and c[basis] and an equal tol, all an elimination reads. A
  re-solve whose basis columns of A and their costs did not move, only b
  or other columns, then skips its elimination.

The result's ``eliminations`` counts those the solve ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SimplexError(Exception):
    """Pivot limit exceeded or an internal invariant failed."""


@dataclass(eq=False)
class Elimination:
    """One Gauss-Jordan elimination of ``basis``'s columns of a and c.

    ``inverse`` is what ``_basis_inverse`` returned: the row-permuted B^-1,
    the duals and the row permutation, or None when the columns are
    dependent. It holds its own copy of ``basis`` and, as ``key``, the
    bytes of a[:, basis] and c[basis] and the tol it was made with, so it
    keeps no standard form alive.
    """

    basis: np.ndarray
    inverse: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    key: tuple[bytes, bytes, float] = field(repr=False)


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    basis: np.ndarray | None
    iterations: int
    warm: bool = False  # the answer came from a warm start
    eliminations: int = 0  # basis eliminations the solve ran
    elimination: Elimination | None = None  # the one its certificate used


# The Python overhead of one row update, counted in tableau entries: a pivot
# takes the row loop when touched_rows * ROW_COST < tableau.size.
ROW_COST = 2048

# A wide tableau's row-loop pivot instead updates touched rows x the pivot
# row's nonzero columns as one block when nonzeros * SPARSE_COST < width.
# Timed per pivot on generated 5-station plans (12,692 columns), the block
# took 1.3x the row loop's time at one nonzero in 7 and 0.46x at one in 27;
# with nonzeros scattered at random it breaks even near one in 24.
SPARSE_COST = 16

# Under Dantzig's rule, Bland's rule picks after this many pivots in a row
# that do not lower the objective, until it falls.
STALL = 20


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
            update = np.einsum("i,j->ij", column[touched], pivot_row[cols])
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
        tableau -= np.einsum("i,j->ij", factors, pivot_row)
    # keep the pivot column exactly canonical
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _entering(
    tableau: np.ndarray, n_cols: int, tol: float, dantzig: bool
) -> int | None:
    """Bland: leftmost column with a negative reduced cost. Dantzig: the
    most negative one, the leftmost of equals."""
    reduced = tableau[-1, :n_cols]
    if dantzig:
        col = int(reduced.argmin())
        return col if reduced[col] < -tol else None
    candidates = (reduced < -tol).nonzero()[0]
    return int(candidates[0]) if candidates.size else None


def _leaving(
    tableau: np.ndarray, col: int, basis: np.ndarray, tol: float
) -> int | None:
    """Minimum-ratio row; ties go to the smallest basic variable index."""
    column = tableau[:-1, col]
    rows = (column > tol).nonzero()[0]
    if not rows.size:
        return None
    ratios = tableau[:-1, -1][rows] / column[rows]
    ties = rows[ratios == ratios.min()]
    return int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])


def _run_phase(
    tableau: np.ndarray,
    basis: np.ndarray,
    n_cols: int,
    tol: float,
    max_iter: int,
    dantzig: bool,
) -> tuple[str, int]:
    iterations = stalled = 0
    # minus the objective at the last fall: a pivot raises it or leaves it
    record = tableau[-1, -1]
    while True:
        col = _entering(tableau, n_cols, tol, dantzig and stalled < STALL)
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
        if dantzig:
            if tableau[-1, -1] > record + tol * (1.0 + abs(record)):
                record, stalled = tableau[-1, -1], 0
            else:
                stalled += 1


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
    elimination: Elimination | None = None,
    dantzig: bool = False,
) -> SimplexResult:
    """Minimize c.x over {A x = b, x >= 0}.

    Returns an optimal basic solution, or status "infeasible"/"unbounded".
    ``basis`` (m integer column indices, e.g. a previous result's
    ``basis``) warm starts the solve; a short, singular or malformed one is
    ignored. The result's ``warm`` says whether the answer came from the
    warm start. ``elimination``, that previous result's ``elimination``,
    spares the warm start its own elimination of ``basis`` when it read
    the same values (see the module docstring). ``dantzig`` pivots by
    Dantzig's rule, falling back to Bland's on a stall.
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

    pivots = eliminations = 0
    if basis is not None:
        basis = np.asarray(basis)
        if (
            basis.dtype.kind not in "iu"  # a float basis is not truncated
            or basis.shape != (m,)
            or not np.all((basis >= 0) & (basis < n))
        ):
            basis = None
    if basis is not None:
        if (
            elimination is None
            or not np.array_equal(elimination.basis, basis)
            or elimination.key != _key(c, a, basis, tol)
        ):
            elimination = _eliminate(c, a, basis, tol)
            eliminations = 1
        if elimination.inverse is not None:
            start = _canonical(a, b, elimination)
            result = _two_phase(c, *start, b_scale, tol, max_iter, dantzig)
            result.eliminations = eliminations
            if result.status != "optimal" or _certified(
                c, a, b, result, tol, elimination
            ):
                result.warm = True
                return result
            pivots, eliminations = result.iterations, result.eliminations
    result = _two_phase(c, a, b, None, b_scale, tol, max_iter, dantzig)
    result.iterations += pivots
    result.eliminations = eliminations
    if result.status == "optimal" and not _certified(c, a, b, result, tol):
        raise SimplexError("optimal answer failed its certificate")
    return result


def _key(
    c: np.ndarray, a: np.ndarray, basis: np.ndarray, tol: float
) -> tuple[bytes, bytes, float]:
    """What an elimination of ``basis`` reads besides the basis itself."""
    return a[:, basis].tobytes(), c[basis].tobytes(), tol


def _canonical(
    a: np.ndarray, b: np.ndarray, elimination: Elimination
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B^-1 a, B^-1 b, basic column of each row) for a nonsingular basis."""
    b_inv, _, row_of = elimination.inverse
    # einsum, not BLAS matmul, whose sums (and so the warm path's pivots)
    # change with the BLAS thread count.
    rows = np.einsum("ij,jk->ik", b_inv, np.column_stack([a, b]))
    basic = elimination.basis[row_of]
    rows[:, basic] = 0.0  # keep the basic columns exactly canonical
    rows[np.arange(a.shape[0]), basic] = 1.0
    return rows[:, :-1], rows[:, -1], basic


def _eliminate(
    c: np.ndarray, a: np.ndarray, basis: np.ndarray, tol: float
) -> Elimination:
    inverse = _basis_inverse(c, a, basis, tol)
    return Elimination(basis.astype(np.int64), inverse, _key(c, a, basis, tol))


def _basis_inverse(
    c: np.ndarray, a: np.ndarray, basis: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Row-permuted B^-1, the duals y with B^T y = c_B, and the row permutation.

    Gauss-Jordan on [[B, I], [c_B, 0]], B = a[:, basis]: each basis column
    is pivoted into the unused row where its entry is largest (partial
    pivoting), which leaves [[P, P B^-1], [0, -y]]. ``row_of[i]`` is the
    position in ``basis`` of the column basic in row i (-1 for rows left
    without one when ``basis`` is short). None when the columns are
    dependent. Each pivot is ``_pivot``'s dense update, which a tableau this
    small always takes, written out, since per-call overhead dominates at
    this size; LAPACK's code and buffers would cost a few MB of resident
    memory.
    """
    m, k = a.shape[0], basis.size
    tableau = np.zeros((m + 1, k + m))
    tableau[:m, :k] = a[:, basis]
    tableau[:m, k:] = np.eye(m)
    tableau[-1, :k] = c[basis]
    row_of = np.full(m, -1)
    used = np.zeros(m, dtype=bool)
    for col in range(k):
        column = tableau[:, col]
        entries = np.abs(column[:m])
        entries[used] = -1.0
        row = int(entries.argmax())
        if entries[row] <= tol:
            return None
        pivot_row = tableau[row]
        pivot_row /= pivot_row[col]
        factors = column.copy()
        factors[row] = 0.0
        tableau -= np.einsum("i,j->ij", factors, pivot_row)
        column[:] = 0.0
        pivot_row[col] = 1.0
        used[row] = True
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
    dantzig: bool,
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

    status, it1 = _run_phase(tableau, basis, n + k, tol, max_iter, dantzig)
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
    if width > n + 1:  # without artificial columns every row is in place
        for i in range(m + 1):
            flat[i * (n + 1) : i * (n + 1) + n] = flat[i * width : i * width + n]
            flat[i * (n + 1) + n] = flat[(i + 1) * width - 1]
    tableau = flat[: (m + 1) * (n + 1)].reshape(m + 1, n + 1)
    tableau[:-1, -1] = np.maximum(tableau[:-1, -1], 0.0)
    tableau[-1, :n] = c - c[basis] @ tableau[:-1, :n]
    tableau[-1, -1] = -float(c[basis] @ tableau[:-1, -1])

    status, it2 = _run_phase(tableau, basis, n, tol, max_iter, dantzig)
    iterations = it1 + it2
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, None, iterations)

    x = np.zeros(n)
    x[basis] = tableau[:-1, -1]
    return SimplexResult("optimal", x, float(c @ x), basis, iterations)


def _certified(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    result: SimplexResult,
    tol: float,
    warm: Elimination | None = None,
) -> bool:
    """Primal residual, x >= 0 and dual feasibility, recomputed from a, b, c.

    The duals come from an elimination of the result's basis columns of the
    original a (``_basis_inverse``), so the reduced costs c - a^T y do not
    inherit the tableau's round-off. That is ``warm``, the elimination the
    warm start made canonical from, when the result's basis holds the same
    columns; otherwise a fresh one, counted in the result's
    ``eliminations``. The elimination used becomes the result's
    ``elimination``. Each test is written so that a NaN fails it.
    """
    x = result.x
    slack = CERTIFICATE_SLACK * tol
    a_max = max(a.max(initial=0.0), -a.min(initial=0.0))
    residual = np.abs(a @ x - b).max(initial=0.0)
    if not residual <= slack * (1.0 + abs(b).max(initial=0.0) + a_max * abs(x).sum()):
        return False
    if not x.min(initial=0.0) >= -slack * (1.0 + abs(x).max(initial=0.0)):
        return False
    basis = result.basis
    if warm is not None and np.array_equal(np.sort(warm.basis), np.sort(basis)):
        result.elimination = warm
    else:
        result.elimination = _eliminate(c, a, basis, tol)
        result.eliminations += 1
    if result.elimination.inverse is None:
        return False
    y = result.elimination.inverse[1]
    reduced = c - a.T @ y
    return bool(
        reduced.min(initial=0.0)
        >= -slack * (1.0 + abs(c).max(initial=0.0) + a_max * abs(y).sum())
    )
