"""Independent reference implementations used only by the tests.

Every function here recomputes something the package also computes, but by
a different route (exhaustive enumeration, elementwise loops, closed-form
counting), so agreement between the two is real evidence and not a
tautology.
"""

import csv
import itertools
import math

import numpy as np

from bssched import (
    ChannelModel,
    ChannelState,
    NetworkConfig,
    SimTrace,
    StaticSplitStatic,
    activation_id,
    all_on,
    beta_to_alpha,
    build_lp,
    enumerate_activations,
    max_weight,
    region_index,
)
from bssched.cli import CSV_COLUMNS
from bssched.simplex import SimplexError, SimplexResult

# ---------------------------------------------------------------------------
# Model and trace helpers
# ---------------------------------------------------------------------------


def all_off(n_stations):
    return np.zeros(n_stations, dtype=np.int64)


def vector_network_cost(j_prev, j, cfg):
    """Activation cost from ``j_prev`` to ``j`` on 0/1 vectors, counted
    elementwise instead of from the bits of activation ids."""
    j_prev = np.asarray(j_prev)
    j = np.asarray(j)
    turned_off = int(np.sum(np.maximum(j_prev - j, 0)))
    turned_on = int(np.sum(np.maximum(j - j_prev, 0)))
    on = int(np.sum(j))
    off = cfg.n_stations - on
    return (
        cfg.switch_off_cost * turned_off
        + cfg.active_cost * on
        + cfg.switch_on_cost * turned_on
        + cfg.sleep_cost * off
    )


def step_queues(q, s, a):
    """One queue update on matrices: departures = min(s, q) and
    next_q = q - departures + a. Returns (next_q, departures)."""
    departures = np.minimum(s, q)
    return q - departures + a, departures


def scale_at(regime, t):
    """The arrival scale ``regime`` applies at slot t, by a scan of its
    changes (1.0 before the first)."""
    scale = 1.0
    for start, value in regime.changes:
        if t >= start:
            scale = value
        else:
            break
    return scale


def occupancy(trace):
    """Fraction of a trace's slots spent in each activation id."""
    ids, counts = np.unique(trace.j_bits, return_counts=True)
    return {int(i): float(c) / trace.horizon for i, c in zip(ids, counts)}


def csv_module_write(path, trace, window):
    """The run CSV through the ``csv`` module, one ``writerow`` per slot:
    ints by ``str``, the explore flag by ``int``, floats by
    ``"{:.10g}".format``."""
    as_text = "{:.10g}".format
    avg = trace.running_avg_cost()
    windowed = trace.windowed_cost(window)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in range(trace.horizon):
            writer.writerow(
                [
                    i + 1,
                    int(trace.total_queue[i]),
                    as_text(float(trace.cost[i])),
                    as_text(float(avg[i])),
                    as_text(float(windowed[i])),
                    int(trace.j_bits[i]),
                    int(trace.explore[i]),
                    as_text(float(trace.mu_err[i])),
                    as_text(float(trace.lambda_err[i])),
                ]
            )


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


def standard_form(problem, cost=None, mu=None, lam=None):
    """Assemble min c@x s.t. a@x = b, x >= 0 for a planning LP instance.

    Built entry by entry from the problem's regions, network and channel,
    not from its matrices. Columns: sigma in activation order, then one
    beta per region member (activation-major, then state), then one
    surplus per link. Rows: the sigma sum, one sigma/beta tie per
    (activation, state), then one coverage row per link. Activation j
    costs active_cost * |j| + sleep_cost * (M - |j|). ``mu`` defaults to
    the channel pmf and ``lam`` to the configured arrival rates.
    """
    cfg, cm, regions = problem.cfg, problem.cm, problem.regions
    mu = cm.pmf if mu is None else mu
    lam = cfg.arrival_rates if lam is None else lam
    links = list(cfg.adjacency)
    activations = list(itertools.product((0, 1), repeat=cfg.n_stations))
    n_act, n_states = len(activations), cm.n_states
    beta = [
        (j, h, member)
        for j in range(n_act)
        for h in range(n_states)
        for member in regions[j][h]
    ]
    dim = n_act + len(beta)
    n_eq = 1 + n_act * n_states
    a = np.zeros((n_eq + len(links), dim + len(links)))
    b = np.zeros(n_eq + len(links))
    c = np.zeros(dim + len(links))

    b[0] = 1.0
    for j, activation in enumerate(activations):
        a[0, j] = 1.0
        on = sum(activation)
        c[j] = cfg.active_cost * on + cfg.sleep_cost * (cfg.n_stations - on)
        for h in range(n_states):
            a[1 + j * n_states + h, j] = 1.0
    for k, (j, h, member) in enumerate(beta):
        a[1 + j * n_states + h, n_act + k] = -1.0
        for i, (m, u) in enumerate(links):
            a[n_eq + i, n_act + k] = mu[h] * member[m, u]
    for i, (m, u) in enumerate(links):
        for k in range(len(links)):
            a[n_eq + i, dim + k] = -float(i == k)  # -I, zeros signed as in -np.eye
        b[n_eq + i] = lam[m][u] + problem.eps_g
    if cost is not None:
        c[:dim] = cost
    return c, a, b


def dense_pivot(tableau, row, col):
    """Pivot on (row, col) with one outer-product update of every row."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def restricted_pivot(tableau, row, col, rows, cols):
    """Pivot on (row, col) updating only ``rows`` x ``cols``, a row at a time,
    each entry as t - f * p with f = 0 on the pivot row; every other entry
    keeps its bits. On every row and column it gives dense_pivot's bits."""
    tableau[row] /= tableau[row, col]
    pivot = tableau[row].copy()
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    for i in rows:
        tableau[i, cols] = tableau[i, cols] - factors[i] * pivot[cols]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def loop_leaving(tableau, col, basis, tol):
    """Ratio test by a loop over the rows: least rhs / column among
    column > tol, ties to the smallest basic index."""
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    best = None
    for i in range(column.shape[0]):
        if column[i] > tol:
            key = (rhs[i] / column[i], int(basis[i]), i)
            if best is None or key < best:
                best = key
    return best[2] if best is not None else None


def bfs_minimum(c, a, b, feas_tol=1e-7, obj_tol=1e-9, max_bases=400_000):
    """Exhaustive basic-feasible-solution minimum of min c@x, a@x=b, x>=0.

    Returns (best_objective, optimal_vertices) where the vertices are the
    distinct optimal solutions found (rounded to 7 decimals for dedup), or
    (None, []) when no feasible basis exists. Only for tiny instances; a
    guard refuses anything with too many candidate bases.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    if math.comb(n, m) > max_bases:
        raise ValueError(
            f"instance too large for exhaustive enumeration: C({n},{m})"
        )
    best = None
    vertices: list[tuple] = []
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        try:
            xb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or np.any(xb < -feas_tol):
            continue
        if np.max(np.abs(sub @ xb - b)) > feas_tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.maximum(xb, 0.0)
        obj = float(c @ x)
        if best is None or obj < best - obj_tol:
            best = obj
            vertices = [tuple(np.round(x, 7))]
        elif abs(obj - best) <= obj_tol:
            key = tuple(np.round(x, 7))
            if key not in vertices:
                vertices.append(key)
    return best, vertices


def bfs_vertices(a, b, feas_tol=1e-7, max_bases=400_000):
    """All distinct basic feasible solutions of a@x=b, x>=0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if math.comb(n, m) > max_bases:
        raise ValueError(
            f"instance too large for exhaustive enumeration: C({n},{m})"
        )
    out = {}
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        try:
            xb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or np.any(xb < -feas_tol):
            continue
        if np.max(np.abs(sub @ xb - b)) > feas_tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.maximum(xb, 0.0)
        out[tuple(np.round(x, 7))] = x
    return list(out.values())


def random_small_instance(rng):
    """Random tiny scenario with a feasible-by-construction arrival target.

    Families are sized so the standard form stays enumerable: either one
    station with up to three channel states, or two stations (one user
    each) with a single state. The target is 0.8 times the offered rate of
    a random stationary plan, so the LP is feasible with slack.
    """
    if rng.random() < 0.5:
        n_stations, n_states = 1, int(rng.integers(1, 4))
        n_users = int(rng.integers(1, 3))
        adjacency = tuple((0, u) for u in range(n_users))
    else:
        n_stations, n_states = 2, 1
        n_users = 2
        adjacency = ((0, 0), (1, 1))
    max_rate = int(rng.integers(1, 3))

    states = []
    for s in range(n_states):
        r = np.zeros((n_stations, n_users), dtype=np.int64)
        for m, u in adjacency:
            r[m, u] = int(rng.integers(0, max_rate + 1))
        states.append(ChannelState(name=f"h{s}", rates=r))
    pmf = rng.dirichlet(np.ones(n_states))
    cm = ChannelModel(states=tuple(states), pmf=pmf)

    probe = NetworkConfig(
        n_users=n_users,
        n_stations=n_stations,
        adjacency=adjacency,
        arrival_rates=np.zeros((n_stations, n_users)),
        max_rate=max_rate,
    )
    plan = build_lp(probe, cm, eps_g=0.0)
    sigma = rng.dirichlet(np.ones(plan.n_act))
    offered = np.zeros((n_stations, n_users))
    for (j_idx, h), (_, size) in plan.beta_offsets.items():
        members = plan.regions[j_idx][h]
        alpha = rng.dirichlet(np.ones(size))
        offered += sigma[j_idx] * pmf[h] * np.einsum("k,kmu->mu", alpha, members)
    lam = np.minimum(0.8 * offered, 0.95)

    cfg = NetworkConfig(
        n_users=n_users,
        n_stations=n_stations,
        adjacency=adjacency,
        arrival_rates=lam,
        max_rate=max_rate,
        switch_off_cost=float(rng.uniform(0.5, 2.0)),
        active_cost=float(rng.uniform(0.5, 2.0)),
    )
    return cfg, cm


# ---------------------------------------------------------------------------
# Max-Weight
# ---------------------------------------------------------------------------


def brute_force_max_weight(q, members):
    """Exhaustive argmax of sum(q * r) with first-member tie-breaking."""
    best_idx, best_val = 0, None
    for idx in range(members.shape[0]):
        val = float(np.sum(np.asarray(q, dtype=float) * members[idx]))
        if best_val is None or val > best_val:
            best_idx, best_val = idx, val
    return best_idx


def _searchsorted_draw(cum_pmf, rng):
    """Inverse-CDF draw of one uniform by ``np.searchsorted``."""
    idx = int(np.searchsorted(cum_pmf, rng.random(), side="right"))
    return min(idx, cum_pmf.shape[0] - 1)


def reference_run(
    cfg, cm, policy, horizon, seed=None, rng=None, regime=None, j0=None,
    q0=None, arrival_law="bernoulli",
):
    """``sim.run`` by the region-based slot loop: Max-Weight is
    ``max_weight`` over the member array R(j, h) of ``region_index``, the
    queues are a numpy matrix updated by ``step_queues``, and each slot is
    priced by ``vector_network_cost``.

    The draw order is the engine's: the arrival matrix, the channel-state
    uniform, then the policy's activation draws and, for
    ``static_split_static``, the member draw from the planned alpha. Only
    the activation comes from the policy (``_activation``); the service is
    computed here. Inputs are assumed valid.
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    shape = (cfg.n_stations, cfg.n_users)
    q = np.zeros(shape, dtype=np.int64) if q0 is None else np.array(q0, dtype=np.int64)
    j0_id = activation_id(all_on(cfg.n_stations) if j0 is None else j0)
    policy.reset(j0_id)
    regions = region_index(cfg, cm)
    alpha_cdf = None
    if isinstance(policy, StaticSplitStatic):
        alpha = beta_to_alpha(policy.problem, policy.solution)
        alpha_cdf = {key: np.cumsum(pmf) for key, pmf in alpha.items()}
    acts = enumerate_activations(cfg.n_stations)
    cum_pmf = np.cumsum(np.asarray(cm.pmf, dtype=float))
    true_mu = np.asarray(cm.pmf, dtype=float)
    base_rates = np.asarray(cfg.arrival_rates, dtype=float)

    trace = SimTrace(
        policy_name=policy.name,
        horizon=horizon,
        total_queue=np.zeros(horizon, dtype=np.int64),
        v_quad=np.zeros(horizon, dtype=np.int64),
        cost=np.zeros(horizon),
        served=np.zeros(horizon, dtype=np.int64),
        j_bits=np.zeros(horizon, dtype=np.int64),
        explore=np.zeros(horizon, dtype=bool),
        mu_err=np.full(horizon, np.nan),
        lambda_err=np.full(horizon, np.nan),
        final_queues=q,
    )
    previous = j0_id
    for t in range(1, horizon + 1):
        rates_now = base_rates * (1.0 if regime is None else scale_at(regime, t))
        if arrival_law == "bernoulli":
            a = (rng.random(shape) < rates_now).astype(np.int64)
        else:
            a = rng.binomial(cfg.max_arrivals, rates_now / cfg.max_arrivals)
        h = _searchsorted_draw(cum_pmf, rng)

        j, explore = policy._activation(t, h, a, rng)
        policy._j = j
        region = regions[j][h]
        if alpha_cdf is None:
            s = region[max_weight(q, region)]
        else:
            s = region[_searchsorted_draw(alpha_cdf[(j, h)], rng)]

        i = t - 1
        trace.total_queue[i] = q.sum()
        trace.v_quad[i] = int((q * q).sum())
        trace.cost[i] = vector_network_cost(acts[previous], acts[j], cfg)
        trace.j_bits[i] = j
        trace.explore[i] = explore
        if policy.mu_hat is not None:
            trace.mu_err[i] = float(np.abs(policy.mu_hat - true_mu).sum())
        if policy.lambda_hat is not None:
            trace.lambda_err[i] = float(np.abs(policy.lambda_hat - rates_now).sum())
        q, departures = step_queues(q, s, a)
        trace.served[i] = int(departures.sum())
        previous = j
    trace.final_queues = q
    return trace


# ---------------------------------------------------------------------------
# Coefficient of ergodicity
# ---------------------------------------------------------------------------


def tau1_pairwise(p):
    """Half the max pairwise row L1 distance via explicit loops."""
    p = np.asarray(p, dtype=float)
    best = 0.0
    for i in range(p.shape[0]):
        for k in range(p.shape[0]):
            dist = 0.0
            for j in range(p.shape[1]):
                dist += abs(p[i, j] - p[k, j])
            best = max(best, 0.5 * dist)
    return best


def tau1_random_search(p, rng, samples=300):
    """max ||P^T z||_1 over random z with z^T 1 = 0 and ||z||_1 = 1.

    Random feasible points never beat the extreme-point value, so this is
    a one-sided check of the closed form.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    best = 0.0
    for _ in range(samples):
        z = rng.standard_normal(n)
        z -= z.mean()
        norm = float(np.abs(z).sum())
        if norm < 1e-12:
            continue
        z /= norm
        best = max(best, float(np.abs(p.T @ z).sum()))
    return best


def random_stochastic_matrix(rng, n):
    """Random row-stochastic matrix with occasional sparse rows."""
    p = rng.dirichlet(np.ones(n), size=n)
    if rng.random() < 0.3:
        row = int(rng.integers(n))
        keep = rng.random(n) < 0.5
        keep[int(rng.integers(n))] = True
        p[row] = np.where(keep, p[row], 0.0)
        p[row] /= p[row].sum()
    return p


# ---------------------------------------------------------------------------
# Rate regions
# ---------------------------------------------------------------------------


def count_one_user_region(cfg, rates):
    """prod_m (1 + #{adjacent users with positive rate}) by direct count."""
    mask = cfg.adjacency_mask()
    total = 1
    for m in range(cfg.n_stations):
        deg = 0
        for u in range(cfg.n_users):
            if mask[m, u] and rates[m, u] > 0:
                deg += 1
        total *= 1 + deg
    return total


def enumerate_one_user_region(cfg, rates):
    """Literal recursive enumeration of the one-user-per-station region."""
    mask = cfg.adjacency_mask()
    out = set()

    def recurse(m, rows):
        if m == cfg.n_stations:
            out.add(tuple(tuple(row) for row in rows))
            return
        zero = [0] * cfg.n_users
        recurse(m + 1, rows + [zero])
        for u in range(cfg.n_users):
            if mask[m, u] and rates[m, u] > 0:
                row = [0] * cfg.n_users
                row[u] = int(rates[m, u])
                recurse(m + 1, rows + [row])

    recurse(0, [])
    return out


def mask_and_dedupe(region, j):
    """R(j, h) by the literal rule: zero the OFF rows of every member, then
    drop repeated matrices, keeping first occurrences in order."""
    masked = region * np.asarray(j).reshape(1, -1, 1)
    seen: dict[bytes, None] = {}
    keep = []
    for i in range(masked.shape[0]):
        key = masked[i].tobytes()
        if key not in seen:
            seen[key] = None
            keep.append(i)
    return masked[keep]


# ---------------------------------------------------------------------------
# Simplex without reuse
# ---------------------------------------------------------------------------

# ``reference_solve`` is ``bssched.simplex.solve_standard_form`` as it was
# before warm re-solves reused eliminations, kept verbatim (helpers renamed):
# every warm solve eliminates its start basis, and every certificate
# eliminates the answer's basis afresh; dense pivots use np.outer.

# The Python overhead of one row update, counted in tableau entries: a pivot
# takes the row loop when touched_rows * _REF_ROW_COST < tableau.size.
_REF_ROW_COST = 2048

# A wide tableau's row-loop pivot instead updates touched rows x the pivot
# row's nonzero columns as one block when nonzeros * _REF_SPARSE_COST < width.
# Timed per pivot on generated 5-station plans (12,692 columns), the block
# took 1.3x the row loop's time at one nonzero in 7 and 0.46x at one in 27;
# with nonzeros scattered at random it breaks even near one in 24.
_REF_SPARSE_COST = 16


def _ref_pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    column = tableau[:, col]
    if np.count_nonzero(column) * _REF_ROW_COST < tableau.size:
        touched = np.flatnonzero(column)
        # nonzeros of a boolean mask are found several times faster
        cols = np.flatnonzero(pivot_row != 0) if pivot_row.size > _REF_ROW_COST else None
        if cols is not None and cols.size * _REF_SPARSE_COST < pivot_row.size:
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


def _ref_entering(tableau: np.ndarray, n_cols: int, tol: float) -> int | None:
    """Bland: leftmost column with a negative reduced cost."""
    reduced = tableau[-1, :n_cols]
    candidates = np.nonzero(reduced < -tol)[0]
    return int(candidates[0]) if candidates.size else None


def _ref_leaving(
    tableau: np.ndarray, col: int, basis: np.ndarray, tol: float
) -> int | None:
    """Minimum-ratio row; ties go to the smallest basic variable index."""
    rows = np.flatnonzero(tableau[:-1, col] > tol)
    if not rows.size:
        return None
    ratios = tableau[rows, -1] / tableau[rows, col]
    ties = rows[ratios == ratios.min()]
    return int(ties[np.argmin(basis[ties])])


def _ref_run_phase(
    tableau: np.ndarray,
    basis: np.ndarray,
    n_cols: int,
    tol: float,
    max_iter: int,
) -> tuple[str, int]:
    iterations = 0
    while True:
        col = _ref_entering(tableau, n_cols, tol)
        if col is None:
            return "optimal", iterations
        row = _ref_leaving(tableau, col, basis, tol)
        if row is None:
            return "unbounded", iterations
        _ref_pivot(tableau, row, col)
        basis[row] = col
        iterations += 1
        if iterations > max_iter:
            raise SimplexError(f"pivot limit {max_iter} exceeded")


# An optimal answer is certified when its primal residual, negative entries
# and negative reduced costs stay within _REF_CERTIFICATE_SLACK * tol of the
# problem's scale: loose enough for the round-off of a few thousand pivots,
# tight enough to reject a wrong basis.
_REF_CERTIFICATE_SLACK = 100.0


def reference_solve(
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
    start = _ref_canonical(c, a, b, basis, tol)
    if start is not None:
        result = _ref_two_phase(c, *start, b_scale, tol, max_iter)
        if result.status != "optimal" or _ref_certified(c, a, b, result, tol):
            result.warm = True
            return result
        pivots = result.iterations
    result = _ref_two_phase(c, a, b, None, b_scale, tol, max_iter)
    result.iterations += pivots
    if result.status == "optimal" and not _ref_certified(c, a, b, result, tol):
        raise SimplexError("optimal answer failed its certificate")
    return result


def _ref_canonical(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray | None, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(B^-1 a, B^-1 b, basic column of each row) for a usable basis, else None."""
    if basis is None:
        return None
    m, n = a.shape
    basis = np.asarray(basis)
    if (
        basis.dtype.kind not in "iu"  # a float basis is not truncated
        or basis.shape != (m,)
        or not np.all((basis >= 0) & (basis < n))
    ):
        return None
    inverse = _ref_basis_inverse(c, a, basis, tol)
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


def _ref_basis_inverse(
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
        _ref_pivot(tableau, row, col)
        row_of[row] = col
    return tableau[:m, k:], -tableau[-1, k:], row_of


def _ref_two_phase(
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

    status, it1 = _ref_run_phase(tableau, basis, n + k, tol, max_iter)
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
                _ref_pivot(tableau, i, int(pivot_cols[0]))
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

    status, it2 = _ref_run_phase(tableau, basis, n, tol, max_iter)
    iterations = it1 + it2
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, None, iterations)

    x = np.zeros(n)
    x[basis] = tableau[:-1, -1]
    return SimplexResult("optimal", x, float(c @ x), basis.copy(), iterations)


def _ref_certified(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, result: SimplexResult, tol: float
) -> bool:
    """Primal residual, x >= 0 and dual feasibility, recomputed from a, b, c.

    The duals come from a fresh elimination of the result's basis columns
    of the original a (``_basis_inverse``), so the reduced costs c - a^T y
    do not inherit the tableau's round-off. Each test is written so that a
    NaN fails it.
    """
    x = result.x
    slack = _REF_CERTIFICATE_SLACK * tol
    a_max = max(a.max(initial=0.0), -a.min(initial=0.0))
    residual = np.abs(a @ x - b).max(initial=0.0)
    if not residual <= slack * (1.0 + abs(b).max(initial=0.0) + a_max * abs(x).sum()):
        return False
    if not x.min(initial=0.0) >= -slack * (1.0 + abs(x).max(initial=0.0)):
        return False
    inverse = _ref_basis_inverse(c, a, result.basis, tol)
    if inverse is None:
        return False
    y = inverse[1]
    reduced = c - a.T @ y
    return bool(
        reduced.min(initial=0.0)
        >= -slack * (1.0 + abs(c).max(initial=0.0) + a_max * abs(y).sum())
    )
