"""Standalone checks of the two-phase simplex solver."""

import pickle
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bssched.simplex as simplex_module
from bssched import SimplexError, solve_standard_form

from oracles import (
    bfs_minimum,
    dense_pivot,
    loop_leaving,
    reference_solve,
    restricted_pivot,
)

scipy_opt = pytest.importorskip("scipy.optimize")


def to_standard_with_slack(c, a_ub, b_ub):
    """min c@x, a_ub@x <= b_ub, x >= 0 in equality form."""
    m, n = a_ub.shape
    a = np.hstack([a_ub, np.eye(m)])
    c_full = np.concatenate([c, np.zeros(m)])
    return c_full, a, np.asarray(b_ub, dtype=float)


def test_simple_known_optimum():
    # max x + y over the unit simplex-ish box: x + y <= 1, x,y >= 0
    c, a, b = to_standard_with_slack(
        np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    )
    res = solve_standard_form(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-12)


def test_two_constraint_lp():
    # classic: min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    c, a, b = to_standard_with_slack(
        np.array([-3.0, -5.0]),
        np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
        np.array([4.0, 12.0, 18.0]),
    )
    res = solve_standard_form(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-36.0, abs=1e-9)
    assert res.x[:2] == pytest.approx([2.0, 6.0], abs=1e-9)


def test_infeasible_detection():
    # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 3.0])
    res = solve_standard_form(np.zeros(2), a, b)
    assert res.status == "infeasible"


def test_unbounded_detection():
    # min -x with only x - y = 0: x can grow without limit
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    res = solve_standard_form(np.array([-1.0, 0.0]), a, b)
    assert res.status == "unbounded"


def test_negative_rhs_is_normalized():
    # -x1 = -2 means x1 = 2
    a = np.array([[-1.0, 0.0]])
    b = np.array([-2.0])
    res = solve_standard_form(np.array([1.0, 0.0]), a, b)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, abs=1e-12)


def test_redundant_rows_are_dropped():
    # duplicate equality rows leave a leftover artificial variable
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 1.0, 0.0])
    res = solve_standard_form(np.array([1.0, 2.0]), a, b)
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.5, 0.5], abs=1e-9)


def test_degenerate_problem_is_deterministic():
    a = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 1.0, 1.0])
    first = solve_standard_form(c, a, b)
    second = solve_standard_form(c, a, b)
    assert first.status == second.status == "optimal"
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.basis, second.basis)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_standard_form(np.zeros(2), np.zeros((1, 3)), np.zeros(1))


def test_pivot_cap_raises_rather_than_lying():
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    with pytest.raises(SimplexError):
        solve_standard_form(np.array([-1.0, 0.0]), a, b, max_iter=0)
    with pytest.raises(SimplexError):
        solve_standard_form(np.array([-1.0, 0.0]), a, b, max_iter=0, dantzig=True)


def test_matches_bfs_enumeration_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        a_ub = rng.uniform(0.1, 2.0, size=(m, n))
        b_ub = rng.uniform(0.5, 3.0, size=m)
        c = rng.uniform(-2.0, 2.0, size=n)
        c_full, a, b = to_standard_with_slack(c, a_ub, b_ub)
        res = solve_standard_form(c_full, a, b)
        assert res.status == "optimal"  # box is bounded and nonempty
        best, _ = bfs_minimum(c_full, a, b)
        assert res.objective == pytest.approx(best, abs=1e-9)


def test_matches_scipy_on_random_instances_with_equalities():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 2.0, size=(m, n))
        x_feas = rng.uniform(0.0, 2.0, size=n)
        b = a @ x_feas  # feasible by construction
        c = rng.uniform(0.1, 2.0, size=n)  # positive costs keep it bounded
        res = solve_standard_form(c, a, b)
        ref = scipy_opt.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert res.status == "optimal" and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-8)
        assert np.max(np.abs(a @ res.x - b)) < 1e-8
        assert np.all(res.x >= -1e-12)


# ---------------------------------------------------------------------------
# Warm starts and the optimality certificate
# ---------------------------------------------------------------------------


def _random_feasible(rng, m, n):
    """min c@x, a@x = b, x >= 0 with a feasible point and generic positive c."""
    a = rng.uniform(-1.0, 2.0, size=(m, n))
    b = a @ rng.uniform(0.0, 2.0, size=n)
    c = rng.uniform(0.1, 2.0, size=n)  # positive costs keep it bounded
    return c, a, b


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    extra=st.integers(1, 4),
    keep_feasible=st.booleans(),
)
@example(seed=585, m=3, extra=4, keep_feasible=False)  # objective about 1.26e4
def test_warm_resolve_matches_cold(seed, m, extra, keep_feasible):
    """Change some rows of a and b, re-solve from the old optimal basis."""
    rng = np.random.default_rng(seed)
    n = m + extra
    c, a, b = _random_feasible(rng, m, n)
    first = solve_standard_form(c, a, b)
    assert first.status == "optimal"

    rows = rng.random(m) < 0.5
    rows[rng.integers(m)] = True
    a2, b2 = a.copy(), b.copy()
    a2[rows] = rng.uniform(-1.0, 2.0, size=(int(rows.sum()), n))
    if keep_feasible:
        b2 = a2 @ rng.uniform(0.0, 2.0, size=n)
    else:  # the changed rows may now admit no x >= 0
        b2[rows] = rng.uniform(-2.0, 2.0, size=int(rows.sum()))

    warm = solve_standard_form(c, a2, b2, basis=first.basis)
    cold = solve_standard_form(c, a2, b2)
    best, _ = bfs_minimum(c, a2, b2)
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        # the enumeration's own round-off grows with the objective
        assert warm.objective == pytest.approx(best, rel=1e-12, abs=1e-9)
        assert np.allclose(warm.x, cold.x, rtol=0.0, atol=1e-9)  # c is generic
    else:
        assert cold.status == "infeasible" and best is None


def test_warm_start_from_optimal_basis_needs_no_pivot():
    c, a, b = _random_feasible(np.random.default_rng(3), 3, 6)
    cold = solve_standard_form(c, a, b)
    warm = solve_standard_form(c, a, b, basis=cold.basis)
    assert not cold.warm and warm.warm
    assert cold.iterations > 0 and warm.iterations == 0
    assert np.allclose(warm.x, cold.x, rtol=0.0, atol=1e-12)
    assert np.array_equal(np.sort(warm.basis), np.sort(cold.basis))


def test_warm_start_detects_infeasibility():
    # x1 + x2 = 1, x1 - x2 = 0, then the first row moves to x1 + x2 = -1
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    first = solve_standard_form(np.array([1.0, 2.0]), a, np.array([1.0, 0.0]))
    assert first.status == "optimal"
    b2 = np.array([-1.0, 0.0])
    warm = solve_standard_form(np.array([1.0, 2.0]), a, b2, basis=first.basis)
    cold = solve_standard_form(np.array([1.0, 2.0]), a, b2)
    assert warm.status == cold.status == "infeasible"
    assert warm.warm and warm.x is None and warm.basis is None


@pytest.mark.parametrize(
    "basis",
    [
        [0, 1],  # columns 0 and 1 are parallel: singular
        [2],  # short, as a basis becomes after a redundant row is dropped
        [2, 2],  # repeated column
        [0, 7],  # no such column
        [2.5, 3.2],  # not integers: not truncated to [2, 3]
    ],
)
def test_unusable_basis_falls_back_to_cold(basis):
    """The solver, and the reference solver alike, ignore the basis and
    solve cold."""
    a = np.array([[1.0, 2.0, 1.0, 0.0], [2.0, 4.0, 0.0, 1.0]])
    b = np.array([3.0, 5.0])
    c = np.array([-1.0, -1.5, 0.0, 0.0])
    cold = solve_standard_form(c, a, b)
    res = solve_standard_form(c, a, b, basis=np.array(basis))
    assert not res.warm
    assert res.iterations == cold.iterations
    assert np.array_equal(res.x, cold.x) and np.array_equal(res.basis, cold.basis)
    _assert_same_answer(res, reference_solve(c, a, b, basis=np.array(basis)))


def test_short_basis_after_redundant_rows_restarts_cold():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 1.0, 0.0])
    first = solve_standard_form(np.array([1.0, 2.0]), a, b)
    assert first.basis.size == 2  # one redundant row was dropped
    again = solve_standard_form(np.array([1.0, 2.0]), a, b, basis=first.basis)
    assert not again.warm and np.array_equal(again.x, first.x)


def test_warm_answer_failing_its_certificate_is_solved_cold(monkeypatch):
    c, a, b = _random_feasible(np.random.default_rng(5), 3, 6)
    cold = solve_standard_form(c, a, b)
    a2 = a.copy()
    a2[0] += 0.3
    b2 = a2 @ np.full(6, 0.5)
    reference_warm = solve_standard_form(c, a2, b2, basis=cold.basis)
    reference_cold = solve_standard_form(c, a2, b2)
    assert reference_warm.warm

    real = simplex_module._certified
    calls = []

    def reject_first(*args):
        calls.append(1)
        return len(calls) > 1 and real(*args)

    monkeypatch.setattr(simplex_module, "_certified", reject_first)
    res = solve_standard_form(c, a2, b2, basis=cold.basis)
    assert len(calls) == 2  # the warm answer, then its cold replacement
    assert not res.warm
    assert np.array_equal(res.x, reference_cold.x)
    assert res.iterations == reference_warm.iterations + reference_cold.iterations


def test_cold_answer_failing_its_certificate_raises(monkeypatch):
    c, a, b = _random_feasible(np.random.default_rng(5), 3, 6)
    monkeypatch.setattr(simplex_module, "_certified", lambda *args: False)
    with pytest.raises(SimplexError, match="certificate"):
        solve_standard_form(c, a, b)


def test_certificate_rejects_a_wrong_vertex():
    # max x + 2y over x + y <= 1: the optimum is y = 1, the vertex x = 1 is not
    c, a, b = to_standard_with_slack(
        np.array([-1.0, -2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    )
    res = solve_standard_form(c, a, b)
    assert res.x == pytest.approx([0.0, 1.0, 0.0]) and res.warm is False
    assert simplex_module._certified(c, a, b, res, 1e-9)
    wrong = solve_standard_form(np.array([-2.0, -1.0, 0.0]), a, b)
    assert wrong.x == pytest.approx([1.0, 0.0, 0.0])
    assert not simplex_module._certified(c, a, b, wrong, 1e-9)  # dual infeasible
    res.x = res.x + 1e-3
    assert not simplex_module._certified(c, a, b, res, 1e-9)  # a @ x != b
    res.x = np.array([-0.5, 1.5, 0.0])
    assert not simplex_module._certified(c, a, b, res, 1e-9)  # x < 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "a", "b"])
def test_non_finite_data_is_rejected(where, bad):
    # NaN compares false, so b = [1, nan] would pass as "optimal" with a NaN x
    data = {
        "c": np.array([1.0, 1.0, 1.0]),
        "a": np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
        "b": np.array([1.0, 1.0]),
    }
    data[where].flat[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_standard_form(data["c"], data["a"], data["b"])


def test_certificate_fails_on_nan():
    c, a, b = to_standard_with_slack(
        np.array([-1.0, -2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    )
    res = solve_standard_form(c, a, b)
    assert simplex_module._certified(c, a, b, res, 1e-9)
    nan_b = np.array([np.nan])
    assert not simplex_module._certified(c, a, nan_b, res, 1e-9)  # residual
    nan_c = np.array([np.nan, -2.0, 0.0])
    assert not simplex_module._certified(nan_c, a, b, res, 1e-9)  # reduced costs
    res.x = np.array([np.nan, 1.0, 0.0])
    assert not simplex_module._certified(c, a, b, res, 1e-9)  # a @ x is NaN


# ---------------------------------------------------------------------------
# Warm re-solves that reuse an elimination
# ---------------------------------------------------------------------------


def _frozen(v):
    """A read-only copy that owns its data."""
    v = np.array(v, dtype=float)
    v.flags.writeable = False
    return v


def _assert_same_answer(got, want):
    assert got.status == want.status and got.warm == want.warm
    assert got.iterations == want.iterations
    if want.status == "optimal":
        assert got.x.tobytes() == want.x.tobytes()
        assert got.basis.tobytes() == want.basis.tobytes()
        assert got.objective == want.objective
    else:
        assert got.x is got.basis is None


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    extra=st.integers(1, 6),
    steps=st.lists(
        st.sampled_from(["b", "same", "far", "a", "infeasible", "writable"]),
        min_size=1,
        max_size=8,
    ),
)
@example(seed=7, m=4, extra=5, steps=["b", "same", "b", "infeasible", "b", "a", "b"])
def test_warm_resolves_equal_the_reference_without_reuse(seed, m, extra, steps):
    """A policy's sequence of re-solves, each warm from the last optimal
    answer and its elimination, gives the reference's x, basis, pivot
    count, warm flag and status bit for bit. Steps move b a little ("b"),
    not at all ("same"), to a far vertex ("far"), change rows of A ("a",
    a new array), make the LP infeasible, or hand over a writable A."""
    rng = np.random.default_rng(seed)
    n = m + extra
    c, a, b = _random_feasible(rng, m, n)
    a[0] = np.abs(a[0]) + 0.1  # b[0] < 0 is then infeasible
    c, a = _frozen(c), _frozen(a)
    point = rng.uniform(0.0, 2.0, size=n)
    basis = elimination = reference_basis = None
    for step in ["cold", *steps]:
        if step == "b":
            point = point * rng.uniform(0.999, 1.001, size=n)
        elif step == "far":
            point = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.5)
        elif step in ("a", "writable"):
            changed = np.array(a)
            rows = rng.random(m) < 0.5
            changed[rows] = rng.uniform(-1.0, 2.0, size=(int(rows.sum()), n))
            changed[0] = np.abs(changed[0]) + 0.1
            a = changed if step == "writable" else _frozen(changed)
        b = a @ point
        if step == "infeasible":
            b[0] = -1.0
        got = solve_standard_form(c, a, b, basis=basis, elimination=elimination)
        want = reference_solve(c, a, b, basis=reference_basis)
        _assert_same_answer(got, want)
        # a cold solve certifies once; a warm one may also fall back to cold
        assert got.eliminations <= (1 if basis is None else 3)
        if got.status == "optimal":
            basis, elimination = got.basis, got.elimination
            reference_basis = want.basis


def test_b_only_resolve_runs_no_elimination():
    """Scaling b keeps the optimal basis: the warm start reuses the cold
    answer's certificate elimination, and its certificate reuses that
    again, so the re-solve eliminates nothing and hands the same on."""
    c, a, b = _random_feasible(np.random.default_rng(3), 3, 6)
    c, a = _frozen(c), _frozen(a)
    cold = solve_standard_form(c, a, b)
    assert cold.eliminations == 1 and not cold.warm
    b2 = b * 1.001
    warm = solve_standard_form(
        c, a, b2, basis=cold.basis, elimination=cold.elimination
    )
    assert warm.warm and warm.iterations == 0 and warm.eliminations == 0
    assert warm.elimination is cold.elimination
    _assert_same_answer(warm, reference_solve(c, a, b2, basis=cold.basis))
    # without it the warm start eliminates, and the certificate reuses that
    # one, where the reference eliminates twice
    again = solve_standard_form(c, a, b2, basis=cold.basis)
    assert again.eliminations == 1
    _assert_same_answer(again, warm)


@pytest.mark.parametrize(
    "change, reused",
    [
        ("equal copy", True),
        ("other column of a", True),
        ("other cost", True),
        ("basis column of a", False),
        ("basis cost", False),
        ("tol", False),
        ("twin basis column", False),
    ],
)
def test_an_elimination_is_reused_exactly_when_what_it_read_is_equal(change, reused):
    """A warm start reuses the elimination of its basis when the basis,
    a[:, basis], c[basis] and tol are equal, whatever arrays hold them, and
    the answer is the one it gets without the elimination, which is the
    reference's."""
    c, a, b = _random_feasible(np.random.default_rng(5), 3, 6)
    first = solve_standard_form(c, a, b)
    c, a, basis, tol = c.copy(), a.copy(), first.basis.copy(), 1e-9
    inside = basis[0]
    outside = np.setdiff1d(np.arange(a.shape[1]), basis)[0]
    if change == "other column of a":
        a[:, outside] += 0.25
    elif change == "other cost":
        c[outside] += 0.25
    elif change == "basis column of a":
        a[0, inside] += 0.25
    elif change == "basis cost":
        c[inside] += 0.25
    elif change == "tol":
        tol = 1e-8
    elif change == "twin basis column":
        # an equal column at an equal cost: equal values, another basis
        c, a = np.append(c, c[inside]), np.column_stack([a, a[:, inside]])
        basis[0] = a.shape[1] - 1
    b2 = b * 1.001
    got = solve_standard_form(
        c, a, b2, tol=tol, basis=basis, elimination=first.elimination
    )
    fresh = solve_standard_form(c, a, b2, tol=tol, basis=basis)
    assert got.warm
    _assert_same_answer(got, fresh)
    _assert_same_answer(got, reference_solve(c, a, b2, tol=tol, basis=basis))
    assert got.eliminations == fresh.eliminations - (1 if reused else 0)


def test_a_pickled_elimination_is_reused_and_keeps_no_standard_form_alive():
    c, a, b = _random_feasible(np.random.default_rng(5), 3, 6)
    res = solve_standard_form(c, a, b)
    copied = pickle.loads(pickle.dumps(res))  # as a policy is, to a process
    b2 = b * 1.001
    warm = solve_standard_form(
        c, a, b2, basis=copied.basis, elimination=copied.elimination
    )
    assert warm.warm and warm.eliminations == 0
    _assert_same_answer(warm, reference_solve(c, a, b2, basis=res.basis))
    refs = weakref.ref(a), weakref.ref(c)
    del a, c
    assert all(ref() is None for ref in refs)
    assert res.elimination is not None and copied.elimination is not None


# ---------------------------------------------------------------------------
# Row-restricted pivots and the vectorized ratio test
# ---------------------------------------------------------------------------


def _sparse(rng, shape, density):
    """Small integers and halves (so exact cancellations happen), mostly zero,
    with some zeros negative."""
    values = rng.integers(-4, 5, size=shape) / rng.choice([1.0, 2.0], size=shape)
    values[rng.random(shape) >= density] = 0.0
    values[rng.random(shape) < 0.1] *= -1.0  # turns some zeros into -0.0
    return values


def _path(tableau, row, col):
    """The update ``_pivot`` takes, by the ROW_COST and SPARSE_COST rules:
    "dense" (one outer product), "rows" (the row loop) or "block"."""
    if np.count_nonzero(tableau[:, col]) * simplex_module.ROW_COST >= tableau.size:
        return "dense"
    width = tableau.shape[1]
    nonzeros = np.count_nonzero(tableau[row] / tableau[row, col])
    if width > simplex_module.ROW_COST and nonzeros * simplex_module.SPARSE_COST < width:
        return "block"
    return "rows"


def _path_bits(tableau, row, col, path):
    """The tableau ``path``'s update leaves, bit for bit: every entry of the
    touched rows ("rows"), or of the touched rows x the pivot row's nonzero
    columns ("block", and "dense", whose einsum subtracts +0.0 for every
    zero product, which leaves an entry's bits as if it were skipped)."""
    out = tableau.copy()
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cols = np.arange(tableau.shape[1])
    if path != "rows":
        cols = np.flatnonzero(tableau[row])
    restricted_pivot(out, row, col, rows, cols)
    return out


def _pivot_row(rng, width, col, nonzeros):
    """``nonzeros`` small nonzero values, one of them at ``col``; some of the
    zeros are -0.0."""
    row = np.where(rng.random(width) < 0.3, -0.0, 0.0)
    others = rng.choice(np.delete(np.arange(width), col), nonzeros - 1, replace=False)
    row[others] = rng.choice([-4.0, -1.5, -0.5, 0.25, 1.0, 3.0], size=nonzeros - 1)
    row[col] = rng.choice([-2.0, -0.5, 0.5, 1.0, 3.0])
    return row


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["dense", "rows", "narrow rows", "block"]),
    density=st.sampled_from([0.02, 0.1, 0.3, 1.0]),
    lone=st.booleans(),
    edge=st.booleans(),
)
@example(seed=1, shape="block", density=0.3, lone=False, edge=True)
@example(seed=1, shape="rows", density=0.3, lone=False, edge=True)
@example(seed=1, shape="narrow rows", density=0.3, lone=False, edge=False)
@example(seed=2, shape="block", density=0.1, lone=True, edge=False)
def test_pivot_equals_the_dense_update(seed, shape, density, lone, edge):
    """All three updates give the outer-product update's values, and the
    zero signs each path leaves show which one ran: the row loop subtracts
    every product of a touched row, zeros with their own sign, while the
    dense and block updates change only entries whose product is nonzero.

    A tableau with at most ROW_COST entries takes the dense update however
    few rows the pivot touches. One whose touched rows cost less takes the
    row loop when it has at most ROW_COST columns ("narrow rows", here with
    at most four touched rows) or when its pivot row has at least
    width / SPARSE_COST nonzeros, and the block update when a wider one has
    fewer. With ``edge`` a wide tableau's width is a multiple of SPARSE_COST
    and its pivot row's count sits just on or below that crossover. With
    ``lone`` the pivot row is the only nonzero of the pivot column.
    """
    rng = np.random.default_rng(seed)
    if shape == "dense":
        n_rows = int(rng.integers(2, 40))
        n_cols = int(rng.integers(2, simplex_module.ROW_COST // n_rows + 1))
    elif shape == "narrow rows":
        n_rows = int(rng.integers(20, 40))
        n_cols = int(rng.integers(1100, simplex_module.ROW_COST + 1))
    else:
        n_rows = int(rng.integers(2, 13))
        n_cols = int(rng.integers(simplex_module.ROW_COST + 1, 2600))
        if edge:  # width / SPARSE_COST is whole, so "rows" can sit exactly on it
            n_cols += -n_cols % simplex_module.SPARSE_COST
    tableau = _sparse(rng, (n_rows, n_cols), density)
    row, col = int(rng.integers(n_rows)), int(rng.integers(n_cols))
    crossover = -(-n_cols // simplex_module.SPARSE_COST)  # the fewest "rows" nonzeros
    if shape == "rows":
        nonzeros = crossover if edge else int(rng.integers(crossover, n_cols))
        tableau[row] = _pivot_row(rng, n_cols, col, nonzeros)
    elif shape != "dense":
        nonzeros = crossover - 1 if edge else int(rng.integers(1, crossover))
        tableau[row] = _pivot_row(rng, n_cols, col, nonzeros)
    else:
        tableau[row, col] = rng.choice([-2.0, -0.5, 0.5, 1.0, 3.0])
    if shape == "narrow rows":
        tableau[rng.permutation(n_rows) >= 3, col] = 0.0
        tableau[row, col] = 1.0
    if lone:
        tableau[np.arange(n_rows) != row, col] = 0.0
    path = shape.split()[-1]
    assert _path(tableau, row, col) == path

    expected = tableau.copy()
    dense_pivot(expected, row, col)
    bits = _path_bits(tableau, row, col, path)
    simplex_module._pivot(tableau, row, col)
    assert np.array_equal(tableau, expected)
    assert tableau.tobytes() == bits.tobytes()


def test_einsum_outer_is_the_outer_product_plus_zero():
    """The dense and block updates' kernel: np.einsum("i,j->ij") gives
    np.outer's bits except that every zero product is +0.0."""
    rng = np.random.default_rng(11)
    f, p = _sparse(rng, 45, 0.5), _sparse(rng, 620, 0.5)
    product = np.einsum("i,j->ij", f, p)
    assert product.tobytes() == (np.outer(f, p) + 0.0).tobytes()
    assert np.signbit(np.outer(f, p)[product == 0]).any()
    assert not np.signbit(product[product == 0]).any()


def test_block_pivot_writes_only_its_block():
    """Outside touched rows x the pivot row's nonzero columns, a block pivot
    leaves every entry's bits alone, -0.0 included, except that it scales
    the pivot row and makes the pivot column exactly canonical."""
    rng = np.random.default_rng(23)
    n_rows, n_cols = 12, 2600
    tableau = _sparse(rng, (n_rows, n_cols), 0.3)
    row, col = 5, 310
    tableau[row] = _pivot_row(rng, n_cols, col, 40)
    assert _path(tableau, row, col) == "block"
    before = tableau.copy()
    touched = np.flatnonzero(before[:, col])
    touched = touched[touched != row]
    assert 0 < touched.size < n_rows - 1

    simplex_module._pivot(tableau, row, col)
    outside = np.ones(tableau.shape, dtype=bool)
    outside[np.ix_(touched, np.flatnonzero(before[row]))] = False
    outside[row] = outside[:, col] = False
    assert outside.sum() > 0.9 * tableau.size
    assert tableau[outside].tobytes() == before[outside].tobytes()
    assert tableau[row].tobytes() == (before[row] / before[row, col]).tobytes()
    canonical = np.zeros(n_rows)
    canonical[row] = 1.0
    assert tableau[:, col].tobytes() == canonical.tobytes()


def _wide_sparse_lp(m=30, n=3000, density=0.05):
    rng = np.random.default_rng(2)
    a = _sparse(rng, (m, n), density)
    a[rng.integers(m, size=n), np.arange(n)] = rng.uniform(0.5, 2.0, size=n)
    x_feasible = np.where(rng.random(n) < 0.02, rng.uniform(0.0, 2.0, size=n), 0.0)
    return rng.uniform(0.1, 2.0, size=n), a, a @ x_feasible


def test_wide_sparse_lp_solves_as_with_the_dense_pivot(monkeypatch):
    """30 rows and 3,000 columns: every phase tableau is wide, and even 31
    touched rows cost less than its 31 x 3,001 entries, so each pivot takes
    the block update while its row is sparse (about 160 of 3,000 entries at
    first) and the row loop once it fills."""
    c, a, b = _wide_sparse_lp(density=0.02)
    assert simplex_module.ROW_COST < a.shape[1]

    real, paths = simplex_module._pivot, []

    def counted(tableau, row, col):
        paths.append(_path(tableau, row, col))
        real(tableau, row, col)

    monkeypatch.setattr(simplex_module, "_pivot", counted)
    sparse = solve_standard_form(c, a, b)
    assert paths.count("block") >= 1 and paths.count("rows") >= 1
    monkeypatch.setattr(simplex_module, "_pivot", dense_pivot)
    dense = solve_standard_form(c, a, b)
    assert sparse.status == dense.status == "optimal"
    assert sparse.iterations == dense.iterations > 100
    assert sparse.x.tobytes() == dense.x.tobytes()
    assert np.array_equal(sparse.basis, dense.basis)
    assert sparse.objective == dense.objective


def test_phase_two_allocates_no_second_tableau():
    """Phase 2 packs its rows into the phase-1 buffer, so a cold solve of a
    wide LP peaks near one tableau, not the two a phase-2 copy would need."""
    c, a, b = _wide_sparse_lp()
    m, n = a.shape
    tableau_bytes = (m + 1) * (n + m + 1) * 8
    tracemalloc.start()
    try:
        res = solve_standard_form(c, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "optimal"
    assert peak < 1.5 * tableau_bytes


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 12),
)
def test_leaving_matches_the_row_loop(seed, n_rows):
    """Columns and right-hand sides from a few values, so ratios tie exactly."""
    rng = np.random.default_rng(seed)
    tableau = np.zeros((n_rows + 1, 3))
    tableau[:-1, 0] = rng.choice([0.0, -1.0, 1e-12, 0.5, 1.0, 2.0, 4.0], size=n_rows)
    tableau[:-1, -1] = rng.choice([0.0, 1.0, 2.0, 4.0], size=n_rows)
    basis = rng.permutation(3 * n_rows)[:n_rows]
    assert simplex_module._leaving(tableau, 0, basis, 1e-9) == loop_leaving(
        tableau, 0, basis, 1e-9
    )


# ---------------------------------------------------------------------------
# Dantzig's rule with Bland's on a stall
# ---------------------------------------------------------------------------


def test_dantzig_ends_on_beales_cycling_lp(monkeypatch):
    """Beale's (1955) LP, whose slack basis x1..x3 Dantzig's rule cycles from."""
    a = np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -60.0, -1 / 25, 9.0],
            [0.0, 1.0, 0.0, 0.5, -90.0, -1 / 50, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -1 / 50, 6.0])
    slack = np.arange(3)
    res = solve_standard_form(c, a, b, basis=slack, dantzig=True)
    assert res.status == "optimal" and res.warm
    assert res.objective == pytest.approx(-1 / 20, abs=1e-12)
    assert res.x == pytest.approx([0.03, 0.0, 0.0, 0.04, 0.0, 1.0, 0.0], abs=1e-12)
    assert simplex_module._certified(c, a, b, res, 1e-9)
    bland = solve_standard_form(c, a, b, basis=slack)
    assert bland.iterations < res.iterations  # the stall cost the rule pivots

    # without the fallback the rule cycles until the iteration cap
    monkeypatch.setattr(simplex_module, "STALL", 10**9)
    with pytest.raises(SimplexError, match="pivot limit"):
        solve_standard_form(c, a, b, basis=slack, max_iter=500, dantzig=True)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    extra=st.integers(1, 8),
    keep_feasible=st.booleans(),
)
def test_both_rules_give_one_answer_for_a_generic_cost(seed, m, extra, keep_feasible):
    """Warm and cold, Bland's and Dantzig's rule end at the same vertex."""
    rng = np.random.default_rng(seed)
    n = m + extra
    c, a, b = _random_feasible(rng, m, n)
    first = solve_standard_form(c, a, b)
    a2 = a.copy()
    rows = rng.random(m) < 0.5
    a2[rows] = rng.uniform(-1.0, 2.0, size=(int(rows.sum()), n))
    if keep_feasible:
        b2 = a2 @ rng.uniform(0.0, 2.0, size=n)
    else:  # the changed rows may now admit no x >= 0
        b2 = b.copy()
        b2[rows] = rng.uniform(-2.0, 2.0, size=int(rows.sum()))

    want = solve_standard_form(c, a2, b2)
    for basis in (None, first.basis):
        for dantzig in (False, True):
            got = solve_standard_form(c, a2, b2, basis=basis, dantzig=dantzig)
            assert got.status == want.status
            if want.status == "optimal":
                assert got.objective == pytest.approx(want.objective, abs=1e-9)
                assert np.allclose(got.x, want.x, rtol=0.0, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    n=st.integers(2, 8),
    warm=st.booleans(),
    stall=st.sampled_from([1, 2, simplex_module.STALL]),
)
def test_dantzig_ends_on_degenerate_lps(seed, m, n, warm, stall):
    """Small-integer data with most right-hand sides 0 and one row bounding
    x: ties in ratios and reduced costs, degenerate vertices at the origin.
    The slack basis is a warm start there. So few rows seldom stall for
    ``STALL`` pivots, so shorter stalls hand over to Bland's rule too."""
    rng = np.random.default_rng(seed)
    a_ub = rng.integers(-3, 4, size=(m, n)).astype(float)
    a_ub[-1] = rng.integers(1, 3, size=n)
    b_ub = np.zeros(m)
    b_ub[-1] = 1.0
    cost = rng.integers(-3, 3, size=n).astype(float)
    c, a, b = to_standard_with_slack(cost, a_ub, b_ub)
    basis = n + np.arange(m) if warm else None
    with mock.patch.object(simplex_module, "STALL", stall):
        res = solve_standard_form(c, a, b, basis=basis, dantzig=True)
    bland = solve_standard_form(c, a, b, basis=basis)
    assert res.status == bland.status == "optimal"
    assert simplex_module._certified(c, a, b, res, 1e-9)
    assert res.objective == pytest.approx(bland.objective, abs=1e-9)
