"""Property tests of exact `lp` pruning on random vector sets with ties."""
from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as oracle
from active_smoothing import prune

MAX_VECTORS = 300
PRUNE_TOL = 1e-9  # how close a near-copy is, and how far above the envelope a kept row may lie
# per-column offsets of up to 1e8, uneven across columns: adding them leaves the facets
# as they are, but next to 1e8 an entry keeps only about 8 of its 16 digits
COLUMN_OFFSETS = np.array([1e8, 0.0, 3e5, 1e8, 700.0, 2e6])


@st.composite
def vector_sets(draw, near_copies=True):
    """1-300 vectors in N = 2-6 with duplicated rows, face ties and near-copies.

    The base rows are normal draws, entropy tangents at clustered beliefs
    (every one essential, most winning only on small regions), or small integers
    (many exact ties). Copies are then appended of random base rows: exact
    duplicates, rows equal to the original in some components and larger or
    different in the rest, and rows within PRUNE_TOL of the original (unless
    `near_copies` is false).
    """
    n = draw(st.integers(2, 6), label="n")
    size = draw(st.integers(1, MAX_VECTORS), label="base rows")
    kind = draw(st.sampled_from(["normal", "tangents", "integers"]), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "normal":
        values = rng.normal(size=(size, n))
    elif kind == "tangents":
        values = -np.log(rng.dirichlet(np.full(n, 400.0), size=size))
    else:
        values = rng.integers(0, 4, size=(size, n)).astype(float)

    room = (MAX_VECTORS - size) // 3
    copies = [values]
    kinds = ("duplicates", "face ties") + (("near-copies",) if near_copies else ())
    for copy_kind in kinds:
        count = draw(st.integers(0, min(size, room)), label=copy_kind)
        rows = values[rng.integers(size, size=count)].copy()
        if copy_kind == "face ties":
            changed = rng.random((count, n)) < 0.5
            shift = rng.exponential(size=(count, n))
            if draw(st.booleans(), label="two-sided face ties"):
                shift *= rng.choice([-1.0, 1.0], size=(count, n))
            rows += np.where(changed, shift, 0.0)
        elif copy_kind == "near-copies":
            rows += rng.uniform(-PRUNE_TOL, PRUNE_TOL, size=(count, n))
        copies.append(rows)
    values = np.vstack(copies)
    return values[rng.permutation(len(values))]


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(values=vector_sets())
def test_prune_lp_is_exact(values):
    kept = prune(values)
    n = values.shape[1]

    # the kept envelope is the full minimum on the simplex vertices and inside
    rng = np.random.default_rng(len(values))
    beliefs = np.vstack([np.eye(n), rng.dirichlet(np.ones(n), size=2000)])
    np.testing.assert_allclose((values[kept] @ beliefs.T).min(axis=0),
                               (values @ beliefs.T).min(axis=0), atol=1e-8)

    # every vector that is strictly below all others somewhere is kept
    assert set(oracle.essential_indices(values)) <= set(kept.tolist())

    # no kept vector lies strictly above the envelope of the other kept vectors
    if len(kept) > 1:
        for i in kept:
            others = values[kept[kept != i]]
            assert oracle.witness_margin(values[i], others) >= -PRUNE_TOL


def _row_set(values, kept):
    return {tuple(row) for row in values[kept].tolist()}


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(values=vector_sets(near_copies=False), seed=st.integers(0, 2**32 - 1))
def test_prune_keeps_the_same_rows_in_any_order(values, seed):
    offset = COLUMN_OFFSETS[:values.shape[1]]
    values = values + offset - offset  # rounded to the offsets' grid, so adding them is exact
    assert np.array_equal(values + offset - offset, values)
    kept = prune(values)
    # adding a fixed row adds a linear function of the belief: the same facets
    np.testing.assert_array_equal(prune(values + offset), kept)
    rows = _row_set(values, kept)
    for order in (np.arange(len(values))[::-1],
                  np.random.default_rng(seed).permutation(len(values))):
        assert _row_set(values[order], prune(values[order])) == rows
