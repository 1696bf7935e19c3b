"""Property tests of exact `lp` pruning on random vector sets with ties."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracle
import active_smoothing.solver as solver_module
from active_smoothing import prune

MAX_VECTORS = 300
PRUNE_TOL = 1e-9  # how close a near-copy is, and how far above the envelope a kept row may lie
# per-column offsets of up to 1e8, uneven across columns: adding them leaves the facets
# as they are, but next to 1e8 an entry keeps only about 8 of its 16 digits
COLUMN_OFFSETS = np.array([1e8, 0.0, 3e5, 1e8, 700.0, 2e6])


@st.composite
def vector_sets(draw, small=False):
    """1-300 vectors in N = 2-6 with duplicated rows, face ties and near-copies.

    With `small`, at most 2(N+1) vectors in all: the sets `prune` first tries to
    decide by its pointwise proof.

    The base rows are normal draws, entropy tangents at clustered beliefs
    (every one essential, most winning only on small regions), small integers
    (many exact ties), or, with `small`, normal draws of which the later half
    is planted above mixtures of two rows of the earlier half, by gaps from 0
    to far above the proof's margin. Copies are then appended of random base rows: exact
    duplicates, rows equal to the original in some components and larger or
    different in the rest, and rows within PRUNE_TOL of the original.
    """
    n = draw(st.integers(2, 6), label="n")
    limit = 2 * (n + 1) if small else MAX_VECTORS
    size = draw(st.integers(1, limit), label="base rows")
    kinds = ["normal", "tangents", "integers"] + (["mixtures"] if small else [])
    kind = draw(st.sampled_from(kinds), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind in ("normal", "mixtures"):
        values = rng.normal(size=(size, n))
    elif kind == "tangents":
        values = -np.log(rng.dirichlet(np.full(n, 400.0), size=size))
    else:
        values = rng.integers(0, 4, size=(size, n)).astype(float)
    if kind == "mixtures":
        half = (size + 1) // 2
        a, b = rng.integers(half, size=(2, size - half))
        lam = rng.random((size - half, 1))
        gap = rng.choice([0.0, 1e-12, 1e-9, 1e-8, 1e-6, 1e-3], size=(size - half, 1))
        values[half:] = (lam * values[a] + (1.0 - lam) * values[b]
                         + gap * (1.0 + rng.random((size - half, n))))

    room = limit - size if small else (MAX_VECTORS - size) // 3
    copies = [values]
    for copy_kind in ("duplicates", "face ties", "near-copies"):
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
    return values[rng.permutation(len(values))[:limit]]


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


@given(values=vector_sets(), seed=st.integers(0, 2**32 - 1))
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


def _qhull_alone(values):
    """`prune`'s kept indices with the pointwise proof turned off: every set goes to Qhull."""
    with mock.patch.object(solver_module, "_proved_kept", lambda shifted: None):
        return prune(values)


@given(values=vector_sets(small=True))
def test_pointwise_proof_keeps_what_qhull_alone_keeps(values):
    # on the rows as given, and next to 1e8, where the margin of a raw-row comparison
    # would fall below the float spacing
    for rows in (values, values + COLUMN_OFFSETS[:values.shape[1]]):
        np.testing.assert_array_equal(prune(rows), _qhull_alone(rows))


# A sliver from `solve --horizon 6 --objective costs-only --base-points 1`: both rows
# are least on a region of the simplex, the first only on one 2^-52 thin, and Qhull
# keeps the second alone. A pair one ulp apart in one entry. And two degenerate sets
# in which a row lies above another in some entries and equals it in the rest, which
# Qhull settles against the exact rule: in the first it keeps the upper row of such a
# pair and drops the lower, in the second it keeps both.
SLIVER = np.array([[1.0, 1.0, 1.0, 0.0], [1.0 + 2.0**-52, 1.0 + 2.0**-52, 0.2, 0.0]])
ULP_PAIR = np.array([[1.0, 2.0, 3.0], [np.nextafter(1.0, 2.0), 2.0, 3.0]])
UPPER_OF_A_FACE_TIE = np.array([
    [1.0, 2.0000000213443756, 2.0, 1.0],
    [1.0000000112590095, 0.0, 2.0, 1.000000008965766],
    [0.999999032042892, 2.0, 2.0, 1.0000055196198645],
    [1.0, 2.0, 2.0, 1.0]])
BOTH_OF_A_FACE_TIE = np.array([
    [2.0, 1.0, 2.0, 1.0],
    [2.0000079802885984, 1.0, 2.0, 1.0],
    [1.9999999999982976, 2.0, 2.0000000000011964, 0.0],
    [2.0, 1.0000191048364901, 2.0, 1.0]])


@pytest.mark.parametrize("values, kept", [
    (SLIVER, [1]), (ULP_PAIR, [0]), (UPPER_OF_A_FACE_TIE, [0, 1, 2]),
    (BOTH_OF_A_FACE_TIE, [0, 2, 3]),
], ids=["sliver", "ulp-pair", "upper-of-a-face-tie", "both-of-a-face-tie"])
def test_sets_the_pointwise_proof_cannot_settle_reach_qhull(values, kept):
    shifted = values - values.min(axis=0)
    assert solver_module._proved_kept(shifted) is None
    np.testing.assert_array_equal(prune(values), kept)
    # with column offsets of up to 1e8, whatever decides them keeps what Qhull keeps,
    # in either row order
    offset = values + COLUMN_OFFSETS[:values.shape[1]]
    for rows in (offset, offset[::-1]):
        np.testing.assert_array_equal(prune(rows), _qhull_alone(rows))
