from __future__ import annotations

import numpy as np
import pytest

from active_smoothing import (
    build_grid_agent,
    fingerprint,
    load_model,
    make_cost_model,
    make_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate_costs,
    validate_model,
)

GRID_PAIR_FINGERPRINT = "198051616f85c2f21486e1c6bd69743e9d4c1d9998bebd80e3e3f0574f083cc8"


def test_grid_agent_shapes_and_values(grid):
    model, costs = grid
    assert (model.n_states, model.n_controls, model.n_observations) == (4, 3, 2)
    assert costs.horizon == 3
    np.testing.assert_allclose(model.prior, 0.25)
    np.testing.assert_allclose(model.transition[1], np.eye(4))
    # east: column j moves mass 0.8 to j+1, last column absorbing
    east = model.transition[2]
    np.testing.assert_allclose(east[:, 3], [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(east[1, 0], 0.8)
    np.testing.assert_allclose(east[0, 0], 0.2)
    # west mirrors east
    np.testing.assert_allclose(model.transition[0], east[::-1, ::-1])
    for u in range(3):
        np.testing.assert_allclose(model.observation[u][0], [0.8, 0.2])
        np.testing.assert_allclose(model.observation[u][1], [0.8, 0.2])
        np.testing.assert_allclose(model.observation[u][2], [0.2, 0.8])
        np.testing.assert_allclose(model.observation[u][3], [0.2, 0.8])
    np.testing.assert_allclose(model.initial_observation, model.observation[0])
    np.testing.assert_allclose(costs.stage_cost, 0.0)
    np.testing.assert_allclose(costs.terminal_cost, [1.0, 1.0, 1.0, 0.0])


def test_grid_agent_validates_clean(grid):
    model, costs = grid
    assert validate_model(model) == []
    assert validate_costs(costs, model) == []


def test_make_model_broadcasts_observation_and_defaults_initial():
    prior = [0.5, 0.5]
    transition = [np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]
    obs = [[0.9, 0.1], [0.3, 0.7]]
    model = make_model(prior, transition, obs)
    assert model.observation.shape == (2, 2, 2)
    np.testing.assert_allclose(model.observation[0], model.observation[1])
    np.testing.assert_allclose(model.initial_observation, model.observation[0])


def test_model_arrays_are_read_only(grid):
    model, costs = grid
    for a in (model.prior, model.transition, model.observation,
              model.initial_observation, costs.stage_cost, costs.terminal_cost):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.5


def test_validate_model_reports_violations():
    bad_prior = make_model([0.7, 0.4], [np.eye(2)], [[0.5, 0.5], [0.5, 0.5]])
    msgs = validate_model(bad_prior)
    assert any("prior" in m for m in msgs)

    bad_col = make_model([0.5, 0.5], [[[0.9, 0.0], [0.0, 1.0]]],
                         [[0.5, 0.5], [0.5, 0.5]])
    msgs = validate_model(bad_col)
    assert any("column" in m and "residual" in m for m in msgs)

    bad_row = make_model([0.5, 0.5], [np.eye(2)], [[0.5, 0.4], [0.5, 0.5]])
    msgs = validate_model(bad_row)
    assert any("row" in m for m in msgs)

    neg = make_model([0.5, 0.5], [[[1.2, 0.0], [-0.2, 1.0]]],
                     [[0.5, 0.5], [0.5, 0.5]])
    assert any("outside [0, 1]" in m for m in validate_model(neg))


@pytest.mark.parametrize("where", ["prior", "transition", "observation", "initial_observation"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validate_model_flags_non_finite_entries(where, bad):
    arrays = {"prior": np.array([0.5, 0.5]), "transition": np.array([np.eye(2)]),
              "observation": np.full((1, 2, 2), 0.5),
              "initial_observation": np.full((2, 2), 0.5)}
    arrays[where][(0,) * arrays[where].ndim] = bad
    msgs = validate_model(make_model(**arrays))
    assert any(m.startswith(where + "[0]") and "not finite" in m for m in msgs)


@pytest.mark.parametrize("field", ["stage_cost", "terminal_cost"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validate_costs_flags_non_finite_entries(grid, field, bad):
    model, _ = grid
    tables = {"stage_cost": np.zeros((2, 4, 3)), "terminal_cost": np.zeros(4)}
    tables[field][(0,) * tables[field].ndim] = bad
    costs = make_cost_model(2, tables["stage_cost"], tables["terminal_cost"])
    assert any(field in m and "finite" in m for m in validate_costs(costs, model))


def test_validate_model_messages_use_plain_floats():
    bad = make_model([0.5, 0.5], [[[0.9, 0.0], [0.0, 1.0]]],
                     [[0.5, 0.5], [0.5, 0.5]])
    for msg in validate_model(bad):
        assert "np.float64" not in msg


def test_validate_costs_shapes_and_signs(grid):
    model, _ = grid
    wrong_shape = make_cost_model(2, np.zeros((2, 4, 3)), np.zeros(3))
    assert any("terminal_cost" in m for m in validate_costs(wrong_shape, model))

    negative = make_cost_model(2, np.full((4, 3), -1.0), np.zeros(4))
    assert any("nonnegative" in m for m in validate_costs(negative, model))

    zero_horizon = make_cost_model(0, np.zeros((4, 3)), np.zeros(4))
    assert validate_costs(zero_horizon, model) == []

    negative_horizon = make_cost_model(-1, np.zeros((0, 4, 3)), np.zeros(4))
    assert any("horizon" in m for m in validate_costs(negative_horizon, model))


def test_fingerprint_is_frozen_and_sensitive(grid):
    model, costs = grid
    assert fingerprint(model, costs) == GRID_PAIR_FINGERPRINT
    assert fingerprint(model, costs) == fingerprint(*build_grid_agent())
    assert fingerprint(model) != fingerprint(model, costs)

    other = make_model(model.prior, model.transition,
                       model.observation, model.initial_observation)
    assert fingerprint(other, costs) == GRID_PAIR_FINGERPRINT

    perturbed = np.array(model.prior)
    perturbed[0] += 1e-9
    perturbed[1] -= 1e-9
    changed = make_model(perturbed, model.transition, model.observation,
                         model.initial_observation)
    assert fingerprint(changed, costs) != GRID_PAIR_FINGERPRINT


def test_dict_round_trip_preserves_fingerprint(grid):
    model, costs = grid
    m2, c2 = model_from_dict(model_to_dict(model, costs))
    assert fingerprint(m2, c2) == fingerprint(model, costs)
    np.testing.assert_array_equal(m2.transition, model.transition)
    np.testing.assert_array_equal(c2.stage_cost, costs.stage_cost)


def test_save_load_round_trip(tmp_path, grid):
    model, costs = grid
    path = tmp_path / "model.json"
    save_model(path, model, costs)
    m2, c2 = load_model(path)
    assert fingerprint(m2, c2) == GRID_PAIR_FINGERPRINT
    # saving again is byte-identical
    again = tmp_path / "model2.json"
    save_model(again, m2, c2)
    assert path.read_bytes() == again.read_bytes()


def test_dict_accepts_stage_independent_costs(grid):
    model, costs = grid
    d = model_to_dict(model, costs)
    d["stage_cost"] = [[0.0, 0.0, 0.0]] * 4
    m2, c2 = model_from_dict(d)
    assert c2.stage_cost.shape == (3, 4, 3)
    np.testing.assert_allclose(c2.stage_cost, 0.0)


def test_make_cost_model_broadcasts_two_dimensional():
    cm = make_cost_model(5, np.ones((3, 2)), np.zeros(3))
    assert cm.stage_cost.shape == (5, 3, 2)
    np.testing.assert_allclose(cm.stage_cost, 1.0)
