from __future__ import annotations

import itertools

import numpy as np

from active_smoothing import make_cost_model, make_model

# Reference implementations for the tests, kept deliberately independent of
# the package internals: plain loops and direct probability bookkeeping.


def entropy(p, scale: float = 1.0) -> float:
    total = 0.0
    for v in np.asarray(p, dtype=float):
        if v > 0.0:
            total -= v * np.log(v)
    return total / scale


def initial_filter(model, y: int) -> np.ndarray:
    w = model.initial_observation[:, y] * model.prior
    return w / w.sum()


def filter_step(model, belief, u: int, y: int) -> np.ndarray:
    pred = model.transition[u] @ belief
    w = model.observation[u][:, y] * pred
    return w / w.sum()


def obs_prob(model, belief, u: int, y: int) -> float:
    pred = model.transition[u] @ belief
    return float(model.observation[u][:, y] @ pred)


def y_sequences(n_obs: int, length: int):
    return itertools.product(range(n_obs), repeat=length)


def stage_conditional_entropy(model, belief, u: int, scale: float = 1.0) -> float:
    """H(X_k | X_{k+1}) under the joint A(u)[i, j] * belief[j]."""
    joint = model.transition[u] * np.asarray(belief, dtype=float)[None, :]
    total = 0.0
    for i in range(model.n_states):
        row = joint[i]
        s = row.sum()
        for v in row:
            if v > 0.0:
                total -= v * np.log(v / s)
    return total / scale


def next_belief_entropy(model, belief, u: int, scale: float = 1.0) -> float:
    """E over y of the entropy of the filter update: H(X_{k+1} | Y_{k+1})."""
    total = 0.0
    for y in range(model.n_observations):
        q = obs_prob(model, belief, u, y)
        if q > 0.0:
            total += q * entropy(filter_step(model, belief, u, y), scale)
    return total


def state_paths(model, ys, us):
    """(state trajectories, their joint probabilities p(x^T, y^T) under controls us)."""
    t = len(us)
    assert len(ys) == t + 1
    paths = list(itertools.product(range(model.n_states), repeat=t + 1))
    probs = []
    for xs in paths:
        p = model.prior[xs[0]] * model.initial_observation[xs[0], ys[0]]
        for k in range(t):
            p *= model.transition[us[k]][xs[k + 1], xs[k]]
            p *= model.observation[us[k]][xs[k + 1], ys[k + 1]]
        probs.append(p)
    return paths, np.asarray(probs)


def trajectory_entropy(model, ys, us, scale: float = 1.0):
    """(H(X^T | y^T, u^{T-1}), p(y^T)) by enumerating every state trajectory."""
    _, probs = state_paths(model, ys, us)
    total = probs.sum()
    if total <= 0.0:
        return 0.0, 0.0
    return entropy(probs / total, scale), float(total)


def policy_metrics(model, costs, rule, scale: float = 1.0):
    """Expected (terminal cost, belief-entropy sum, smoother entropy, stage-cost sum)
    under a deterministic belief-feedback rule, by full observation-tree enumeration."""
    t = costs.horizon
    term = tbe = smoother = stage = 0.0
    for ys in y_sequences(model.n_observations, t + 1):
        p = float(model.initial_observation[:, ys[0]] @ model.prior)
        if p <= 0.0:
            continue
        b = initial_filter(model, ys[0])
        bent = entropy(b, scale)
        sc = 0.0
        us = []
        for k in range(t):
            u = rule(b, k)
            us.append(u)
            sc += float(b @ costs.stage_cost[k][:, u])
            q = obs_prob(model, b, u, ys[k + 1])
            if q <= 0.0:
                p = 0.0
                break
            p *= q
            b = filter_step(model, b, u, ys[k + 1])
            bent += entropy(b, scale)
        if p <= 0.0:
            continue
        h, _ = trajectory_entropy(model, ys, us, scale)
        term += p * float(b @ costs.terminal_cost)
        tbe += p * bent
        smoother += p * h
        stage += p * sc
    return term, tbe, smoother, stage


def per_run_moments(model, costs, rule, scale: float = 1.0):
    """Mean and variance of one run's (terminal cost, belief-entropy sum, smoother
    entropy, total cost) under a deterministic belief-feedback rule, by
    enumerating every observation path and every state path."""
    t = costs.horizon
    values, weights = [], []
    for ys in y_sequences(model.n_observations, t + 1):
        if float(model.initial_observation[:, ys[0]] @ model.prior) <= 0.0:
            continue
        b = initial_filter(model, ys[0])
        bent = entropy(b, scale)
        us = []
        for k in range(t):
            us.append(rule(b, k))
            if obs_prob(model, b, us[k], ys[k + 1]) <= 0.0:
                break
            b = filter_step(model, b, us[k], ys[k + 1])
            bent += entropy(b, scale)
        else:
            h, _ = trajectory_entropy(model, ys, us, scale)
            for xs, p in zip(*state_paths(model, ys, us)):
                if p > 0.0:
                    term = costs.terminal_cost[xs[t]]
                    stage = sum(costs.stage_cost[k][xs[k], us[k]] for k in range(t))
                    values.append((term, bent, h, h + stage + term))
                    weights.append(p)
    values, weights = np.asarray(values), np.asarray(weights)
    weights /= weights.sum()
    mean = weights @ values
    return mean, weights @ (values - mean) ** 2


def additive_smoother_expectation(model, horizon: int, rule, scale: float = 1.0) -> float:
    """E[sum_k H(X_k | X_{k+1}) + H(pi_T)] over the enumerated observation tree."""
    total = 0.0
    for ys in y_sequences(model.n_observations, horizon + 1):
        p = float(model.initial_observation[:, ys[0]] @ model.prior)
        if p <= 0.0:
            continue
        b = initial_filter(model, ys[0])
        acc = 0.0
        for k in range(horizon):
            u = rule(b, k)
            acc += stage_conditional_entropy(model, b, u, scale)
            q = obs_prob(model, b, u, ys[k + 1])
            if q <= 0.0:
                p = 0.0
                break
            p *= q
            b = filter_step(model, b, u, ys[k + 1])
        if p <= 0.0:
            continue
        total += p * (acc + entropy(b, scale))
    return total


def _dp_value_fn(model, costs, objective: str, scale: float):
    t = costs.horizon
    memo: dict = {}

    def v(k: int, b: np.ndarray) -> float:
        key = (k, np.round(b, 14).tobytes())
        if key in memo:
            return memo[key]
        if k == t:
            out = float(b @ costs.terminal_cost)
            if objective != "costs-only":
                out += entropy(b, scale)
        else:
            best = np.inf
            for u in range(model.n_controls):
                acc = float(b @ costs.stage_cost[k][:, u])
                if objective == "smoother":
                    acc += stage_conditional_entropy(model, b, u, scale)
                for y in range(model.n_observations):
                    q = obs_prob(model, b, u, y)
                    if q <= 0.0:
                        continue
                    nb = filter_step(model, b, u, y)
                    nxt = v(k + 1, nb)
                    if objective == "belief-sum":
                        nxt += entropy(nb, scale)
                    acc += q * nxt
                best = min(best, acc)
            out = best
        memo[key] = out
        return out

    return v


def optimal_value(model, costs, objective: str, scale: float = 1.0) -> float:
    """Exact optimum E_{y_0}[V_0] of the finite-horizon belief DP by tree recursion."""
    v = _dp_value_fn(model, costs, objective, scale)
    total = 0.0
    for y in range(model.n_observations):
        q = float(model.initial_observation[:, y] @ model.prior)
        if q > 0.0:
            total += q * v(0, initial_filter(model, y))
    return total


def optimal_value_from(model, costs, objective: str, belief, stage: int = 0,
                       scale: float = 1.0) -> float:
    """Exact optimal cost-to-go V_stage(belief) of the belief DP."""
    v = _dp_value_fn(model, costs, objective, scale)
    return v(stage, np.asarray(belief, dtype=float))


def witness_margin(vector: np.ndarray, others: np.ndarray) -> float:
    """max over the simplex of min over rows w of <pi, w - vector> (LP); -inf if it fails.

    Positive: `vector` lies strictly below every row somewhere. Negative: it lies
    strictly above the lower envelope of the rows everywhere.
    """
    from scipy.optimize import linprog

    n = len(vector)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([vector[None, :] - others, np.ones((len(others), 1))])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(len(others)),
        A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]),
        b_eq=np.ones(1),
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
        # HiGHS's default tolerances (1e-7) cannot resolve margins at PRUNE_TOL = 1e-9
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return -res.fun if res.status == 0 else -np.inf


def essential_indices(values: np.ndarray, tol: float = 1e-9) -> list[int]:
    """Indices whose hyperplane lies strictly below all others somewhere (LP witness).

    A row that is componentwise at least some other row has a margin of at most
    0, so it is skipped without solving its LP.
    """
    keep = []
    for i in range(len(values)):
        others = np.delete(values, i, axis=0)
        if len(others) == 0:
            keep.append(i)
        elif (not (others <= values[i]).all(axis=1).any()
              and witness_margin(values[i], others) > tol):
            keep.append(i)
    return keep


def unpruned_backup(model, next_values, stage_pieces):
    """(values, actions): every vector of one DP stage, unpruned, and its control.

    Per control u, every choice of one next-stage vector per observation y,
    each mapped to sum over x' of alpha'(x') p(y | x', u) p(x' | x, u), summed
    over y, plus each stage-cost piece of u.
    """
    next_values = np.asarray(next_values, dtype=float)
    rows, actions = [], []
    for u in range(model.n_controls):
        for pick in itertools.product(range(len(next_values)), repeat=model.n_observations):
            total = np.zeros(model.n_states)
            for y, i in enumerate(pick):
                total += (next_values[i] * model.observation[u][:, y]) @ model.transition[u]
            for piece in np.asarray(stage_pieces[u], dtype=float):
                rows.append(total + piece)
                actions.append(u)
    return np.array(rows), np.array(actions)


def unpruned_stages(model, terminal, stage_pieces) -> list[np.ndarray]:
    """Value sets of stages 0..T by unpruned backups of `terminal`; stage_pieces[k][u]."""
    stages = [np.asarray(terminal, dtype=float)]
    for pieces in reversed(stage_pieces):
        stages.insert(0, unpruned_backup(model, stages[0], pieces)[0])
    return stages


def directional_fd(f, b: np.ndarray, d: np.ndarray, h: float = 1e-6) -> float:
    return (f(b + h * d) - f(b - h * d)) / (2.0 * h)


_MASK64 = (1 << 64) - 1
TIE_TOL = 1e-12


def alpha_rule(policy, tol: float = TIE_TOL):
    """Decision rule of a solved policy read from its stage arrays: the action of
    the minimising vector, ties within `tol` to the lowest control."""
    def rule(belief, stage):
        stage_set = policy.stages[stage]
        vals = stage_set.values @ np.asarray(belief)
        return int(stage_set.actions[vals <= vals.min() + tol].min())

    return rule


def run_uniforms(seed: int, run_index: int, count: int) -> np.ndarray:
    """The first `count` uniforms of numpy's own Philox generator keyed (seed, run_index)."""
    key = np.array([seed & _MASK64, run_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def reference_rollout(model, costs, rule, seed: int, run_index: int, scale: float = 1.0,
                      smoother_cache: dict | None = None) -> dict:
    """One rollout by a plain per-run loop: Philox key (seed, run_index), 2 + 2T
    uniforms (initial state, y_0, then state and observation per stage), each
    draw the first index whose running pmf sum exceeds the uniform."""
    t = costs.horizon
    uniforms = run_uniforms(seed, run_index, 2 + 2 * t)

    def sample(pmf, v):
        return min(int(np.searchsorted(np.cumsum(pmf), v, side="right")), len(pmf) - 1)

    x = sample(model.prior, uniforms[0])
    y = sample(model.initial_observation[x], uniforms[1])
    belief = initial_filter(model, y)
    states, ys, us, beliefs, stage_costs = [x], [y], [], [belief], []
    for k in range(t):
        u = int(rule(belief, k))
        stage_costs.append(float(costs.stage_cost[k][x, u]))
        x = sample(model.transition[u][:, x], uniforms[2 + 2 * k])
        y = sample(model.observation[u][x], uniforms[3 + 2 * k])
        belief = filter_step(model, belief, u, y)
        states.append(x)
        ys.append(y)
        us.append(u)
        beliefs.append(belief)
    cache = {} if smoother_cache is None else smoother_cache
    key = (tuple(ys), tuple(us))
    if key not in cache:
        cache[key] = trajectory_entropy(model, ys, us, scale)[0]
    return {
        "states": np.array(states),
        "observations": np.array(ys),
        "controls": np.array(us, dtype=int),
        "beliefs": np.array(beliefs),
        "stage_costs": np.array(stage_costs),
        "terminal_cost": float(costs.terminal_cost[x]),
        "smoother_entropy": cache[key],
        "belief_entropies": np.array([entropy(b, scale) for b in beliefs]),
    }


# --------------------------------------------------- random instance factories --


def random_model(rng, n_states=None, n_obs=None, n_controls=None, zero_fraction=0.0):
    """Random model; `zero_fraction` of the transition entries are set to zero
    (each column keeps its largest entry) and the columns renormalised."""
    n = int(n_states if n_states is not None else rng.integers(2, 4))
    y = int(n_obs if n_obs is not None else rng.integers(1, 3))
    u = int(n_controls if n_controls is not None else rng.integers(1, 4))
    prior = rng.dirichlet(np.ones(n))
    transition = np.stack([rng.dirichlet(np.ones(n), size=n).T for _ in range(u)])
    if zero_fraction > 0.0:
        zero = rng.random(transition.shape) < zero_fraction
        zero &= transition < transition.max(axis=1, keepdims=True)
        transition = np.where(zero, 0.0, transition)
        transition /= transition.sum(axis=1, keepdims=True)
    observation = np.stack([rng.dirichlet(np.ones(y), size=n) for _ in range(u)])
    initial = rng.dirichlet(np.ones(y), size=n)
    return make_model(prior, transition, observation, initial)


def rank_one_model(rng, n_states=3, n_obs=2, n_controls=2):
    """All transition columns identical per control: states temporally independent."""
    cols = rng.dirichlet(np.ones(n_states), size=n_controls)
    transition = np.stack([np.tile(c[:, None], (1, n_states)) for c in cols])
    prior = rng.dirichlet(np.ones(n_states))
    observation = np.stack(
        [rng.dirichlet(np.ones(n_obs), size=n_states) for _ in range(n_controls)]
    )
    initial = rng.dirichlet(np.ones(n_obs), size=n_states)
    return make_model(prior, transition, observation, initial)


def random_costs(rng, model, horizon: int):
    stage = rng.uniform(0.0, 1.0, size=(horizon, model.n_states, model.n_controls))
    term = rng.uniform(0.0, 1.0, size=model.n_states)
    return make_cost_model(horizon, stage, term)


def zero_costs(model, horizon: int):
    stage = np.zeros((horizon, model.n_states, model.n_controls))
    return make_cost_model(horizon, stage, np.zeros(model.n_states))


def random_rule(rng, model, horizon: int):
    w = rng.normal(size=(horizon, model.n_controls, model.n_states))

    def rule(belief, stage):
        return int(np.argmin(w[stage] @ belief))

    return rule


def interior_beliefs(rng, n: int, count: int, margin: float = 1e-3) -> np.ndarray:
    b = rng.dirichlet(np.ones(n), size=count)
    return (1.0 - n * margin) * b + margin
