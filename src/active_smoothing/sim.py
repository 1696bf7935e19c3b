"""Monte Carlo rollout harness and exact policy evaluation over the observation tree.

Rollouts draw their randomness from the counter-based Philox4x64-10 keyed by
(seed, run index), so run i sees the same uniform stream regardless of the
policy under test: comparisons across policies use common random numbers.
`_advance` draws a block's uniforms, one array computation over its keys, and
advances all its runs together, one stage at a time; a single rollout is a
block of one. A policy comparison advances every policy in the same pass:
row p * R + r is policy p's run start + r, and all policies share the block's
uniforms. A block holds the most runs whose arrays, counted by `_block_words`,
fit ROLLOUT_CHUNK words, and every block of a call takes its arrays as views of
one workspace allocated for the largest.
A row keeps only its states, stage-major (stage, P, R), and its stage costs,
stage-major (stage, P * R), besides the current stage's (P, R) group ids,
controls and codes; the controls and codes are filled in place. Each draw's
(R,) column is compared against the (P, R) rows of every policy; stage 0
depends on the run alone and is sampled once per run. States and observations are sampled from
CDF tables laid out as (outcome, code), code u * N + x: a row compares its
uniform with the first K - 1 entries of its own column. Everything that
follows from a row's policy and history is paid once per history group: rows
of one policy that saw the same observations and controls share one group,
and the filter, the decisions, the belief entropies with their per-run sums
and the realised smoother entropy are computed per group. Each stage
regroups the rows by a presence table over their codes, which numbers the
groups in sorted-code order, and a group's code gives its parent, control and
observation. Those are recorded per group at each stage and laid out once,
after the last stage, along each final history: its observations, controls
and belief entropies. A batch keeps each row's final group and these paths
but no belief: it gathers per-row values only when they are read, beliefs by
re-running the filter along a final history's paths, and defines each
per-run metric once for records and comparisons.
One forward filter pass gives both the beliefs and the realised smoother
entropy, carried per group as the entropy of its past given each state. Every
group is computed with the operations of a single run, and every per-run sum
adds one run's terms in the order numpy sums a C-ordered row, so results do not
depend on the block it was simulated in or on the policies simulated beside it.
Every entry point takes its policies' rules from one `_rules` call: each is the
rule `check_policy`, the one place that interprets every kind of policy,
returns once it has checked that policy, once per policy per pass. A pass
fingerprints the model and costs at most once for all its policies, and not at
all when its caller holds the fingerprint.
Exact evaluation walks the observation tree breadth-first with the same rules,
one level of (L, N) beliefs per stage grown by `belief.children`, as the
solver's reachable levels are, and charges the smoother entropy in its
belief-state form. Like a comparison, it walks every policy's tree in one
lockstep pass, each policy a contiguous range of every level's rows, against
one fingerprint; a single evaluation is a batch of one. It refuses above a
size guard, which also bounds each pass.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .belief import (
    check_controls,
    children,
    initial_level,
    initial_update,
    predict_joint,
    step,
    update,
)
from .costs import (
    DEFAULT_CONFIG,
    EntropyConfig,
    _conditional_entropy,
    belief_entropy,
    past_entropy,
    pointwise_smoother_entropy,  # noqa: F401  kept importable: the benchmark's tracer wraps sim.pointwise_smoother_entropy by name
    trajectory_entropy,
)
from .model import ControlledHMM, CostModel, fingerprint
from .solver import ValuePolicy, best_action

SIZE_GUARD = 10_000_000
ROLLOUT_CHUNK = 1 << 20  # words (8 MiB) a compare_policies block holds by `_block_words`
TABLE_SPAN = 4  # code values per row up to which `_regroup` uses a presence table
_MASK64 = (1 << 64) - 1
_LOW32 = (1 << 32) - 1
_PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


class PolicyModelMismatch(ValueError):
    """Policy was solved for a different model/cost file than the one supplied."""


@dataclass(frozen=True)
class RolloutRecord:
    seed: int
    run_index: int
    states: np.ndarray           # (T+1,) sampled hidden states
    observations: np.ndarray     # (T+1,) y_0..y_T
    controls: np.ndarray         # (T,)
    beliefs: np.ndarray          # (T+1, N) filtered beliefs after each update
    stage_costs: np.ndarray      # (T,) realised c_k(x_k, u_k)
    terminal_cost: float         # c_T(x_T)
    smoother_entropy: float      # entropy of the trajectory given this data
    belief_entropies: np.ndarray  # (T+1,)
    total_cost: float            # its batch row's `RolloutBatch.total_cost`


@dataclass(frozen=True)
class RolloutBatch:
    """Runs start, ..., start + runs - 1 of one seed, for each of the policies
    the batch advanced: row p * runs + r holds policy p's run start + r.

    A row keeps its states, stage costs, terminal cost, smoother entropy and
    final history group; row g of each (G_T, .) path array holds final group
    g's observations, controls and belief entropies, gathered on read. No
    belief is kept: `beliefs` and `record` re-run the filter, `initial_update`
    then `step`, along final groups' paths with the operations of a single run,
    so they have the bits the simulation saw. `states` and `stage_costs` are
    stage-major, transposes of C-ordered (T+1, R) and (T, R) arrays.
    `total_cost`, the one total-cost formula, sums the stage costs by
    `_row_sums`, in numpy's own order, then adds the smoother entropy and
    terminal cost in place; `record` copies its row's.
    """
    model: ControlledHMM          # the model simulated, whose filter `beliefs` re-runs
    seed: int
    start: int
    runs: int                     # runs per policy: the batch has P * runs rows
    states: np.ndarray            # (R, T+1), the transpose of a (T+1, R) array
    stage_costs: np.ndarray       # (R, T), the transpose of a (T, R) array
    terminal_cost: np.ndarray     # (R,)
    smoother_entropy: np.ndarray  # (R,)
    final_group: np.ndarray       # (R,) each row's history group at stage T
    observation_paths: np.ndarray  # (G_T, T+1) y_0..y_T along each final group's history
    control_paths: np.ndarray      # (G_T, T)
    entropy_paths: np.ndarray      # (G_T, T+1) belief entropies along each final group's history

    def __len__(self) -> int:
        return len(self.states)

    @property
    def observations(self) -> np.ndarray:
        """(R, T+1) observations y_0..y_T."""
        return self.observation_paths[self.final_group]

    @property
    def controls(self) -> np.ndarray:
        """(R, T) applied controls."""
        return self.control_paths[self.final_group]

    def _filter(self, final) -> np.ndarray:
        """(G, T+1, N) filtered beliefs along the paths of the G final groups `final`."""
        observations, controls = self.observation_paths[final], self.control_paths[final]
        beliefs = [initial_update(self.model, observations[:, 0])]
        for k, control in enumerate(controls.T):
            beliefs.append(step(self.model, beliefs[-1], control, observations[:, k + 1], k))
        return np.stack(beliefs, axis=1)

    @property
    def beliefs(self) -> np.ndarray:
        """(R, T+1, N) filtered beliefs after each update, filtered once per final group."""
        return self._filter(slice(None))[self.final_group]

    @property
    def belief_entropies(self) -> np.ndarray:
        """(R, T+1) filtered-belief entropies after each update."""
        return self.entropy_paths[self.final_group]

    @property
    def total_belief_entropy(self) -> np.ndarray:
        """(R,) sums of `belief_entropies`, each summed once per final group."""
        return self.entropy_paths.sum(axis=1)[self.final_group]

    @property
    def total_cost(self) -> np.ndarray:
        total = _row_sums(self.stage_costs.T)
        total += self.smoother_entropy
        total += self.terminal_cost
        return total

    def record(self, row: int) -> RolloutRecord:
        final = self.final_group[row]
        return RolloutRecord(
            seed=self.seed,
            run_index=self.start + row % self.runs,
            states=self.states[row],
            observations=self.observation_paths[final],
            controls=self.control_paths[final],
            beliefs=self._filter([final])[0],
            stage_costs=self.stage_costs[row],
            terminal_cost=float(self.terminal_cost[row]),
            smoother_entropy=float(self.smoother_entropy[row]),
            belief_entropies=self.entropy_paths[final],
            total_cost=float(self.total_cost[row]),
        )


@dataclass(frozen=True)
class MetricsSummary:
    """One evaluated policy's record: a results CSV row is its name, then these fields.

    The field order is the CSV's column order, and each metric is followed by
    its standard error over the runs (0 for exact evaluation and for one run).
    """
    runs: int                    # 0 marks exact evaluation
    terminal_cost: float
    terminal_cost_se: float
    total_belief_entropy: float  # sum over stages 0..T of filtered-belief entropies
    tbe_se: float
    smoother_entropy: float
    se_se: float
    total_cost: float
    tc_se: float
    log_base: str
    seed: int


def _builtin_control(ref: str) -> int | None:
    """The control of a builtin reference, None for any other text: `always-east` is 2 and
    `fixed:<k>` is k, k ASCII digits; other text after `fixed:` raises ValueError."""
    if ref == "always-east":
        return 2
    if not ref.startswith("fixed:"):
        return None
    digits = ref[len("fixed:"):]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed builtin policy {ref!r}: want fixed:<k>, k ASCII digits")
    return int(digits)


def _rules(model: ControlledHMM, cost_model: CostModel, policies: list,
           expected: str | None = None) -> list:
    """The `check_policy` rule of each (name, policy) pair, in order, so a pass refuses
    before any draw or tree walk and runs only rules it has checked. Every value policy
    is checked against one fingerprint of (model, cost_model): `expected` if given, else
    computed here, only if some policy is a value policy."""
    if expected is None and any(isinstance(policy_like, ValuePolicy)
                                for _, policy_like in policies):
        expected = fingerprint(model, cost_model)
    return [check_policy(model, cost_model, policy_like, expected) for _, policy_like in policies]


def check_policy(model: ControlledHMM, cost_model: CostModel, policy_like,
                 expected: str | None = None):
    """The rule decide(beliefs, group, stage) of a policy that can be evaluated on
    (model, cost_model): the one place that interprets a policy, which `_rules` calls
    once per policy per pass. A rule takes one belief per history group of one policy,
    (G, N), and each row's group, (R,), and returns one int control per row.

    A value policy must have been solved for them: its fingerprint must be
    `expected`, theirs, computed here if not given, its horizon the costs', its
    stages of the model's states and, before the horizon, of the model's controls
    only; else PolicyModelMismatch. Its rule decides each group once by `best_action`.
    An integer or builtin reference must name one of the model's controls, its rule's
    one fixed control: else ValueError, naming the reference as given, as for text
    that is no builtin; TypeError for an object of any other type. A callable
    (belief, stage) -> control passes; its rule calls it once per row, in row order,
    with that row's belief, so a stochastic or stateful one sees the calls it would
    with one belief per row, and range-checks its controls on return: only a
    callable can decide outside the controls checked here.
    """
    if isinstance(policy_like, ValuePolicy):
        expected = expected or fingerprint(model, cost_model)
        if policy_like.model_fingerprint != expected:
            raise PolicyModelMismatch(
                f"policy fingerprint {policy_like.model_fingerprint[:12]}... does not match "
                f"the supplied model/costs ({expected[:12]}...)"
            )
        if policy_like.horizon != cost_model.horizon:
            raise PolicyModelMismatch(
                f"policy has horizon {policy_like.horizon}, costs have {cost_model.horizon}"
            )
        # the fingerprint covers the model and costs, not the policy's own arrays
        for k, stage_set in enumerate(policy_like.stages):
            if stage_set.values.ndim != 2 or stage_set.values.shape[1] != model.n_states:
                raise PolicyModelMismatch(
                    f"policy stage {k} value rows do not have the model's {model.n_states} states"
                )
            actions = stage_set.actions
            if k < policy_like.horizon and (
                    actions is None or not ((actions >= 0) & (actions < model.n_controls)).all()):
                raise PolicyModelMismatch(
                    f"policy stage {k} has actions outside the model's controls "
                    f"[0, {model.n_controls})"
                )
        return lambda beliefs, group, stage: best_action(policy_like, beliefs, stage)[group]
    if callable(policy_like):
        def decide(beliefs, group, stage):
            controls = np.array([int(policy_like(beliefs[g], stage)) for g in group], dtype=int)
            check_controls(model, controls)  # an out-of-range control would alias another's code
            return controls
        return decide
    if isinstance(policy_like, str):
        control = _builtin_control(policy_like)
        if control is None:
            raise ValueError(f"unknown builtin policy {policy_like!r}")
    elif isinstance(policy_like, (int, np.integer)):
        control = int(policy_like)
    else:
        raise TypeError(f"cannot interpret {type(policy_like).__name__} as a policy")
    if not 0 <= control < model.n_controls:
        raise ValueError(f"policy {policy_like!r}: control {control} out of range "
                         f"[0, {model.n_controls})")
    return lambda beliefs, group, stage: np.full(len(group), control)


def _mul128(x: np.ndarray, mult: np.ndarray, hi: np.ndarray, lo: np.ndarray, w: np.ndarray,
            t: np.ndarray) -> None:
    """In place: `hi` gets the high words of x * mult and `x` its low words, all uint64.

    The high word is built from 32-bit halves (Warren, Hacker's Delight, mulhu);
    `lo`, `w` and `t` are scratch of x's shape, and `mult` broadcasts against it.
    """
    m_hi, m_lo = mult >> 32, mult & _LOW32
    np.right_shift(x, 32, out=hi)
    np.bitwise_and(x, _LOW32, out=lo)
    np.multiply(lo, m_lo, out=w)
    w >>= 32
    np.multiply(hi, m_lo, out=t)
    t += w                                  # below 2^64: no carry is lost
    np.bitwise_and(t, _LOW32, out=w)
    t >>= 32
    lo *= m_hi
    w += lo
    w >>= 32
    hi *= m_hi
    hi += t
    hi += w
    x *= mult


def _uniforms(seed: int, start: int, stop: int, horizon: int,
              workspace: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Row r: the 2 + 2T uniforms of run start + r, numpy's Philox(key=(seed, run)) stream.

    Philox4x64-10 (Salmon et al., SC 2011) is counter-based, so the whole block is one
    array computation: key words (seed, run) mod 2^64, counters 1, 2, ... (numpy
    increments before each block of four words), and each double (word >> 11) * 2^-53.
    Counter block j enters as x = (j, 0, 0, 0), so round 0 depends on the counter
    alone and round 1's product of x0 on the seed alone: both are exact Python
    integer products, and only round 1's product of x2 and rounds 2-9 run per row.
    Those hold words x0, x2 and x1, x3 as stacked (2, c, R) lanes, so each round is
    one 64-bit product of a lane pair (`_mul128`). All array arithmetic is in place
    on uint64 arrays, which wrap mod 2^64 without a warning. The result is the
    transpose of a C-ordered (2 + 2T, R) array, so each draw's column is contiguous.
    It is written into the draws' region of `workspace`, a `_workspace` for at least
    R runs, and the lanes and their scratch are views of its shared region, dead once
    the result exists.
    """
    width, rows = 2 + 2 * horizon, stop - start
    shape = (2, (width + 3) // 4, rows)
    draw_region, shared = workspace
    (doubles,) = _views(draw_region, ((shape[1], 2, 2, rows), np.float64))
    # even holds x0, x2 and odd x1, x3
    key, even, odd, x_hi, x_lo, w, t = _views(shared, ((2, 1, rows), np.uint64),
                                              *[(shape, np.uint64)] * 6)
    seed &= _MASK64
    counter = [j * _PHILOX_MULT[0] for j in range(1, shape[1] + 1)]  # j * M0, exact
    seed_product = seed * _PHILOX_MULT[0]
    mult = np.array(_PHILOX_MULT, dtype=np.uint64)[:, None, None]
    weyl = np.array(_PHILOX_WEYL, dtype=np.uint64)[:, None, None]
    key[0] = (seed + _PHILOX_WEYL[0]) & _MASK64  # round 1's keys
    key[1, 0] = np.uint64(start & _MASK64) + np.arange(rows, dtype=np.uint64)
    # round 0 takes x = (j, 0, 0, 0) to (seed, 0, hi(j * M0) ^ run, lo(j * M0))
    np.bitwise_xor(np.array([p >> 64 for p in counter], dtype=np.uint64)[:, None], key[1],
                   out=odd[0])
    key[1] += weyl[1]
    # round 1: x0 = hi(x2 * M1) ^ key0, x1 = lo(x2 * M1), x2 = hi(seed * M0) ^ x3 ^ key1
    # and x3 = lo(seed * M0); only the product of x2 depends on the run
    _mul128(odd[0], mult[1], x_hi[0], x_lo[0], w[0], t[0])
    np.bitwise_xor(x_hi[0], key[0], out=even[0])
    row_free = [(seed_product >> 64) ^ (p & _MASK64) for p in counter]
    np.bitwise_xor(np.array(row_free, dtype=np.uint64)[:, None], key[1], out=even[1])
    odd[1] = seed_product & _MASK64
    for _ in range(2, 10):
        key += weyl
        _mul128(even, mult, x_hi, x_lo, w, t)
        np.bitwise_xor(x_hi[::-1], odd, out=odd)
        odd ^= key
        even, odd = odd, even[::-1]
    # word 4j + i of a run is x_i of counter block j: (j, lane pair, even/odd) in order
    for i, lanes in enumerate((even, odd)):
        lanes >>= 11
        np.multiply(lanes.swapaxes(0, 1), 2.0 ** -53, out=doubles[:, :, i])
    return doubles.reshape(-1, rows)[:width].T


def _run_words(horizon: int, n_policies: int) -> tuple[int, int]:
    """The words (8 bytes) one run takes in each region of a `_workspace`: its draws, then
    the larger of its Philox lanes with their scratch and its rows' block arrays."""
    counter_blocks = (2 + 2 * horizon + 3) // 4
    philox_words = 2 + 12 * counter_blocks           # keys, then six (2, c, R) lanes
    block_words = n_policies * (2 * horizon + 4)     # states, stage costs, u, ux, code
    return 4 * counter_blocks, max(philox_words, block_words)


def _workspace(horizon: int, n_policies: int, runs: int) -> tuple[np.ndarray, np.ndarray]:
    """The memory of blocks of up to `runs` runs of `n_policies` policies: one np.empty of
    bytes, split into the draws' region and one shared region, `_run_words` per run.

    `_uniforms` writes a block's draws into the first and takes its Philox lanes
    and scratch from the second; once the draws exist that scratch is dead, and
    `_advance` takes the block's states, stage costs, controls, u * N + x and codes
    from the same shared region. So a comparison's blocks all reuse one
    allocation, and its peak is the draws plus the larger of the two uses.
    Every array is 8 bytes an element, so each view is aligned.
    """
    draw_words, shared_words = _run_words(horizon, n_policies)
    workspace = np.empty(8 * runs * (draw_words + shared_words), dtype=np.uint8)
    return workspace[:8 * runs * draw_words], workspace[8 * runs * draw_words:]


def _block_words(model: ControlledHMM, horizon: int, n_policies: int, runs: int) -> int:
    """The words (8 bytes) a `compare_policies` block of `runs` runs of `n_policies`
    policies holds at most, besides the current stage's (G, N, N) joint and its temporaries.

    Per run, its `_workspace` words. Per row, 8 words, or 3 + T from T = 8 on: within a
    stage its group id and `_regroup`'s temporaries, up to seven words a row when
    np.unique sorts a copy of the codes; after the last stage its final group, terminal
    cost and smoother entropy, with `_row_sums`' run-major copy of its T stage costs
    from T = 8 on; the total cost summed from that copy is a per-run metric, left out as
    the (P, 4, runs) array is. Per history group, at each stage its belief entropy,
    parent, control and observation; 2N for the (N,) belief and past entropies of each
    group of the last two stages, which the last regroup holds; at stage T 3T + 3 for its
    smoother entropy and path entries. Groups are distinct (policy, observation and
    control) histories, so stage k has at most P * min(R, Y (U Y)^k), for any policy.
    """
    n, y = model.n_states, model.n_observations
    row_words = 3 + horizon if horizon >= 8 else 8
    draw_words, shared_words = _run_words(horizon, n_policies)
    words = runs * (draw_words + shared_words) + n_policies * runs * row_words
    histories, groups = y, 0
    for _ in range(horizon + 1):
        parents, groups = groups, n_policies * min(runs, histories)
        words += groups * 4
        histories = min(histories * model.n_controls * y, runs)  # capped: min(R, .) is the same
    return words + (parents + groups) * 2 * n + groups * (3 * horizon + 3)


def _block_runs(model: ControlledHMM, horizon: int, n_policies: int, runs: int) -> int:
    """The runs of a `compare_policies` block: the most, up to `runs`, whose `_block_words`
    fit ROLLOUT_CHUNK, and at least one. The words grow with the runs, so this bisects."""
    lo, hi = 1, runs
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _block_words(model, horizon, n_policies, mid) <= ROLLOUT_CHUNK:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _views(region: np.ndarray, *specs) -> list[np.ndarray]:
    """C-ordered arrays of the given (shape, dtype) pairs, consecutive views of the byte
    array `region` from its start."""
    arrays, offset = [], 0
    for shape, dtype in specs:
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        arrays.append(region[offset:offset + size].view(dtype).reshape(shape))
        offset += size
    return arrays


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the leading axis of the stage-major (K, R) `terms`, as a new array: each
    entry the bits np.sum gives over that row's K terms laid out contiguously.

    numpy reduces a contiguous row as 0 + its pairwise sum, which adds fewer than 8
    terms in order. There each step here adds a whole column of rows: one vector
    operation per term instead of one inner-loop call per row. From 8 terms on,
    np.sum itself reduces a run-major copy.
    """
    if len(terms) >= 8:
        return np.sum(terms.T.copy(), axis=-1)
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out


def _check_runs(runs: int, trace_runs: int | None = None) -> None:
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if trace_runs is not None and trace_runs < 0:
        raise ValueError(f"trace_runs must be >= 0, got {trace_runs}")


def _sample(table: np.ndarray, code: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row, searchsorted(table[:, code], u, side="right") clipped to the last index.

    `table` (K, C) holds one CDF per column, outcomes on the leading axis, and
    row r samples from column code[r]; `uniforms` broadcasts against `code`, so
    one draw per run serves a (P, R) array of rows. A cumsum of non-negative
    entries is non-decreasing, so the entries at or below u are a prefix, and
    counting them among the first K - 1 entries is the clipped searchsorted: the
    last column is never read. The count is kept in the narrowest unsigned dtype
    that holds K - 1, as numpy adds bytes to bytes fastest.
    """
    index = np.zeros(code.shape, dtype=np.min_scalar_type(len(table) - 1))
    for column in table[:-1]:
        index += (column[code] <= uniforms).view(np.uint8)
    return index


def _regroup(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(code, return_inverse=True) for codes in [0, span): sorted codes, each row's id.

    A presence table over the span finds the codes in sorted order with no sort.
    Its two arrays take 9 bytes per code value, so above TABLE_SPAN values per row
    the rows fall back to np.unique on codes cast to their narrowest dtype, whose
    stable argsort radix-sorts integers of 16 bits or fewer.
    """
    if span > TABLE_SPAN * len(code):
        values, inverse = np.unique(code.astype(np.min_scalar_type(span - 1), copy=False),
                                    return_inverse=True)
        return values.astype(np.intp), inverse
    present = np.zeros(span, dtype=bool)
    present[code] = True
    values = np.flatnonzero(present)
    ids = np.empty(span, dtype=np.intp)  # read only at present codes
    ids[values] = np.arange(len(values))
    return values, ids[code]


def _advance(model: ControlledHMM, cost_model: CostModel, decides: list, seed: int,
             start: int, stop: int, config: EntropyConfig,
             workspace: tuple[np.ndarray, np.ndarray]) -> RolloutBatch:
    """Simulate runs start .. stop - 1 in lockstep, drawing their (R, 2 + 2T) uniforms
    into `workspace`, a `_workspace` for at least R = stop - start runs.

    `decides` holds one `check_policy` rule per policy. Rows are policy-major: row
    p * R + r is policy p's run start + r and uses that run's uniforms, so the
    batch has P * R rows and is a plain `rollouts` batch when P = 1.

    A row keeps only its states, stage-major (T+1, P, R), and its stage costs,
    stage-major (T, P * R); each draw's (R,) column is compared against the
    (P, R) rows, and stage 0 is sampled once per run. The current stage's group
    ids, controls and codes are (P, R) arrays, the last two filled in place;
    the observations are added into the codes as they are drawn. The states,
    stage costs, controls, u * N + x and codes are views of the shared region of
    `workspace`, taken once the draws exist, so the batch's states and stage
    costs hold only until the workspace is reused. `group` gives each row's
    history group at the current stage, numbered by its sorted code: p * Y0 +
    the rank of its first observation among the Y0 observed at stage 0, then
    (group, control, next observation) after each stage, so a group's code gives
    its parent, control and observation. Codes sort by policy first, so each
    policy's groups are one contiguous range at every stage,
    bounds[p]:bounds[p+1], carried by a searchsorted of the sorted parents as in
    `_exact_pass`, and a rule decides on its range alone. The beliefs,
    decisions, belief entropies and (G, N) past entropies are computed per
    group, each with the operations of a single run, and gathered from the
    parent groups at each regroup. Each final group's observations, controls
    and belief entropies are laid out along its path once, after the last
    stage, as rows of (G_T, T+1) and (G_T, T) paths. No (G, N) or (G, N, N)
    array outlives its stage: the batch keeps no beliefs.
    """
    runs, t, n_policies = stop - start, cost_model.horizon, len(decides)
    draws = _uniforms(seed, start, stop, t, workspace).T  # (2 + 2T, R), shared by every policy
    rows = n_policies * runs
    shape = (n_policies, runs)
    # ux is u * N + x, x the current or next state
    states, stage_costs, u, ux, code = _views(
        workspace[1], ((t + 1, *shape), int), ((t, rows), np.float64), (shape, int),
        (shape, int), (shape, np.intp))
    stage_entropies, parents, controls, observations = [], [], [], []  # per group of each stage
    n, u_count, y = model.n_states, model.n_controls, model.n_observations
    # CDF tables (outcome, code), code u * N + x: next states, then observations
    transition_cdf = np.cumsum(model.transition, axis=1).transpose(1, 0, 2).reshape(n, -1)
    observation_cdf = np.cumsum(model.observation, axis=2).transpose(2, 0, 1).reshape(y, -1)

    states[0] = _sample(np.cumsum(model.prior)[:, None], np.zeros(runs, dtype=int), draws[0])
    seen, rank = _regroup(_sample(np.cumsum(model.initial_observation, axis=1).T,
                                  states[0, 0], draws[1]), y)
    bounds = np.arange(n_policies + 1) * len(seen)
    group = bounds[:-1, None] + rank
    observations.append(np.tile(seen, n_policies))
    group_beliefs = np.tile(initial_update(model, seen), (n_policies, 1))
    past = np.zeros_like(group_beliefs)
    for k in range(t):
        stage_entropies.append(belief_entropy(group_beliefs, config))
        for p, decide in enumerate(decides):
            lo, hi = bounds[p], bounds[p + 1]
            u[p] = decide(group_beliefs[lo:hi], group[p] - lo, k)
        np.multiply(u, n, out=ux)
        ux += states[k]
        stage_costs[k] = cost_model.stage_cost[k].T.ravel()[ux].ravel()
        states[k + 1] = _sample(transition_cdf, ux, draws[2 + 2 * k])
        np.multiply(u, n, out=ux)
        ux += states[k + 1]
        np.multiply(group, u_count, out=code)
        code += u
        code *= y
        code += _sample(observation_cdf, ux, draws[3 + 2 * k])
        values, child = _regroup(code.ravel(), len(group_beliefs) * u_count * y)
        group = child.reshape(n_policies, runs)
        history, observed = np.divmod(values, y)
        parent, applied = np.divmod(history, u_count)
        joint = predict_joint(model, group_beliefs[parent], applied)
        past = past_entropy(joint, past[parent])
        group_beliefs = update(model, joint, applied, observed, stage=k)
        bounds = np.searchsorted(parent, bounds)
        parents.append(parent)
        controls.append(applied)
        observations.append(observed)
    stage_entropies.append(belief_entropy(group_beliefs, config))
    smoother = trajectory_entropy(group_beliefs, past, config)
    n_final = len(group_beliefs)
    observation_paths = np.empty((n_final, t + 1), dtype=np.intp)
    control_paths = np.empty((n_final, t), dtype=np.intp)
    entropy_paths = np.empty((n_final, t + 1))
    ancestor = np.arange(n_final)
    for k in range(t, -1, -1):
        observation_paths[:, k] = observations[k][ancestor]
        entropy_paths[:, k] = stage_entropies[k][ancestor]
        if k:
            control_paths[:, k - 1] = controls[k - 1][ancestor]
            ancestor = parents[k - 1][ancestor]
    final_group = group.ravel()

    return RolloutBatch(
        model=model,
        seed=seed,
        start=start,
        runs=runs,
        states=states.reshape(t + 1, rows).T,
        stage_costs=stage_costs.T,
        terminal_cost=cost_model.terminal_cost[states[t].ravel()],
        smoother_entropy=smoother[final_group],
        final_group=final_group,
        observation_paths=observation_paths,
        control_paths=control_paths,
        entropy_paths=entropy_paths,
    )


def rollouts(model: ControlledHMM, cost_model: CostModel, policy_like, seed: int, runs: int,
             config: EntropyConfig = DEFAULT_CONFIG, start: int = 0) -> RolloutBatch:
    """Simulate runs start .. start + runs - 1 together; row r equals rollout(run_index=start + r).

    The policy is checked, and its rule returned, by `_rules`. The batch's states and stage
    costs are copied out of the block's workspace, in its stage-major layout, so the
    workspace, draws included, is freed on return.
    """
    _check_runs(runs)
    rules, t = _rules(model, cost_model, [("", policy_like)]), cost_model.horizon
    batch = _advance(model, cost_model, rules, seed, start, start + runs, config,
                     _workspace(t, 1, runs))
    return replace(batch, states=np.copy(batch.states), stage_costs=np.copy(batch.stage_costs))


def rollout(model: ControlledHMM, cost_model: CostModel, policy_like, seed: int,
            config: EntropyConfig = DEFAULT_CONFIG, run_index: int = 0) -> RolloutRecord:
    """Simulate one trajectory; identical (seed, run_index) yields identical records.

    The uniform stream is drawn up front with a fixed layout (two draws for the
    initial state/observation, two per stage), so trajectories are comparable
    across policies under common random numbers. A batch of one.
    """
    return rollouts(model, cost_model, policy_like, seed, 1, config, start=run_index).record(0)


def _summary(runs: int, means, ses, config: EntropyConfig, seed: int) -> MetricsSummary:
    """The record of (terminal cost, total belief entropy, smoother entropy, total cost)
    means and their standard errors, each metric followed by its SE."""
    metrics = [float(x) for pair in zip(means, ses) for x in pair]
    return MetricsSummary(runs, *metrics, config.log_base, seed)


def monte_carlo(model: ControlledHMM, cost_model: CostModel, policy_like, runs: int,
                seed: int, config: EntropyConfig = DEFAULT_CONFIG) -> MetricsSummary:
    """Mean and standard error of each metric over runs 0 .. runs - 1."""
    return compare_policies(model, cost_model, [("", policy_like)], runs, seed, config)[0][1]


# bench/tracer.py patches this name for its "sim.exact_leaf" span; nothing calls it
_joint_trajectory_entropy = None


def _tree_terms(model: ControlledHMM, horizon: int) -> int:
    """Y^(T+1) * N^2, the terms one policy's exact walk is guarded by."""
    return model.n_observations ** (horizon + 1) * model.n_states ** 2


def exact_refusal(model: ControlledHMM, horizon: int) -> str | None:
    """Why exact evaluation refuses, or None: Y^(T+1) * N^2 is over SIZE_GUARD. It bounds
    the entries of its largest arrays, a level's (L, N, N) joint predicted beliefs and
    (L, N, Y) likelihoods, L <= Y^T."""
    terms = _tree_terms(model, horizon)
    if terms > SIZE_GUARD:
        return f"exact evaluation needs {terms} joint terms, over the {SIZE_GUARD} guard"
    return None


def exact_policy_metrics(model: ControlledHMM, cost_model: CostModel, policy_like,
                         config: EntropyConfig = DEFAULT_CONFIG,
                         seed: int = 0) -> MetricsSummary:
    """Exact expectations over the observation tree; ValueError if `exact_refusal` refuses.
    A batch of one."""
    return compare_policies_exactly(model, cost_model, [("", policy_like)], config, seed)[0][1]


def compare_policies_exactly(model: ControlledHMM, cost_model: CostModel,
                             policies: list[tuple[str, object]],
                             config: EntropyConfig = DEFAULT_CONFIG, seed: int = 0, *,
                             model_fingerprint: str | None = None):
    """One (name, exact summary) per named policy; ValueError if `exact_refusal` refuses.

    `_rules` checks every policy and returns its rule, against one fingerprint of
    (model, cost_model), `model_fingerprint` if the caller holds it, and every
    policy's observation tree is walked in the same breadth-first pass. A pass
    holds as many policies as keep P * Y^(T+1) * N^2 within SIZE_GUARD, at least
    one, so the guard bounds each pass's arrays as it bounds one policy's. A
    callable is called stage by stage within its pass, so a stateful one's calls
    interleave with the other policies' decisions by stage, as in
    `compare_policies`. Each policy's summary equals its own `exact_policy_metrics`.
    """
    rules = _rules(model, cost_model, policies, model_fingerprint)
    refusal = exact_refusal(model, cost_model.horizon)
    if refusal:
        raise ValueError(refusal)
    per_pass = max(1, SIZE_GUARD // _tree_terms(model, cost_model.horizon))
    metrics = []
    for first in range(0, len(rules), per_pass):
        metrics += _exact_pass(model, cost_model, rules[first:first + per_pass], config)
    return [(name, _summary(0, means, (0.0,) * 4, config, seed))
            for (name, _), means in zip(policies, metrics)]


def _exact_pass(model: ControlledHMM, cost_model: CostModel, decides: list,
                config: EntropyConfig) -> list[tuple]:
    """(terminal cost, total belief entropy, smoother entropy, total cost) expectations
    per `check_policy` rule, over one breadth-first walk of every policy's observation tree.

    Level k stacks every policy's (L_p, N) beliefs and (L_p,) path probabilities
    as one (sum L_p, N) array, policy p's rows the range bounds[p]:bounds[p+1].
    Each range is decided by its own rule, as Monte Carlo decides a group range;
    the level's joints are predicted once and expanded with `children`, whose
    (parent, observation) order keeps each policy's children one range. Every
    row is computed with the operations of a single walk, and each expectation
    is prob @ x over its policy's own range, so each summary keeps the bits it
    has when its policy is walked alone. The smoother entropy is charged in its
    belief-state form, E[sum_k H(x_k | x_{k+1}, data to k) + H(b_T)]: prob * the
    stage entropy cost of that joint at each node and prob * H(b_T) at each leaf.
    """
    _, prob0, beliefs0 = initial_level(model)
    n_policies = len(decides)
    prob = np.tile(prob0, n_policies)
    beliefs = np.tile(beliefs0, (n_policies, 1))
    bounds = np.arange(n_policies + 1) * len(prob0)
    ranges = list(map(slice, bounds[:-1], bounds[1:]))
    tbe, smoother, stage_c = ([0.0] * n_policies for _ in range(3))
    for k in range(cost_model.horizon):
        entropy = belief_entropy(beliefs, config)
        controls = np.empty(len(beliefs), dtype=int)
        for rows, decide in zip(ranges, decides):
            controls[rows] = decide(beliefs[rows], np.arange(rows.stop - rows.start), k)
        stage = (beliefs * cost_model.stage_cost[k].T[controls]).sum(axis=1)
        joint = predict_joint(model, beliefs, controls)
        conditional = _conditional_entropy(joint, config)  # stage_entropy_cost's bits
        for p, rows in enumerate(ranges):
            tbe[p] += prob[rows] @ entropy[rows]
            stage_c[p] += prob[rows] @ stage[rows]
            smoother[p] += prob[rows] @ conditional[rows]
        parents, _, p_next, beliefs = children(model, joint, controls, stage=k)
        prob = prob[parents] * p_next
        bounds = np.searchsorted(parents, bounds)
        ranges = list(map(slice, bounds[:-1], bounds[1:]))
    entropy = belief_entropy(beliefs, config)
    metrics = []
    for p, rows in enumerate(ranges):
        final_entropy = prob[rows] @ entropy[rows]
        terminal = prob[rows] @ (beliefs[rows] @ cost_model.terminal_cost)  # a gemv per range
        total_smoother = smoother[p] + final_entropy
        metrics.append((terminal, tbe[p] + final_entropy, total_smoother,
                        total_smoother + stage_c[p] + terminal))
    return metrics


def compare_policies(model: ControlledHMM, cost_model: CostModel,
                     policies: list[tuple[str, object]], runs: int, seed: int,
                     config: EntropyConfig = DEFAULT_CONFIG, *, trace_runs: int | None = None,
                     model_fingerprint: str | None = None):
    """One (name, summary) per named policy, on common random numbers across policies.

    Every policy advances in the same lockstep pass, one block of runs at a
    time; each block's uniforms are drawn once and shared by every policy. A
    block holds the most runs, `_block_runs`, whose words fit ROLLOUT_CHUNK, as
    `_block_words` counts them: its workspace, its per-row temporaries, its
    per-group records and only the live stage's beliefs, with at most
    P * min(R, Y (U Y)^k) groups at stage k. So a short horizon's few
    histories let a block fill the budget with runs, and a block where every
    row is its own group stays within it. Every block takes its draws, states,
    stage costs, controls and codes from one `_workspace` made once per call
    for the largest block, and the draws' Philox scratch shares its region
    with those per-row arrays. The current stage's (G, N, N) joint and its
    temporaries come on top, freed with the stage: at N=20, T=8 the peak is
    about 7x the budget.
    `_rules` checks every policy and returns its rule, against one fingerprint of
    (model, cost_model) per call, `model_fingerprint` if the caller holds it. A
    callable is called stage by stage within each block, so a stateful one's calls
    interleave with the other policies' decisions by stage. Any other policy's
    summary equals its own `monte_carlo`, so a pass over several policies keeps
    each one's bits.
    Each block's per-run metrics are read from its `RolloutBatch`, its
    `terminal_cost`, `total_belief_entropy`, `smoother_entropy` and
    `total_cost`, into one (P, 4, runs) array, so every run's metrics have the
    bits of its own `rollout` record.

    Given `trace_runs`, the result is (summaries, head): head holds the states
    (P, n, T+1), controls (P, n, T) and observations (P, n, T+1) of runs
    0 .. n - 1 of each of the P policies, n = min(trace_runs, runs). They are
    gathered from the leading block(s) of this pass, so they equal each run's
    `rollout` and no run is simulated twice.
    """
    _check_runs(runs, trace_runs)
    rules = _rules(model, cost_model, policies, model_fingerprint)
    t, n_head, n_policies = cost_model.horizon, min(trace_runs or 0, runs), len(rules)
    head = tuple(np.empty((n_policies, n_head, width), dtype=int) for width in (t + 1, t, t + 1))
    if not rules:
        return [] if trace_runs is None else ([], head)
    block = _block_runs(model, t, n_policies, runs)
    workspace = _workspace(t, n_policies, block)
    per_run = np.empty((n_policies, 4, runs))  # terminal, belief entropies, smoother, total
    for start in range(0, runs, block):
        stop = min(start + block, runs)
        shape = (n_policies, stop - start)
        batch = _advance(model, cost_model, rules, seed, start, stop, config, workspace)
        terminal, tbe, smoother, total = per_run[:, :, start:stop].swapaxes(0, 1)  # each (P, R)
        terminal[...] = batch.terminal_cost.reshape(shape)
        tbe[...] = batch.total_belief_entropy.reshape(shape)
        smoother[...] = batch.smoother_entropy.reshape(shape)
        total[...] = batch.total_cost.reshape(shape)
        if start < n_head:  # gather only the head rows: batch row p * R + r is run start + r
            end = min(n_head, stop)
            leading = batch.final_group.reshape(shape)[:, :end - start]
            head[0][:, start:end] = batch.states.reshape(*shape, t + 1)[:, :end - start]
            head[1][:, start:end] = batch.control_paths[leading]
            head[2][:, start:end] = batch.observation_paths[leading]
    means = per_run.mean(axis=2)
    # a row at a time, so the deviations std forms are one row, not a second per_run
    ses = (np.array([row.std(ddof=1) for row in per_run.reshape(-1, runs)]).reshape(means.shape)
           / np.sqrt(runs) if runs > 1 else np.zeros_like(means))
    summaries = [(name, _summary(runs, m, e, config, seed))
                 for (name, _), m, e in zip(policies, means, ses)]
    return summaries if trace_runs is None else (summaries, head)
