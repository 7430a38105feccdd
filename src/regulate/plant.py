"""Parametric discrete-time plants.

Simulation of x(t+1) = f(x(t), u(t), theta), the stacked prediction map over a
recorded input history, terminal-state maps for candidate control blocks, and
finite-difference sensitivity / numeric-rank diagnostics. Every
finite-difference Jacobian uses the one relative step ``FD_STEP``.
``RunFailure`` is the type of every failure that stops a regulation run.

Every multi-step function runs the one step loop ``_advance``: each public
call checks its arguments once, and inside the loop only the shape of each
transition output is checked. The short-block paths (``terminal_map``'s
block, and through ``block_end_map`` ``jacobian_input``'s stencil and
``synthesize``) call the loop directly rather than ``simulate``, so a
stencil point costs its transitions and no sequence objects.

A recorded input sequence (``InputSequence.recorded``, as every observation
history holds) has read-only inputs and a memo of its last
``REPLAY_MEMO_SIZE`` replays, which ``replay`` looks up before it calls
``simulate``; that rests on the purity ``PlantModel`` requires of
``transition``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Transition = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# Relative step of every finite-difference stencil, scaled by max(1, |x_i|).
FD_STEP = 1e-6

# Replays a recorded input sequence keeps; the least recently used goes first.
REPLAY_MEMO_SIZE = 16


class RunFailure(RuntimeError):
    """A regulation run, or one of its subsolvers, stopped without reaching the target.

    Inside a run, ``block_index`` is the block whose estimate, synthesis or
    inclusion check failed (``None`` when a safety cap stopped the run) and
    ``partial_outcome`` is the run log up to the failure; both stay ``None``
    for a subsolver called on its own.
    """

    block_index = None
    partial_outcome = None


class DimensionMismatch(ValueError):
    """An argument does not match the plant's declared dimensions."""


def _vector(value, dim: int, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape != (dim,):
        raise DimensionMismatch(f"{what} must have shape ({dim},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class PlantModel:
    """A plant f(x, u, theta) with an admissible parameter box and a target state.

    ``param_box`` has one [lo, hi] row per parameter coordinate; the box is the
    set of admissible parameter hypotheses. ``transition`` must be a pure,
    deterministic function of its arguments: the solvers skip repeated
    evaluations, and ``replay`` serves repeated replays from a memo. It must
    also return a new array on each call, never one of its arguments or a
    buffer it reuses: the step loop hands its output on as the next state
    and as the result of ``terminal_map`` and ``block_end_map``, without a
    copy.
    """

    state_dim: int
    input_dim: int
    param_dim: int
    transition: Transition
    param_box: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        for name in ("state_dim", "input_dim", "param_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer (got {value!r})")
            object.__setattr__(self, name, int(value))
        box = np.asarray(self.param_box, dtype=float).reshape(self.param_dim, 2)
        if np.any(box[:, 0] > box[:, 1]):
            raise ValueError("param_box rows must satisfy lo <= hi")
        object.__setattr__(self, "param_box", box)
        object.__setattr__(self, "target", _vector(self.target, self.state_dim, "target"))

    @property
    def param_lower(self) -> np.ndarray:
        return self.param_box[:, 0]

    @property
    def param_upper(self) -> np.ndarray:
        return self.param_box[:, 1]

    def clip_params(self, theta) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), self.param_lower, self.param_upper)

    def contains_params(self, theta, atol: float = 0.0) -> bool:
        theta = _vector(theta, self.param_dim, "theta")
        return bool(
            np.all(theta >= self.param_lower - atol) and np.all(theta <= self.param_upper + atol)
        )


@dataclass(frozen=True)
class InputSequence:
    """Inputs u(t0), ..., u(t0+len-1) stored as one row per time step."""

    start_time: int
    inputs: np.ndarray
    # The replay memo of a recorded sequence, None for any other (not a field).
    _replays = None

    def __post_init__(self):
        arr = np.asarray(self.inputs, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch(f"inputs must be 2-D (length, input_dim), got shape {arr.shape}")
        object.__setattr__(self, "inputs", arr)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.inputs.ravel()

    def recorded(self) -> "InputSequence":
        """This sequence as a history records it: the inputs in a read-only copy
        of its own, which nothing can change under the replay memo that the
        copy carries (see ``replay``). A recorded sequence is returned as is."""
        if self._replays is not None:
            return self
        inputs = self.inputs.copy()
        inputs.flags.writeable = False
        seq = InputSequence(self.start_time, inputs)
        object.__setattr__(seq, "_replays", OrderedDict())
        return seq


@dataclass(frozen=True)
class StateSequence:
    """States x(t0), ..., x(t0+len-1) stored as one row per time step."""

    start_time: int
    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch(f"states must be 2-D (length, state_dim), got shape {arr.shape}")
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def flat(self) -> np.ndarray:
        return self.states.ravel()


def as_inputs(values, input_dim: int, start_time: int = 0) -> InputSequence:
    """Coerce an array-like into an InputSequence.

    1-D input is read as a sequence of scalar inputs when input_dim == 1, and
    as a single input vector otherwise.
    """
    if isinstance(values, InputSequence):
        if values.input_dim != input_dim:
            raise DimensionMismatch(
                f"input sequence has dimension {values.input_dim}, expected {input_dim}"
            )
        return values
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        if input_dim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.shape == (input_dim,):
            arr = arr.reshape(1, input_dim)
        else:
            raise DimensionMismatch(f"cannot read shape {arr.shape} as inputs of dimension {input_dim}")
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise DimensionMismatch(f"cannot read shape {arr.shape} as inputs of dimension {input_dim}")
    return InputSequence(start_time, arr)


def _advance(model: PlantModel, x: np.ndarray, inputs: np.ndarray, theta: np.ndarray, out=None) -> np.ndarray:
    """The state after applying each row of ``inputs`` in turn from x; with
    ``out``, state i+1 is written to out[i] as well.

    x and theta must already be checked and ``inputs`` be 2-D with the
    plant's input width. ``model.transition`` runs once per row, and only
    its output is checked: a float64 array of shape (state_dim,) is taken as
    it is, anything else goes through ``_vector``.
    """
    transition = model.transition
    shape = (model.state_dim,)
    f64 = np.dtype(np.float64)
    for i, u in enumerate(inputs):
        x = transition(x, u, theta)
        if type(x) is not np.ndarray or x.dtype is not f64 or x.shape != shape:
            x = _vector(x, model.state_dim, "transition output")
        if out is not None:
            out[i] = x
    return x


def _block_inputs(model: PlantModel, block: InputSequence) -> np.ndarray:
    inputs = block.inputs
    if inputs.shape[1:] != (model.input_dim,):
        raise DimensionMismatch(f"input must have shape ({model.input_dim},), got {inputs.shape[1:]}")
    return inputs


def step(model: PlantModel, x, u, theta) -> np.ndarray:
    """One transition x(t+1) = f(x(t), u(t), theta)."""
    x = _vector(x, model.state_dim, "state")
    u = _vector(u, model.input_dim, "input")
    theta = _vector(theta, model.param_dim, "theta")
    nxt = np.asarray(model.transition(x, u, theta), dtype=float)
    return _vector(nxt, model.state_dim, "transition output")


def simulate(model: PlantModel, x0, u_seq: InputSequence, theta) -> StateSequence:
    """Iterate the plant from x0 under u_seq; returns len(u_seq)+1 states.

    Equivalent to chaining ``step``, with the arguments checked once per call:
    only the shape of each transition output is checked inside the loop. The
    input width and theta are not checked for an empty sequence. Callers that
    need only a short block's last state run the step loop without this call.
    """
    x = _vector(x0, model.state_dim, "initial state")
    n = len(u_seq)
    out = np.empty((n + 1, model.state_dim))
    out[0] = x
    if n:
        _advance(model, x, _block_inputs(model, u_seq), _vector(theta, model.param_dim, "theta"), out[1:])
    return StateSequence(u_seq.start_time, out)


def replay(model: PlantModel, x0, u_seq: InputSequence, theta) -> np.ndarray:
    """The states of ``simulate(model, x0, u_seq, theta)``.

    A recorded sequence keeps them, read-only, in its memo of the last
    REPLAY_MEMO_SIZE replays, keyed on the model's identity and on the shape
    and bytes of x0 and theta (so -0.0 and 0.0 are different keys). A key
    that is already there is served without calling ``simulate``, which a
    pure ``transition`` makes exact.
    """
    memo = u_seq._replays
    if memo is None:
        return simulate(model, x0, u_seq, theta).states
    x0_arr = np.asarray(x0, dtype=float)
    theta_arr = np.asarray(theta, dtype=float)
    key = (id(model), x0_arr.shape, x0_arr.tobytes(), theta_arr.shape, theta_arr.tobytes())
    entry = memo.get(key)
    if entry is not None:
        memo.move_to_end(key)
        return entry[1]
    states = simulate(model, x0, u_seq, theta).states
    states.flags.writeable = False
    # The entry holds the model, so no other model can take over its id.
    memo[key] = (model, states)
    if len(memo) > REPLAY_MEMO_SIZE:
        memo.popitem(last=False)
    return states


def stacked_map(model: PlantModel, x0, u_hist: InputSequence, theta) -> np.ndarray:
    """Flattened predicted states x(1), ..., x(T) under theta and the recorded
    inputs; read-only when u_hist is recorded."""
    if len(u_hist) and u_hist.start_time != 0:
        raise ValueError("input history must start at time 0")
    return replay(model, x0, u_hist, theta)[1:].ravel()


def terminal_map(model: PlantModel, x0, u_hist: InputSequence, block: InputSequence, theta) -> np.ndarray:
    """Terminal state after replaying the full history plus a candidate block.

    The whole trajectory is replayed from x(0), so the result depends on
    theta through every step, not only through the block. The history part
    is looked up in the memo of a recorded u_hist first.
    """
    if len(u_hist) and u_hist.start_time != 0:
        raise ValueError("input history must start at time 0")
    if len(block) and block.start_time != len(u_hist):
        raise ValueError(f"block must start at time {len(u_hist)}, got {block.start_time}")
    x_here = replay(model, x0, u_hist, theta)[-1]
    if len(block) == 0:
        return x_here
    # x_here is a replayed state, so only theta and the block need a check.
    return _advance(model, x_here, _block_inputs(model, block), _vector(theta, model.param_dim, "theta"))


def fd_jacobian(func, x, lower=None, upper=None) -> np.ndarray:
    """Central-difference Jacobian of func at x, per-coordinate step FD_STEP
    scaled by max(1, |x_i|). When a bound clips one side of the stencil the
    difference degrades gracefully to a one-sided quotient. func is evaluated at
    x itself only when the bounds pin every coordinate, to size the zero matrix."""
    x = np.asarray(x, dtype=float)
    jac = None
    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x[i]))
        hi_pt = x[i] + h
        lo_pt = x[i] - h
        if upper is not None:
            hi_pt = min(hi_pt, upper[i])
        if lower is not None:
            lo_pt = max(lo_pt, lower[i])
        denom = hi_pt - lo_pt
        if denom == 0.0:
            continue
        xp = x.copy()
        xp[i] = hi_pt
        xm = x.copy()
        xm[i] = lo_pt
        fp = np.asarray(func(xp), dtype=float).ravel()
        fm = np.asarray(func(xm), dtype=float).ravel()
        if jac is None:
            jac = np.zeros((fp.size, x.size))
        jac[:, i] = (fp - fm) / denom
    if jac is None:
        jac = np.zeros((np.asarray(func(x), dtype=float).size, x.size))
    return jac


def jacobian_theta(model: PlantModel, x0, u_hist: InputSequence, theta) -> np.ndarray:
    """Finite-difference sensitivity of the stacked map to the parameter,
    shape (state_dim * len(u_hist), param_dim). Stencil points are kept inside
    the parameter box."""
    theta = _vector(theta, model.param_dim, "theta")
    if not model.contains_params(theta, atol=1e-12):
        raise ValueError("theta must lie inside the parameter box")
    return fd_jacobian(
        lambda th: stacked_map(model, x0, u_hist, th),
        theta,
        lower=model.param_lower,
        upper=model.param_upper,
    )


def block_end_map(model: PlantModel, x, theta, horizon: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a flattened block of ``horizon`` inputs to the state the
    block drives x to under theta.

    x and theta are checked once, here; each call of the map then runs the
    block through the step loop with no further argument check."""
    x = _vector(x, model.state_dim, "state")
    theta = _vector(theta, model.param_dim, "theta")
    shape = (horizon, model.input_dim)
    return lambda u_flat: _advance(model, x, u_flat.reshape(shape), theta)


def jacobian_input(model: PlantModel, x, block: InputSequence, theta) -> np.ndarray:
    """Finite-difference sensitivity of the block's terminal state to the
    flattened block inputs, shape (state_dim, input_dim * len(block)).

    The block's input width is checked once, and x and theta once by
    ``block_end_map``, whose map each stencil point runs."""
    if len(block) == 0:
        raise ValueError("block must be nonempty")
    _block_inputs(model, block)
    return fd_jacobian(block_end_map(model, x, theta, len(block)), block.flat)


def _rank_and_sigma(matrix, n: int) -> tuple:
    """From one SVD: the number of singular values above 1e-8 times the
    largest one, and the n-th singular value (0 when there are fewer). Both are 0
    for an empty matrix and a non-finite one, such as the Jacobian of an
    overflowing replay."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0 or not np.all(np.isfinite(matrix)):
        return 0, 0.0
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0])), (float(sv[n - 1]) if sv.size >= n else 0.0)


def numeric_rank(matrix) -> int:
    """Count singular values above 1e-8 times the largest one (0 for the zero
    matrix, and for a non-finite one)."""
    return _rank_and_sigma(matrix, 1)[0]


@dataclass(frozen=True)
class ExcitationReport:
    """Outcome of the identifiability rank check over a set of (state, theta) samples."""

    passed: bool
    min_singular_value: float


def excitation_rank_check(model: PlantModel, u_exc: InputSequence, samples: Sequence[tuple]) -> ExcitationReport:
    """Check that the excitation makes the stacked map fully parameter-sensitive.

    Passes iff the stacked-map parameter Jacobian has full column rank at every
    (initial state, theta) sample; reports the smallest singular value seen.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    passed = True
    worst_sigma = np.inf
    for x0, theta in samples:
        rank, sigma = _rank_and_sigma(jacobian_theta(model, x0, u_exc, theta), model.param_dim)
        passed = passed and rank == model.param_dim
        worst_sigma = min(worst_sigma, sigma)
    return ExcitationReport(passed, float(worst_sigma))


def controllability_rank_check(model: PlantModel, x, theta, block: InputSequence) -> bool:
    """True iff the terminal state is fully input-sensitive along the block."""
    return numeric_rank(jacobian_input(model, x, block, theta)) == model.state_dim


def param_grid(model: PlantModel, per_axis: int):
    """Uniform grid over the parameter box, per_axis points per coordinate."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in model.param_box]
    for combo in itertools.product(*axes):
        yield np.array(combo)
