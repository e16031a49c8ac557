"""Discrete ergodic fading models for the two-user Gaussian interference channel.

A fading state collects the four power gains (squared channel magnitudes)
linking the two transmitters to the two receivers.  A fading process is a
finite collection of such states with probabilities; ergodicity means every
long codeword sees the states in their stationary proportions, so only the
per-state gains and their probabilities matter.

Everything downstream (classification, power allocation, sum-rate
optimization) consumes these types.  Rates are in bits per channel use;
``shannon_bits`` is the scalar map snr -> log2(1 + snr) used throughout.
Power policies map fading states to transmit powers and are feasible when
each user's average power stays within its budget to ``POWER_TOL``.

The types are array-native.  A FadingProcess stores one read-only (n, 4)
gain array and one read-only (n,) probability array, validated in one
vectorized pass, and builds FadingState objects only when a caller
iterates its ``states``.  A PowerPolicy stores two read-only (n,) power
arrays.  Neither the Rayleigh sampler nor the JSON reader builds a
per-state object.
"""

from __future__ import annotations

import decimal
import json
import math
import numbers
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

POWER_TOL = 1e-9

# Column order of FadingProcess.gains.
GAIN_FIELDS = ("g11", "g12", "g21", "g22")


class ChannelFormatError(ValueError):
    """Raised when a channel description is malformed; the message names the field."""


class PreconditionError(ValueError):
    """Raised when an operation's structural precondition fails for the given channel."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its budget without meeting tolerance."""


def _is_real(value) -> bool:
    """An int or float, but not a bool (an int subclass that makes no sense as a number here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(obj, field: str) -> float:
    if not _is_real(obj):
        raise ChannelFormatError(f"{field} must be a number, got {obj!r}")
    return float(obj)


def _require_prob(obj, field: str) -> float:
    """A probability of any real type (numpy scalars, Fraction, Decimal too), but not a bool."""
    if not isinstance(obj, (numbers.Real, decimal.Decimal)) or isinstance(obj, bool):
        raise ChannelFormatError(f"{field} must be a number, got {obj!r}")
    return float(obj)


def shannon_bits(snr):
    """Capacity of a scalar Gaussian channel at the given SNR, in bits.

    Accepts scalars or arrays; snr must be >= 0.
    """
    return np.log2(1.0 + snr)


@dataclass(frozen=True)
class FadingState:
    """Power gains of one fading state.

    ``gjk`` is the gain from transmitter k to receiver j, so g11 and g22 are
    the direct links while g12 and g21 carry interference.
    """

    g11: float
    g12: float
    g21: float
    g22: float

    def __post_init__(self) -> None:
        for name in GAIN_FIELDS:
            value = getattr(self, name)
            if not _is_real(value):
                raise ChannelFormatError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value < 0.0:
                raise ChannelFormatError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.g11, self.g12, self.g21, self.g22)


class _Frozen:
    """Attribute assignment raises, as on a frozen dataclass."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _check_gains(gains: np.ndarray) -> None:
    """Name the first state and field whose gain is not finite and >= 0."""
    bad = ~(np.isfinite(gains) & (gains >= 0.0))
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), len(GAIN_FIELDS))
        raise ChannelFormatError(
            f"states[{i}]: {GAIN_FIELDS[j]} must be finite and >= 0, got {float(gains[i, j])!r}"
        )


def _normalized_probs(probs: np.ndarray) -> np.ndarray:
    """Check that probabilities are positive and sum to 1 within 1e-6; rescale exactly."""
    bad = ~(np.isfinite(probs) & (probs > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ChannelFormatError(f"probs[{i}] must be finite and > 0, got {float(probs[i])!r}")
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-6:
        raise ChannelFormatError(f"probabilities sum to {total:g}, expected 1 within 1e-6")
    return probs / total


class FadingProcess(_Frozen):
    """Finite-state fading process: states plus their probabilities.

    Probabilities must be positive and sum to 1 within 1e-6 (they are then
    renormalized exactly).  State order is preserved and meaningful: policies
    index states by position.

    The process stores one read-only (n, 4) array ``gains`` with columns
    (g11, g12, g21, g22) and one read-only (n,) array ``prob_array``.  The
    constructor takes FadingState objects; ``from_arrays`` takes the arrays
    directly.  ``states`` and ``probs`` are tuples derived on first use.
    """

    def __init__(self, states: Sequence[FadingState], probs: Sequence[float]) -> None:
        states, probs = tuple(states), tuple(probs)
        if len(states) == 0:
            raise ChannelFormatError("states must be non-empty")
        if len(states) != len(probs):
            raise ChannelFormatError(f"probs has {len(probs)} entries for {len(states)} states")
        for i, s in enumerate(states):
            if not isinstance(s, FadingState):
                raise ChannelFormatError(f"states[{i}] must be a FadingState, got {s!r}")
        probs = np.array([_require_prob(p, f"probs[{i}]") for i, p in enumerate(probs)])
        gains = np.array([s.as_tuple() for s in states], dtype=float)
        self._own(gains, _normalized_probs(probs))
        self.__dict__["states"] = states

    @staticmethod
    def from_arrays(gains, probs) -> "FadingProcess":
        """Process from an (n, 4) gain array and an (n,) probability array.

        Both are copied and validated in one vectorized pass; an error
        names the first offending state and field.
        """
        try:
            g = np.array(gains, dtype=float)
            p = np.asarray(probs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ChannelFormatError(f"gains and probs must be numeric arrays: {exc}") from exc
        if g.ndim != 2 or g.shape[1] != len(GAIN_FIELDS):
            raise ChannelFormatError(f"gains must have shape (n, 4), got {g.shape}")
        if g.shape[0] == 0:
            raise ChannelFormatError("states must be non-empty")
        if p.shape != (g.shape[0],):
            raise ChannelFormatError(f"probs has shape {p.shape} for {g.shape[0]} states")
        _check_gains(g)
        return object.__new__(FadingProcess)._own(g, _normalized_probs(p))

    def _own(self, gains: np.ndarray, probs: np.ndarray) -> "FadingProcess":
        """Take already validated arrays as storage; they become read-only."""
        gains.setflags(write=False)
        probs.setflags(write=False)
        self.__dict__.update(gains=gains, prob_array=probs)
        return self

    @property
    def n_states(self) -> int:
        return self.prob_array.shape[0]

    @cached_property
    def gain_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-state gain vectors (g11, g12, g21, g22), read-only column views of ``gains``."""
        return tuple(self.gains.T)

    @cached_property
    def states(self) -> tuple[FadingState, ...]:
        return tuple(FadingState(*row) for row in self.gains.tolist())

    @cached_property
    def probs(self) -> tuple[float, ...]:
        return tuple(self.prob_array.tolist())

    def swap_users(self) -> "FadingProcess":
        """Mirror image with user indices 1 and 2 exchanged in every state.

        Reversing the columns maps (g11, g12, g21, g22) to (g22, g21, g12, g11);
        the probabilities are shared, not renormalized, so swapping twice
        gives back an equal process.
        """
        return object.__new__(FadingProcess)._own(self.gains[:, ::-1].copy(), self.prob_array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FadingProcess):
            return NotImplemented
        return np.array_equal(self.gains, other.gains) and np.array_equal(
            self.prob_array, other.prob_array
        )

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, so equal processes hash equally.
        return hash(((self.gains + 0.0).tobytes(), self.prob_array.tobytes()))

    def __repr__(self) -> str:
        return f"FadingProcess(n_states={self.n_states})"


StateLike = FadingState | Sequence[float]


def make_discrete_channel(weighted_states: Iterable[tuple[StateLike, float]]) -> FadingProcess:
    """Build a FadingProcess from (state, probability) pairs.

    States may be FadingState instances or (g11, g12, g21, g22) sequences.
    Probabilities must sum to 1 within 1e-6.  Each entry's types are
    checked as it is read; the values are then validated as one array.
    """
    rows: list = []
    probs: list[float] = []
    for i, item in enumerate(weighted_states):
        try:
            raw_state, prob = item
        except (TypeError, ValueError) as exc:
            raise ChannelFormatError(f"entry {i} is not a (state, probability) pair") from exc
        if isinstance(raw_state, FadingState):
            rows.append(raw_state.as_tuple())
        else:
            gains = tuple(raw_state)
            if len(gains) != len(GAIN_FIELDS):
                raise ChannelFormatError(
                    f"entry {i}: state needs 4 gains (g11, g12, g21, g22), got {len(gains)}"
                )
            rows.append([_require_number(g, f"entry {i}: {k}") for k, g in zip(GAIN_FIELDS, gains)])
        probs.append(_require_prob(prob, f"entry {i}: probability"))
    if not rows:
        raise ChannelFormatError("states must be non-empty")
    return FadingProcess.from_arrays(rows, probs)


def sample_rayleigh_channel(
    sigma2: float,
    direct_gains: tuple[float, float] = (1.0, 1.0),
    n_samples: int = 20000,
    seed: int = 0,
) -> FadingProcess:
    """Equiprobable Monte Carlo discretization of a Rayleigh-faded cross-link channel.

    Cross gains are i.i.d. exponential with mean ``sigma2`` (the squared
    magnitude of a complex Gaussian with variance sigma2 per link); direct
    gains are fixed at ``direct_gains``.  The same seed always yields the
    same process: g12 is drawn first, then g21.
    """
    if not (sigma2 > 0) or not math.isfinite(sigma2):
        raise ChannelFormatError(f"sigma2 must be finite and > 0, got {sigma2!r}")
    if not isinstance(n_samples, numbers.Integral) or isinstance(n_samples, bool):
        raise ChannelFormatError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise ChannelFormatError(f"n_samples must be >= 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    gains = np.empty((n_samples, 4))
    gains[:, 0] = float(direct_gains[0])
    gains[:, 1] = rng.exponential(scale=sigma2, size=n_samples)
    gains[:, 2] = rng.exponential(scale=sigma2, size=n_samples)
    gains[:, 3] = float(direct_gains[1])
    return FadingProcess.from_arrays(gains, np.full(n_samples, 1.0 / n_samples))


@dataclass(frozen=True)
class PowerBudget:
    """Long-term average transmit power limits for the two users.

    Budgets are finite and >= 0; a zero budget silences that user.
    """

    p1_bar: float
    p2_bar: float

    def __post_init__(self) -> None:
        for name in ("p1_bar", "p2_bar"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ChannelFormatError(f"budget {name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value < 0.0:
                raise ChannelFormatError(f"budget {name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))


def _power_array(values) -> np.ndarray:
    """A float copy of one user's powers.

    Entries that do not form a numeric array go through float() one by
    one, so None raises TypeError instead of becoming NaN.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        a = np.array([float(x) for x in values])
    return np.array(a, dtype=float)


class PowerPolicy(_Frozen):
    """Per-state transmit powers for both users, indexed like the process states.

    The powers live in two read-only (n,) arrays, ``arrays``; the
    constructor and ``from_arrays`` copy their inputs.  ``p1`` and ``p2``
    are tuples derived on first use.
    """

    def __init__(self, p1, p2) -> None:
        a1, a2 = _power_array(p1), _power_array(p2)
        if a1.ndim != 1 or a1.shape != a2.shape:
            raise ChannelFormatError(
                f"policy arrays disagree: shapes {a1.shape} and {a2.shape}, expected (n,) and (n,)"
            )
        a1.setflags(write=False)
        a2.setflags(write=False)
        self.__dict__["arrays"] = (a1, a2)

    @cached_property
    def p1(self) -> tuple[float, ...]:
        return tuple(self.arrays[0].tolist())

    @cached_property
    def p2(self) -> tuple[float, ...]:
        return tuple(self.arrays[1].tolist())

    @staticmethod
    def from_arrays(p1: np.ndarray, p2: np.ndarray) -> "PowerPolicy":
        return PowerPolicy(p1, p2)

    @staticmethod
    def constant(p1: float, p2: float, n_states: int) -> "PowerPolicy":
        return PowerPolicy(np.full(n_states, float(p1)), np.full(n_states, float(p2)))

    def swap_users(self) -> "PowerPolicy":
        """The same powers with the users' columns exchanged."""
        return PowerPolicy(self.arrays[1], self.arrays[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerPolicy):
            return NotImplemented
        return all(map(np.array_equal, self.arrays, other.arrays))

    def __hash__(self) -> int:
        return hash(tuple((a + 0.0).tobytes() for a in self.arrays))

    def __repr__(self) -> str:
        return f"PowerPolicy(p1={self.p1!r}, p2={self.p2!r})"


@dataclass(frozen=True)
class PolicyFeasibility:
    """Budget audit of a policy: average powers and whether each respects its cap."""

    mean_p1: float
    mean_p2: float
    within_p1: bool
    within_p2: bool
    has_negative: bool

    @property
    def feasible(self) -> bool:
        return self.within_p1 and self.within_p2 and not self.has_negative


def expect(process: FadingProcess, values) -> float:
    """Expectation over the fading process.

    ``values`` is either an array of per-state numbers or a callable mapping
    FadingState to a number.
    """
    if callable(values):
        values = np.array([values(s) for s in process.states], dtype=float)
    else:
        values = np.asarray(values, dtype=float)
        if values.shape != (process.n_states,):
            raise ValueError(
                f"expected {process.n_states} per-state values, got shape {values.shape}"
            )
    return float(np.dot(process.prob_array, values))


def validate_policy(
    process: FadingProcess, policy: PowerPolicy, budget: PowerBudget
) -> PolicyFeasibility:
    """Audit a policy against the power budgets at tolerance POWER_TOL."""
    p1, p2 = policy.arrays
    if p1.shape != (process.n_states,):
        raise ChannelFormatError(
            f"policy has {p1.shape[0]} states, process has {process.n_states}"
        )
    mean1 = float(np.dot(process.prob_array, p1))
    mean2 = float(np.dot(process.prob_array, p2))
    return PolicyFeasibility(
        mean_p1=mean1,
        mean_p2=mean2,
        within_p1=mean1 <= budget.p1_bar + POWER_TOL,
        within_p2=mean2 <= budget.p2_bar + POWER_TOL,
        has_negative=bool((p1 < 0).any() or (p2 < 0).any()),
    )


_STATE_KEYS = (*GAIN_FIELDS, "p")


def _state_rows(raw_states: list) -> list[list]:
    """The (g11, g12, g21, g22, p) values of every state entry, type-checked.

    The error names the first offending entry and field.
    """
    rows = []
    for i, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise ChannelFormatError(f"states[{i}] must be an object")
        row = []
        for key in _STATE_KEYS:
            if key not in entry:
                raise ChannelFormatError(f"states[{i}] missing field '{key}'")
            row.append(_require_number(entry[key], f"states[{i}].{key}"))
        rows.append(row)
    return rows


def channel_from_dict(doc: dict) -> tuple[FadingProcess, PowerBudget]:
    """Parse the JSON channel description into a process and budget.

    Expected shape::

        {"states": [{"g11": .., "g12": .., "g21": .., "g22": .., "p": ..}, ...],
         "budget": {"p1": .., "p2": ..}}

    Raises ChannelFormatError naming the offending field on any problem.
    """
    if not isinstance(doc, dict):
        raise ChannelFormatError("top-level document must be a JSON object")
    if "states" not in doc:
        raise ChannelFormatError("missing required field 'states'")
    if "budget" not in doc:
        raise ChannelFormatError("missing required field 'budget'")
    raw_states = doc["states"]
    if not isinstance(raw_states, list) or not raw_states:
        raise ChannelFormatError("'states' must be a non-empty list")
    rows = _state_rows(raw_states)
    table = np.array(rows, dtype=float)
    # Gain errors name their state without the "states: " prefix below.
    _check_gains(table[:, :4])
    raw_budget = doc["budget"]
    if not isinstance(raw_budget, dict):
        raise ChannelFormatError("'budget' must be an object")
    for key in ("p1", "p2"):
        if key not in raw_budget:
            raise ChannelFormatError(f"budget missing field '{key}'")
    budget = PowerBudget(
        p1_bar=_require_number(raw_budget["p1"], "budget.p1"),
        p2_bar=_require_number(raw_budget["p2"], "budget.p2"),
    )
    try:
        process = FadingProcess.from_arrays(table[:, :4], table[:, 4])
    except ChannelFormatError as exc:
        raise ChannelFormatError(f"states: {exc}") from exc
    return process, budget


def load_channel_json(path: str) -> tuple[FadingProcess, PowerBudget]:
    """Read a channel JSON file; see channel_from_dict for the format."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChannelFormatError(f"cannot read channel file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"channel file {path!r} is not valid JSON: {exc}") from exc
    return channel_from_dict(doc)


def channel_to_dict(process: FadingProcess, budget: PowerBudget) -> dict:
    """Inverse of channel_from_dict."""
    return {
        "states": [
            dict(zip((*GAIN_FIELDS, "p"), (*gains, p)))
            for gains, p in zip(process.gains.tolist(), process.prob_array.tolist())
        ],
        "budget": {"p1": budget.p1_bar, "p2": budget.p2_bar},
    }
