"""Randomized release mechanisms and privacy-budget accounting.

Every mechanism here is a deterministic function of its inputs and an
integer seed, charges its full declared epsilon to a budget ledger
before sampling any noise, and satisfies epsilon-differential privacy
with respect to single-record (+/-1 in one bin) neighbors.

Passing ``epsilon=math.inf`` turns every noise scale into zero while
leaving all code paths intact.  That mode exists so tests can check
exactness properties; the command-line interface refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .histogram import Histogram, _seed
from .learning import _check_real, _dyadic_bounds, fit_linear
from .workload import Workload, _integer, evaluate_workload, range_workload, workload_sensitivity

__all__ = [
    "InsufficientBudgetError",
    "PrivacyBudget",
    "NoisyAnswerSet",
    "laplace_sample",
    "laplace_batch",
    "mwem_publish",
    "strategy_mechanism",
]

# Tikhonov term that keeps the strategy reconstruction well-posed.
_RECONSTRUCTION_RIDGE = 1e-9

STRATEGIES = ("identity", "hierarchical")


class InsufficientBudgetError(RuntimeError):
    """Raised when a charge would push a ledger past its total epsilon."""


class PrivacyBudget:
    """Append-only epsilon ledger with a hard total.

    Charges are strictly positive and recorded as (label, epsilon)
    entries; a charge that would exceed the total (beyond a relative
    float tolerance of 1e-9) raises InsufficientBudgetError and leaves
    the ledger untouched.
    """

    __slots__ = ("_total", "_charges")

    def __init__(self, epsilon_total: float):
        _check_real(epsilon_total, "epsilon_total", "PrivacyBudget")
        epsilon_total = float(epsilon_total)
        if not epsilon_total > 0 or math.isnan(epsilon_total):
            raise ValueError("epsilon_total must be positive")
        self._total = epsilon_total
        self._charges: list[tuple[str, float]] = []

    @property
    def epsilon_total(self) -> float:
        return self._total

    @property
    def ledger(self) -> tuple[tuple[str, float], ...]:
        return tuple(self._charges)

    @property
    def spent(self) -> float:
        return math.fsum(eps for _, eps in self._charges)

    @property
    def remaining(self) -> float:
        if math.isinf(self._total):
            return math.inf
        return max(0.0, self._total - self.spent)

    def charge(self, label: str, epsilon: float) -> None:
        _check_real(epsilon, "epsilon", "PrivacyBudget.charge")
        epsilon = float(epsilon)
        if not epsilon > 0 or math.isnan(epsilon):
            raise ValueError("charges must be strictly positive")
        self._check_fits(label, epsilon)
        self._charges.append((str(label), epsilon))

    def _check_fits(self, label: str, epsilon: float) -> None:
        """Raise InsufficientBudgetError unless epsilon more fits; charges nothing."""
        if not math.isinf(self._total):
            slack = 1e-9 * max(1.0, self._total)
            if self.spent + epsilon > self._total + slack:
                raise InsufficientBudgetError(
                    f"charge {epsilon} for {label!r} exceeds remaining "
                    f"budget {self.remaining} of {self._total}"
                )

    def __repr__(self):
        return (
            f"PrivacyBudget(total={self._total}, spent={self.spent}, "
            f"charges={len(self._charges)})"
        )


@dataclass(frozen=True)
class NoisyAnswerSet:
    """Noisy answers to a workload plus the release parameters used.

    ``sensitivity_used`` is the sensitivity that scaled the noise: the
    joint workload sensitivity for direct Laplace answering, or the
    strategy sensitivity when the answers were reconstructed from a
    strategy's noisy measurements.

    It is also what :func:`~mldp.learning.fit_linear` and
    :func:`~mldp.learning.fit_rbf` fit: the workload's rows are the
    training features, the answers the targets, and the rest goes into
    the model's metadata.
    """

    workload: Workload
    answers: np.ndarray
    sensitivity_used: float
    epsilon_used: float
    seed: int | None

    def __post_init__(self):
        answers = np.array(self.answers, dtype=float)
        if answers.ndim != 1 or answers.size != self.workload.m:
            raise ValueError(
                f"{answers.size} answers for a workload of {self.workload.m} queries"
            )
        answers.setflags(write=False)
        object.__setattr__(self, "answers", answers)


def laplace_sample(scale: float, rng) -> float:
    """One draw from Laplace(0, scale); exactly 0.0 when scale is 0."""
    _check_real(scale, "scale", "laplace_sample")
    scale = float(scale)
    if scale < 0 or math.isnan(scale):
        raise ValueError("scale must be non-negative")
    if scale == 0:
        return 0.0
    return float(rng.laplace(0.0, scale))


def _laplace_noise(scale: float, size: int, rng) -> np.ndarray:
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if scale == 0:
        return np.zeros(size)
    return rng.laplace(0.0, scale, size=size)


def _noise_scale(sensitivity: float, epsilon: float) -> float:
    if math.isinf(epsilon):
        return 0.0
    return sensitivity / epsilon


def _check_epsilon(epsilon: float, caller: str) -> float:
    """epsilon as a float: a bool, string or other non-number is refused, not coerced."""
    _check_real(epsilon, "epsilon", caller)
    epsilon = float(epsilon)
    if not epsilon > 0 or math.isnan(epsilon):
        raise ValueError("epsilon must be positive")
    return epsilon


def laplace_batch(
    workload: Workload,
    hist: Histogram,
    budget: PrivacyBudget,
    epsilon: float,
    seed: int | None,
) -> NoisyAnswerSet:
    """Answer a whole workload in one epsilon-DP Laplace release.

    Every answer gets independent Laplace noise with scale S/epsilon
    where S is the joint workload sensitivity, and the budget is charged
    exactly ``epsilon`` once, before sampling.  An empty workload
    returns empty answers and charges nothing.
    """
    if workload.d != hist.d:
        raise ValueError(f"workload has d={workload.d}, histogram has d={hist.d}")
    epsilon = _check_epsilon(epsilon, "laplace_batch")
    seed = _seed(seed)
    if workload.m == 0:
        return NoisyAnswerSet(workload, np.zeros(0), 0.0, epsilon, seed)
    budget.charge(f"laplace batch m={workload.m}", epsilon)
    return _release(workload, hist, epsilon, seed)


def _release(workload: Workload, hist: Histogram, epsilon: float, seed) -> NoisyAnswerSet:
    """Laplace answers scaled to the workload's joint sensitivity; charges nothing."""
    sensitivity = workload_sensitivity(workload)
    rng = np.random.default_rng(seed)
    scale = _noise_scale(sensitivity, epsilon)
    answers = evaluate_workload(workload, hist) + _laplace_noise(scale, workload.m, rng)
    return NoisyAnswerSet(workload, answers, sensitivity, epsilon, seed)


def _exponential_mechanism(scores: np.ndarray, epsilon: float, rng) -> int:
    """Sample an index with probability proportional to exp(eps*score/2).

    Scores are max-shifted before exponentiation to avoid overflow.  In
    the noise-disabled (infinite epsilon) mode this degenerates to the
    argmax with ties broken by lowest index.
    """
    if math.isinf(epsilon):
        return int(np.argmax(scores))
    weights = np.exp(0.5 * epsilon * (scores - scores.max()))
    return int(rng.choice(scores.size, p=weights / weights.sum()))


def mwem_publish(
    workload: Workload,
    hist: Histogram,
    epsilon: float,
    rounds: int,
    seed: int | None,
    *,
    budget: PrivacyBudget | None = None,
    mw_iters: int = 20,
    on_round=None,
) -> tuple[Histogram, np.ndarray]:
    """Multiplicative-weights release of a synthetic histogram.

    Starts from the uniform histogram with the true total.  Each of the
    ``rounds`` rounds spends epsilon/(2*rounds) selecting the currently
    worst-approximated workload query through the exponential mechanism
    (score = absolute error of the synthetic answer) and another
    epsilon/(2*rounds) measuring the selected query with Laplace noise.
    Both steps are scaled to the sensitivity of one query answer, the
    largest absolute coefficient in the workload (1 for 0/1 queries).
    The whole epsilon must fit in the budget before the first draw,
    and is charged round by round.  After each round the synthetic bins
    are refit to the full measurement history with ``mw_iters`` passes
    of the multiplicative weights update, one step per measurement

        bins_j <- bins_j * exp(coeffs[j] * (measured - estimate) / (2 * total))

    with the bins held to the true total, which keeps them positive.
    The refit holds the bins as ``s * u`` with ``s = total / sum(u)``,
    so a step rescales only its query's support (exp(0) = 1 elsewhere)
    and updates a running sum of ``u``; ``u`` is rescaled to the true
    total at the start of every pass, and the bins are formed once per
    round (see :func:`_mw_replay`).  While every measured query is a
    range, the endpoints of the measured ranges cut the domain into at
    most 2t + 1 cells after t rounds, every bin of a cell moves by the
    same factor, and up to 80 cells the refit steps one sum per cell
    instead of the bins (see :func:`_mw_replay_cells`).  The refit only
    post-processes released measurements.  Returns the final synthetic
    histogram and its answers to the workload.

    ``on_round`` (if given) is called with (round_index, bins_copy)
    after each round, for instrumentation.
    """
    if workload.d != hist.d:
        raise ValueError(f"workload has d={workload.d}, histogram has d={hist.d}")
    if workload.m == 0:
        raise ValueError("the workload must contain at least one query")
    rounds = _integer(rounds, "rounds")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if _integer(mw_iters, "mw_iters") < 1:
        raise ValueError("mw_iters must be at least 1")
    seed = _seed(seed)
    epsilon = _check_epsilon(epsilon, "mwem_publish")
    total = hist.total
    if total <= 0:
        raise ValueError("the histogram must contain at least one record")
    if budget is None:
        budget = PrivacyBudget(epsilon)

    budget._check_fits("mwem", epsilon)

    matrix = workload.matrix
    # Moving one record changes any one query answer, and so any score,
    # by at most the largest absolute coefficient.
    sensitivity = float(np.abs(matrix).max())
    eps_round = epsilon / (2 * rounds)
    # An all-zero workload reads no data: its selection is the argmax.
    select_epsilon = eps_round / sensitivity if sensitivity > 0 else math.inf
    measurement_scale = _noise_scale(sensitivity, eps_round)
    rng = np.random.default_rng(seed)
    truth = evaluate_workload(workload, hist)
    weights = np.full(hist.d, total / hist.d)
    bins = weights.copy()
    history: list[tuple] = []

    for t in range(rounds):
        scores = np.abs(matrix @ bins - truth)
        budget.charge(f"mwem select round {t + 1}", eps_round)
        picked = _exponential_mechanism(scores, select_epsilon, rng)
        budget.charge(f"mwem measure round {t + 1}", eps_round)
        measured = truth[picked] + _laplace_noise(measurement_scale, 1, rng)[0]
        history.append((*_mw_support(workload, picked), measured))
        bins = _mw_replay(weights, total, history, mw_iters)
        if on_round is not None:
            on_round(t, bins.copy())

    synthetic = Histogram(bins)
    return synthetic, evaluate_workload(workload, synthetic)


def _mw_support(workload: Workload, i: int) -> tuple:
    """The bins a multiplicative-weights step on query ``i`` changes.

    A range gives ``(slice(lo, hi + 1), None)``: every coefficient on
    it is 1.  Any other query gives its nonzero bins and their
    coefficients.
    """
    if workload._kinds[i] == "range":
        return slice(workload._lo[i], workload._hi[i] + 1), None
    row = workload.matrix[i]
    support = np.flatnonzero(row)
    return support, row[support]


def _mw_replay(weights: np.ndarray, total: float, history, mw_iters: int) -> np.ndarray:
    """Refit ``weights`` in place to ``history``; returns the bins they give.

    ``history`` holds ``(support, coeffs, measured)`` entries from
    :func:`_mw_support`.  Each of the ``mw_iters`` passes replays every
    entry once, in order, with the update of :func:`mwem_publish`.

    The bins are ``s * weights`` with ``s = total / mass`` and ``mass``
    the running sum of the weights, so a step touches only its query's
    support.  A range multiplies its slice by one scalar ``f`` and adds
    ``(f - 1) * part`` to the mass, where ``part`` is the slice's sum;
    any other query multiplies its support by ``exp(coeffs * delta)``
    and adds the change of the support's sum.  Each pass starts by
    scaling the weights back to the true total, so the running sum's
    rounding error cannot build up across passes and the weights cannot
    drift out of the float range.  A step that would move the mass by
    more than a factor of two rescales the same way, since its running
    sum would cancel badly.

    A history of ranges that cut the domain into at most
    ``_MAX_REFIT_CELLS`` cells is refit on the cells instead of the bins
    (see :func:`_mw_replay_cells`).  Past that, and for a history with a
    subset or general row, the per-bin steps are the faster ones.
    """
    if all(coeffs is None for _, coeffs, _ in history):
        cuts = {0, weights.size}
        for support, _, _ in history:
            cuts.add(support.start)
            cuts.add(support.stop)
        if len(cuts) - 1 <= _MAX_REFIT_CELLS:
            return _mw_replay_cells(weights, total, history, sorted(cuts), mw_iters)
    # Views of ranges stay valid because every update writes in place.
    steps = [
        (weights[support] if coeffs is None else support, coeffs, value)
        for support, coeffs, value in history
    ]
    two_total = 2.0 * total
    add = np.add.reduce  # ndarray.sum without its Python-level wrapper
    for _ in range(mw_iters):
        weights *= total / add(weights)
        mass = total
        for target, coeffs, value in steps:
            scale = total / mass
            if coeffs is None:
                part = add(target)
                factor = math.exp((value - scale * part) / two_total)
                target *= factor
                change = (factor - 1.0) * part
            else:
                old = weights[target]
                new = old * np.exp(coeffs * ((value - scale * (coeffs @ old)) / two_total))
                weights[target] = new
                change = new.sum() - old.sum()
            if -0.5 * mass < change < mass:
                mass += change
            else:
                weights *= total / weights.sum()
                mass = total
    return weights * (total / weights.sum())


# A cell step runs two Python loops over the cells its range covers; a
# per-bin step makes a few numpy calls whatever the range.  Refitting
# random range histories (20 passes, one BLAS thread, x86-64), the cells
# were the faster up to about 90 cells at d = 128 and 512, 125 at
# d = 2048 and 180 at d = 8192, and took half the time at 21 cells.
_MAX_REFIT_CELLS = 80


def _mw_replay_cells(
    weights: np.ndarray, total: float, history, cuts: list, mw_iters: int
) -> np.ndarray:
    """:func:`_mw_replay` for a history of ranges, one float per cell.

    ``cuts`` are the sorted distinct endpoints ``lo`` and ``hi + 1`` of
    the measured ranges, with 0 and d; they cut the domain into cells,
    at most 2t + 1 of them for t ranges.
    Every range covers whole cells, so every bin of a cell gets the same
    factor at every step, and the refit runs on the cells' sums of
    weights with the same steps, running mass and rescales as the
    per-bin refit.  At the end each bin is scaled by its cell's final
    sum over its initial sum; a cell whose initial sum is 0 holds only
    zero bins, which no factor changes.  Sums add in a plain loop, in
    order, so the result does not depend on how the Python version
    sums floats.
    """
    cell = {cut: k for k, cut in enumerate(cuts)}
    steps = [(cell[support.start], cell[support.stop], value) for support, _, value in history]
    initial = np.add.reduceat(weights, cuts[:-1])
    sums = initial.tolist()
    two_total = 2.0 * total
    for _ in range(mw_iters):
        sums = _scaled_to(total, sums)
        mass = total
        for first, stop, value in steps:
            part = 0.0
            for k in range(first, stop):
                part += sums[k]
            factor = math.exp((value - total / mass * part) / two_total)
            for k in range(first, stop):
                sums[k] *= factor
            change = (factor - 1.0) * part
            if -0.5 * mass < change < mass:
                mass += change
            else:
                sums = _scaled_to(total, sums)
                mass = total
    lengths = np.diff(cuts)
    # Bin over its cell's initial sum first: the sums' ratio alone can overflow.
    weights /= np.repeat(np.where(initial > 0, initial, 1.0), lengths)
    weights *= np.repeat(sums, lengths)
    return weights * (total / weights.sum())


def _scaled_to(total: float, sums: list) -> list:
    """``sums`` scaled to add up to ``total``, added in a plain loop."""
    mass = 0.0
    for part in sums:
        mass += part
    scale = total / mass
    return [part * scale for part in sums]


def _strategy_workload(strategy: str, d: int) -> Workload:
    """The d single bins, or the dyadic intervals over d padded to 2^k, root level first."""
    if strategy == "identity":
        return range_workload(d, np.arange(d), np.arange(d))
    if strategy == "hierarchical":
        padded = 1 << (d - 1).bit_length()
        return range_workload(padded, *_dyadic_bounds(padded))
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def strategy_mechanism(
    workload: Workload,
    strategy: str,
    hist: Histogram,
    epsilon: float,
    seed: int | None,
    *,
    budget: PrivacyBudget | None = None,
) -> NoisyAnswerSet:
    """Answer a workload through a fixed measurement strategy.

    The strategy workload A (singleton bins, or the dyadic interval tree
    over the domain padded to a power of two) gets one Laplace release
    scaled to A's own sensitivity.  The bin estimate is the linear model
    :func:`~mldp.learning.fit_linear` fits to that release with ridge
    ``_RECONSTRUCTION_RIDGE``, which it solves in closed form for both
    structures, and the requested workload is answered exactly on that
    estimate.  Charges exactly ``epsilon``.
    """
    if workload.d != hist.d:
        raise ValueError(f"workload has d={workload.d}, histogram has d={hist.d}")
    epsilon = _check_epsilon(epsilon, "strategy_mechanism")
    seed = _seed(seed)
    strategy_workload = _strategy_workload(strategy, hist.d)
    if budget is None:
        budget = PrivacyBudget(epsilon)
    budget.charge(f"strategy {strategy}", epsilon)

    padded = Histogram(np.pad(hist.bins, (0, strategy_workload.d - hist.d)))
    measured = _release(strategy_workload, padded, epsilon, seed)
    model = fit_linear(measured, ridge=_RECONSTRUCTION_RIDGE)

    return NoisyAnswerSet(
        workload,
        workload.matrix @ model.weights[1 : hist.d + 1],
        sensitivity_used=measured.sensitivity_used,
        epsilon_used=epsilon,
        seed=seed,
    )
