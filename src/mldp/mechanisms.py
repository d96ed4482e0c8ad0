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

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .histogram import Histogram
from .workload import Workload, _integer, evaluate_workload, range_workload, workload_sensitivity

__all__ = [
    "InsufficientBudgetError",
    "PrivacyBudget",
    "NoisyAnswerSet",
    "laplace_sample",
    "laplace_batch",
    "mwem_publish",
    "strategy_mechanism",
    "clamp_nonnegative",
    "save_noisy_answers",
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
    mechanism: str = "laplace"

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


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not epsilon > 0 or math.isnan(epsilon):
        raise ValueError("epsilon must be positive")
    return epsilon


def clamp_nonnegative(answers: np.ndarray) -> np.ndarray:
    """Post-processing that floors released answers at zero."""
    return np.maximum(np.asarray(answers, dtype=float), 0.0)


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
    epsilon = _check_epsilon(epsilon)
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
    round (see :func:`_mw_replay`).  The refit only post-processes
    released measurements.  Returns the final synthetic histogram and
    its answers to the workload.

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
    epsilon = _check_epsilon(epsilon)
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
    """
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


def _strategy_workload(strategy: str, d: int) -> Workload:
    """The d single bins, or the dyadic intervals over d padded to 2^k, root level first."""
    if strategy == "identity":
        return range_workload(d, np.arange(d), np.arange(d))
    if strategy == "hierarchical":
        padded = 1 << (d - 1).bit_length()
        lengths = padded >> np.arange(padded.bit_length())
        lo = np.concatenate([np.arange(0, padded, n) for n in lengths])
        return range_workload(padded, lo, lo + np.repeat(lengths, padded // lengths) - 1)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _strategy_estimate(strategy: str, measured: np.ndarray) -> np.ndarray:
    """The ridge solution ``(F^T F + ridge I)^-1 F^T y`` over the strategy's bins.

    F is the matrix of ``_strategy_workload(strategy, d)``, y its noisy
    answers ``measured`` (in that workload's row order) and ridge is
    ``_RECONSTRUCTION_RIDGE``; the solution is exact for either
    structure, with no matrix formed.

    identity       F = I, so the solution is ``y / (1 + ridge)``.
    hierarchical   F^T F is one all-ones block per tree node, which the
                   Haar basis diagonalizes: a wavelet whose support is
                   n bins has eigenvalue n - 1, and the constant vector
                   over the p padded bins has 2p - 1.  F^T y adds each
                   level's answers over its blocks; one Haar transform,
                   a scaling by 1 / (eigenvalue + ridge) and the inverse
                   transform then give the solution in O(p).
    """
    ridge = _RECONSTRUCTION_RIDGE
    if strategy == "identity":
        return measured / (1.0 + ridge)
    # The p padded bins; tree level k holds rows 2^k - 1 .. 2^(k+1) - 2.
    p = (measured.size + 1) // 2
    # F^T y, root level first: each bin sums its block's answer at every level.
    x = measured[:1]
    while x.size < p:
        x = np.repeat(x, 2) + measured[2 * x.size - 1 : 4 * x.size - 1]
    # Forward Haar transform, unnormalized: block sums and left-minus-right
    # differences, leaves first.
    differences = []
    while x.size > 1:
        left, right = x[0::2], x[1::2]
        differences.append(left - right)
        x = left + right
    # Scale and invert, root first.  A block of n bins with sums L and R
    # on its halves adds +-(L - R) / (n * (n - 1 + ridge)) to them.
    v = x / (p * (2 * p - 1 + ridge))
    n = p
    for difference in reversed(differences):
        step = difference / (n * (n - 1 + ridge))
        v = np.stack((v + step, v - step), axis=1).ravel()
        n >>= 1
    return v


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
    scaled to A's own sensitivity.  The bin estimate is the exact ridge
    solution for A's structure (see :func:`_strategy_estimate`), and the
    requested workload is answered exactly on that estimate.  Charges
    exactly ``epsilon``.
    """
    if workload.d != hist.d:
        raise ValueError(f"workload has d={workload.d}, histogram has d={hist.d}")
    epsilon = _check_epsilon(epsilon)
    strategy_workload = _strategy_workload(strategy, hist.d)
    if budget is None:
        budget = PrivacyBudget(epsilon)
    budget.charge(f"strategy {strategy}", epsilon)

    padded = Histogram(np.pad(hist.bins, (0, strategy_workload.d - hist.d)))
    measured = _release(strategy_workload, padded, epsilon, seed)
    estimate = _strategy_estimate(strategy, measured.answers)

    return NoisyAnswerSet(
        workload,
        workload.matrix @ estimate[: hist.d],
        sensitivity_used=measured.sensitivity_used,
        epsilon_used=epsilon,
        seed=seed,
        mechanism=f"strategy-{strategy}",
    )


def save_noisy_answers(result: NoisyAnswerSet, path) -> None:
    """Write answers as (query_id, answer) CSV plus a JSON sidecar.

    The sidecar ``<path minus extension>.meta.json`` records epsilon,
    the sensitivity used, the seed, and the mechanism name.
    """
    from pathlib import Path

    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "answer"])
        for i, value in enumerate(result.answers):
            writer.writerow([i, repr(float(value))])
    meta = {
        "epsilon": result.epsilon_used,
        "sensitivity": result.sensitivity_used,
        "seed": result.seed,
        "mechanism": result.mechanism,
    }
    with open(path.with_suffix(".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
