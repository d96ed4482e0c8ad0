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
    While every measured query is a range, the refit steps one sum per
    cell of the domain the measured ranges cut (see
    :func:`_mw_refit_cells`); once a subset or general row is measured
    it steps the bins (see :func:`_mw_replay`).  A step whose factor
    leaves the float range takes the update's limit instead, which can
    leave bins at 0 (see :func:`_mw_limit`).  The refit only
    post-processes released measurements.  Returns the final synthetic
    histogram and its answers to the workload.

    This is one run of the engine :func:`_mwem_runs`, which advances
    any number of runs together and gives each the bytes it has alone.

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
    if budget is None:
        budget = PrivacyBudget(epsilon)
    truth = evaluate_workload(workload, hist)
    runs = [(0, epsilon, seed, budget, on_round)]
    ((_, bins, _),) = _mwem_runs(hist, [(workload, truth)], runs, rounds, mw_iters)
    synthetic = Histogram(bins)
    return synthetic, evaluate_workload(workload, synthetic)


class _MwemRun:
    """One run's noise, budget and weights inside :func:`_mwem_runs`."""

    __slots__ = (
        "budget", "on_round", "rng", "eps_round", "select_epsilon", "scale", "weights", "history"
    )


def _mwem_runs(hist: Histogram, groups: list, runs: list, rounds: int, mw_iters: int = 20):
    """Advance independent MWEM runs over ``hist`` round by round.

    ``groups`` holds ``(workload, truth)`` pairs: a workload is a
    :class:`Workload` or the ``(lo, hi)`` bound arrays of a range
    workload over ``hist.d``, and ``truth`` its exact answers.  A
    bounds workload's matrix is written into one buffer shared by all
    of them when it is used, so the engine holds one matrix, whatever
    the number of groups.  ``runs`` holds ``(group index, epsilon,
    seed, budget, on_round)`` tuples; each run follows
    :func:`mwem_publish` with its own generator and budget, so its
    picks, measurements and charges do not depend on the other runs.

    Each round scores, picks and measures every run group by group,
    then refits all runs whose measured queries are ranges in one
    lockstep :func:`_mw_refit_cells` and every other run with
    :func:`_mw_replay`.  A run holds its weights (d floats) and its
    measurements, the ranges' bounds and values in three (runs x
    rounds) arrays; its bins are formed from the weights when they are
    scored.  After the last round the engine yields ``(run index,
    bins, matrix)`` for each run, group by group; ``matrix`` is the
    run's workload matrix, valid until the next item.
    """
    total, d = hist.total, hist.d
    if total <= 0:
        raise ValueError("the histogram must contain at least one record")
    for _, epsilon, _, budget, _ in runs:
        budget._check_fits("mwem", epsilon)
    sizes = [workload[0].size for workload, _ in groups if not isinstance(workload, Workload)]
    buffer = np.empty((max(sizes, default=0), d))
    columns = np.arange(d)

    def matrix_of(workload):
        if isinstance(workload, Workload):
            return workload.matrix
        lo, hi = workload
        matrix = buffer[: lo.size]
        matrix[...] = columns >= lo[:, None]
        matrix *= columns <= hi[:, None]  # the 0/1 rows range_workload builds
        return matrix

    # Moving one record changes any one query answer, and so any score,
    # by at most the largest absolute coefficient: 1 for a range.
    sensitivities = [
        float(np.abs(workload.matrix).max()) if isinstance(workload, Workload) else 1.0
        for workload, _ in groups
    ]
    states, members = [], [[] for _ in groups]
    for k, (g, epsilon, seed, budget, on_round) in enumerate(runs):
        sensitivity = sensitivities[g]
        run = _MwemRun()
        run.budget, run.on_round = budget, on_round
        run.rng = np.random.default_rng(seed)
        run.eps_round = epsilon / (2 * rounds)
        # An all-zero workload reads no data: its selection is the argmax.
        run.select_epsilon = run.eps_round / sensitivity if sensitivity > 0 else math.inf
        run.scale = _noise_scale(sensitivity, run.eps_round)
        run.weights = np.full(d, total / d)
        run.history = None  # until it measures a subset or general row
        states.append(run)
        members[g].append(k)
    # A range measured by run k in round t: its cuts and its value.
    starts = np.zeros((len(runs), rounds), dtype=np.int64)
    stops = np.zeros((len(runs), rounds), dtype=np.int64)
    values = np.zeros((len(runs), rounds))

    for t in range(rounds):
        # One label object per round, shared by every run's ledger.
        select, measure = f"mwem select round {t + 1}", f"mwem measure round {t + 1}"
        for (workload, truth), ks in zip(groups, members):
            if not ks:
                continue
            matrix = matrix_of(workload)
            lo, hi = (workload._lo, workload._hi) if isinstance(workload, Workload) else workload
            for k in ks:
                run = states[k]
                bins = run.weights if t == 0 else _mw_bins(run.weights, total)
                scores = np.abs(matrix @ bins - truth)
                run.budget.charge(select, run.eps_round)
                picked = _exponential_mechanism(scores, run.select_epsilon, run.rng)
                run.budget.charge(measure, run.eps_round)
                measured = truth[picked] + _laplace_noise(run.scale, 1, run.rng)[0]
                if run.history is None and lo[picked] is not None:
                    starts[k, t], stops[k, t], values[k, t] = lo[picked], hi[picked] + 1, measured
                    continue
                if run.history is None:  # its first subset or general row
                    run.history = [
                        (np.arange(start, stop), np.ones(stop - start), value)
                        for start, stop, value in zip(starts[k, :t], stops[k, :t], values[k, :t])
                    ]
                run.history.append((*_mw_support(workload, picked), measured))
        on_cells = [k for k, run in enumerate(states) if run.history is None]
        if on_cells:
            measured_so_far = np.s_[on_cells, : t + 1]
            _mw_refit_cells(
                [states[k].weights for k in on_cells], total, starts[measured_so_far],
                stops[measured_so_far], values[measured_so_far], mw_iters,
            )
        for run in states:
            if run.history is not None:
                _mw_replay(run.weights, total, run.history, mw_iters)
            if run.on_round is not None:
                run.on_round(t, _mw_bins(run.weights, total))

    for (workload, _), ks in zip(groups, members):
        if ks:
            matrix = matrix_of(workload)
            for k in ks:
                yield k, _mw_bins(states[k].weights, total), matrix


def _mw_bins(weights: np.ndarray, total: float) -> np.ndarray:
    """The bins a refit's weights stand for: the weights scaled to the true total."""
    return weights * (total / np.add.reduce(weights))


def _mw_support(workload: Workload, i: int) -> tuple:
    """The nonzero bins of query ``i`` and their coefficients."""
    row = workload.matrix[i]
    support = np.flatnonzero(row)
    return support, row[support]


# The largest argument math.exp takes: log of the largest float.
_EXP_MAX = 709.782712893384


def _mw_limit(weights: np.ndarray, exponents: np.ndarray, total: float) -> np.ndarray:
    """The limit of the step ``weights * exp(exponents)``, scaled to ``total``.

    It stands in for a step whose factor leaves the float range, for
    which the plain step would overflow, or leave no mass to rescale.
    As the exponents grow, the step moves all the mass to the entries
    whose exponent is the largest among those holding mass: for a
    range or subset, onto its covered bins or off them.  A run whose
    mass lies only on the losing side is left as it was.
    """
    held = weights > 0
    kept = np.where(held & (exponents == exponents[held].max()), weights, 0.0)
    return kept / kept.sum() * total


def _mw_replay(weights: np.ndarray, total: float, history, mw_iters: int) -> None:
    """Refit ``weights`` in place to a history that holds a subset or general row.

    ``history`` holds ``(support, coeffs, measured)`` entries from
    :func:`_mw_support`.  Each of the ``mw_iters`` passes replays every
    entry once, in order, with the update of :func:`mwem_publish`.

    The bins are ``s * weights`` with ``s = total / mass`` and ``mass``
    the running sum of the weights, so a step multiplies only its
    query's support by ``exp(coeffs * delta)`` and adds the change of
    the support's sum to the mass.  Each pass starts by scaling the
    weights back to the true total, so the running sum's rounding error
    cannot build up across passes and the weights cannot drift out of
    the float range.  A step that would move the mass by more than a
    factor of two rescales the same way, since its running sum would
    cancel badly.  A step that overflows, or leaves no mass to rescale,
    takes :func:`_mw_limit` instead.
    """
    two_total = 2.0 * total
    add = np.add.reduce  # ndarray.sum without its Python-level wrapper
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(mw_iters):
            weights *= total / add(weights)
            mass = total
            for support, coeffs, value in history:
                old = weights[support]
                exponents = coeffs * ((value - total / mass * (coeffs @ old)) / two_total)
                new = old * np.exp(exponents)
                weights[support] = new
                change = add(new) - add(old)
                if -0.5 * mass < change < mass:
                    mass += change
                    continue
                scale = total / add(weights)
                if 0 < scale < math.inf:
                    weights *= scale
                else:
                    weights[support] = old
                    full = np.zeros(weights.size)
                    full[support] = exponents
                    weights[:] = _mw_limit(weights, full, total)
                mass = total


def _mw_refit_cells(
    weights: list, total: float, lo: np.ndarray, stop: np.ndarray, values: np.ndarray,
    mw_iters: int,
) -> None:
    """Refit runs whose measured queries are all ranges, in lockstep, in place.

    ``weights[r]`` is run r's weight array, and row r of the (runs x t)
    arrays ``lo``, ``stop`` and ``values`` holds the ranges
    ``lo..stop - 1`` it measured, in order, and their measured values.
    A run's cuts are 0, d, each ``lo`` and each ``hi + 1``,
    duplicates kept, so every run has exactly 2t + 1 cells, some of
    them empty.  Every range covers whole cells, so every bin of a cell
    moves by the same factor at every step, and the refit steps the
    cells' sums of weights of all runs as one (runs x cells) array,
    with the steps, running mass and rescales of :func:`_mw_replay`.
    An empty cell holds 0.0, which no step changes and which adds
    exactly, so a run's row has the same bytes alone or in any batch.

    The bytes follow a one-run loop over the cells: a cell's initial
    sum is ``np.add.reduceat`` over the run's own weights; every sum
    adds the cells left to right (``np.cumsum``), like a Python loop;
    every factor comes from ``math.exp``, whose bits do not depend on
    the CPU the way ``np.exp``'s do.  At the end each bin is scaled by
    its cell's final sum over its initial sum (a cell whose initial sum
    is 0 holds only zero bins).  A step that overflows, or leaves no
    mass to rescale, takes :func:`_mw_limit` instead.
    """
    runs, d = len(weights), weights[0].size
    ends = np.zeros((runs, 1), dtype=lo.dtype), np.full((runs, 1), d, dtype=lo.dtype)
    cuts = np.sort(np.hstack([ends[0], lo, stop, ends[1]]), axis=1)
    # covered[s, r, k]: step s of run r covers cell k.
    covered = (cuts[None, :, :-1] >= lo.T[:, :, None]) & (cuts[None, :, 1:] <= stop.T[:, :, None])
    lengths = np.diff(cuts, axis=1)
    filled = lengths > 0
    initial = np.zeros(lengths.shape)
    initial[filled] = np.concatenate(
        [np.add.reduceat(w, row[:-1][full]) for w, row, full in zip(weights, cuts, filled)]
    )
    sums = initial
    two_total = 2.0 * total
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(mw_iters):
            sums = _rescaled(sums, total)
            mass = np.full(runs, total)
            for cover, value in zip(covered, values.T):
                part = np.cumsum(np.where(cover, sums, 0.0), axis=1)[:, -1]
                arg = (value - total / mass * part) / two_total
                over = None
                try:
                    factor = np.fromiter(map(math.exp, arg.tolist()), float, runs)
                except OverflowError:
                    over = arg > _EXP_MAX
                    exps = map(math.exp, np.where(over, 0.0, arg).tolist())
                    factor = np.fromiter(exps, float, runs)
                stepped = np.where(cover, sums * factor[:, None], sums)
                change = (factor - 1.0) * part
                ok = (-0.5 * mass < change) & (change < mass)
                if over is None and ok.all():
                    mass += change
                else:
                    bad = np.zeros(runs, dtype=bool) if over is None else over
                    mass = np.where(ok, mass + change, total)
                    scale = total / np.cumsum(stepped[~ok], axis=1)[:, -1]
                    stepped[~ok] *= scale[:, None]
                    bad[~ok] |= ~((scale > 0) & (scale < math.inf))
                    for r in np.flatnonzero(bad):
                        stepped[r] = _mw_limit(sums[r], np.where(cover[r], arg[r], 0.0), total)
                        mass[r] = total
                sums = stepped
    for w, start, final, length in zip(weights, initial, sums, lengths):
        # Bin over its cell's initial sum first: the sums' ratio alone can overflow.
        w /= np.repeat(np.where(start > 0, start, 1.0), length)
        w *= np.repeat(final, length)


def _rescaled(sums: np.ndarray, total: float) -> np.ndarray:
    """Each row of ``sums`` scaled to add up to ``total``, added left to right."""
    return sums * (total / np.cumsum(sums, axis=1)[:, -1])[:, None]


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
