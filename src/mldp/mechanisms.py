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
from .learning import _block_product, _check_real, _dyadic_bounds, fit_linear
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
    The refit steps atoms, blocks of adjacent bins with equal
    coefficients in every measured query, which move together (see
    :func:`_mw_refit`): at most 2t + 1 after t ranges.  A step whose
    factor leaves the float range takes the update's limit instead,
    which can leave bins at 0 (see :func:`_mw_limit`).  The refit only
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
    groups = [(lambda: workload.matrix, truth)]
    ((_, bins, answers),) = _mwem_runs(hist, groups, runs, rounds, mw_iters)
    return Histogram(bins), answers


class _MwemRun:
    """One run's noise and budget inside :func:`_mwem_runs`."""

    __slots__ = ("budget", "on_round", "rng", "eps_round", "select_epsilon", "scale")


def _mwem_runs(hist: Histogram, groups: list, runs: list, rounds: int, mw_iters: int = 20):
    """Advance independent MWEM runs over ``hist`` round by round.

    ``groups`` holds ``(rows, truth)`` pairs: ``rows()`` returns a
    group's (m x d) query matrix over ``hist.d`` and ``truth`` is its
    exact answers.  The engine calls ``rows()`` once to scale the
    group's noise, once per round and once for the final answers, and
    drops the matrix before it reads the next group's, so rows built
    afresh at each call are held one group at a time.  ``runs`` holds
    ``(group index, epsilon, seed, budget, on_round)`` tuples; each run
    follows :func:`mwem_publish` with its own generator and budget, so
    its picks, measurements and charges do not depend on the others.

    Each round scores, picks and measures every run group by group,
    splits each run's atoms by the row it picked, whatever its kind
    (:class:`_MwAtoms`), and refits all runs in one :func:`_mw_refit`.
    The runs' weights are one (runs x d) array.  After the last round
    the engine yields ``(run index, bins, answers)`` for each run,
    group by group, with ``answers`` its group's matrix times its bins.
    """
    total, d = hist.total, hist.d
    if total <= 0:
        raise ValueError("the histogram must contain at least one record")
    for _, epsilon, _, budget, _ in runs:
        budget._check_fits("mwem", epsilon)
    # Moving one record changes any one query answer, and so any score,
    # by at most the largest absolute coefficient: 1 for a range.
    sensitivities = [float(np.abs(rows()).max()) for rows, _ in groups]
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
        states.append(run)
        members[g].append(k)
    weights = np.full((len(runs), d), total / d)
    atoms = _MwAtoms(len(runs), d)
    picked = np.empty((len(runs), d))  # the row each run picks in a round
    values = np.zeros((len(runs), rounds))  # the value run k measured in round t

    for t in range(rounds):
        # One label object per round, shared by every run's ledger.
        select, measure = f"mwem select round {t + 1}", f"mwem measure round {t + 1}"
        for (rows, truth), ks in zip(groups, members):
            matrix = rows()
            for k in ks:
                run = states[k]
                bins = weights[k] if t == 0 else _mw_bins(weights[k], total)
                scores = np.abs(matrix @ bins - truth)
                run.budget.charge(select, run.eps_round)
                i = _exponential_mechanism(scores, run.select_epsilon, run.rng)
                run.budget.charge(measure, run.eps_round)
                values[k, t] = truth[i] + _laplace_noise(run.scale, 1, run.rng)[0]
                picked[k] = matrix[i]
            del matrix
        atoms.split(picked)
        _mw_refit(weights, atoms, values[:, : t + 1], total, mw_iters)
        for k, run in enumerate(states):
            if run.on_round is not None:
                run.on_round(t, _mw_bins(weights[k], total))

    for (rows, _), ks in zip(groups, members):
        matrix = rows()
        for k in ks:
            bins = _mw_bins(weights[k], total)
            yield k, bins, matrix @ bins
        del matrix


def _mw_bins(weights: np.ndarray, total: float) -> np.ndarray:
    """The bins a refit's weights stand for: the weights scaled to the true total."""
    return weights * (total / np.add.reduce(weights))


class _MwAtoms:
    """The rows a batch of MWEM runs measured, as atoms and levels.

    An atom of a run is a maximal block of adjacent bins with equal
    coefficients in every row the run measured; for ranges, a nonempty
    cell of their endpoints.  ``starts[r, j]`` tells whether bin j
    starts an atom of run r, and ``sizes[r]`` counts its atoms.  The
    distinct nonzero coefficients of a row are its levels, one for a
    0/1 row: ``coefs[s, l, r]`` is level l of run r's step s (0.0 past
    its levels), and ``slots[s][r, a]`` is ``(l + 1) * runs + r`` for
    atom a of level l, or r for an atom of coefficient 0 or past the
    run's atoms.
    """

    __slots__ = ("starts", "sizes", "slots", "coefs")

    def __init__(self, runs: int, d: int):
        self.starts = np.zeros((runs, d), dtype=bool)
        self.starts[:, 0] = True
        self.sizes = np.ones(runs, dtype=np.intp)
        self.slots, self.coefs = [], np.zeros((0, 1, runs))

    def split(self, rows: np.ndarray) -> None:
        """Split each run's atoms by the next row it measured: ``rows[r]`` for run r."""
        runs = len(rows)
        parent = np.cumsum(self.starts, axis=1, dtype=np.int32) - 1  # the old atoms
        self.starts[:, 1:] |= rows[:, 1:] != rows[:, :-1]  # -0.0 and 0.0 are one coefficient
        run, first = np.nonzero(self.starts)  # each atom's run and first bin, in order
        self.sizes = np.bincount(run, minlength=runs)
        atom = np.arange(run.size) - (np.cumsum(self.sizes) - self.sizes)[run]
        parent, value = parent[run, first], rows[run, first]

        # Number each run's distinct nonzero coefficients: its levels.
        by_value = np.lexsort((value, run))
        value, owner = value[by_value], run[by_value]
        new = np.ones(value.size, dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (value[1:] != value[:-1])
        new &= value != 0
        counts = np.bincount(owner[new], minlength=runs)
        level = np.cumsum(new) - 1 - (np.cumsum(counts) - counts)[owner]
        level[value == 0] = -1

        blank = np.repeat(np.arange(runs)[:, None], self.sizes.max(), axis=1)
        for s, slot in enumerate(self.slots):
            self.slots[s] = blank.copy()
            self.slots[s][run, atom] = slot[run, parent]
        blank[owner, atom[by_value]] = (level + 1) * runs + owner
        self.slots.append(blank)
        steps, width = self.coefs.shape[:2]
        coefs = np.zeros((steps + 1, max(width, counts.max()), runs))
        coefs[:steps, :width] = self.coefs
        coefs[steps, level[new], owner[new]] = value[new]
        self.coefs = coefs


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


def _mw_refit(
    weights: np.ndarray, atoms: _MwAtoms, values: np.ndarray, total: float, mw_iters: int
) -> None:
    """Refit the (runs x d) ``weights`` in place to the runs' measurements, in lockstep.

    Run r measured the rows ``atoms`` holds and the values in row r of
    ``values``, in order.  All bins of an atom move by the same factor
    at every step, so the refit steps the atoms' sums of weights of all
    runs as one (runs x atoms) array, and at the end scales each bin by
    its atom's final sum over its initial sum (an atom whose initial
    sum is 0 holds only zero bins).  Each of the ``mw_iters`` passes
    replays every step once, in order, with the update of
    :func:`mwem_publish`: the bins are ``sums * total / mass``, with
    ``mass`` the running sum of the sums; a step adds up the atoms of
    each level c (``part``), estimates its query as the sum of c *
    part, multiplies the atoms of level c by exp(c * delta) and adds
    the sum of (factor - 1) * part to the mass.  Each pass starts by
    scaling the sums back to the true total, so the running mass's
    rounding error cannot build up.  A step that would move the mass
    by more than a factor of two rescales the same way, since its
    running sum would cancel badly.  A step that overflows, or leaves
    no mass to rescale, takes :func:`_mw_limit` instead.

    The bytes follow a one-run loop over the atoms: an atom's initial
    sum is ``np.add.reduceat`` over its bins; every other sum adds left
    to right (``np.bincount``, ``np.cumsum``), so the atoms and levels
    past a run's own hold 0.0, which adds exactly, and a run has the
    same bytes alone or in any batch; every factor comes from
    ``math.exp``, whose bits do not depend on the CPU the way
    ``np.exp``'s do.
    """
    runs, d = weights.shape
    firsts = np.flatnonzero(atoms.starts)  # each atom's first bin, as run * d + bin
    run = firsts // d
    atom = run, np.arange(run.size) - (np.cumsum(atoms.sizes) - atoms.sizes)[run]
    initial = np.zeros((runs, atoms.sizes.max()))
    initial[atom] = np.add.reduceat(weights.ravel(), firsts)
    sums, width = initial, atoms.coefs.shape[1]
    # factors[(l + 1) * runs + r] is level l's factor in run r; 1.0 for coefficient 0.
    factors = np.ones((width + 1) * runs)
    level_factors = factors[runs:].reshape(width, runs)
    two_total = 2.0 * total
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(mw_iters):
            sums = sums * (total / _sum(sums, 1))[:, None]
            mass = np.full(runs, total)
            for slot, coef, value in zip(atoms.slots, atoms.coefs, values.T):
                part = np.bincount(slot.ravel(), sums.ravel(), factors.size)
                part = part[runs:].reshape(width, runs)
                arg = (value - total / mass * _sum(coef * part, 0)) / two_total
                exponents = coef * arg
                over = None
                try:
                    exps = map(math.exp, exponents.ravel().tolist())
                    factors[runs:] = np.fromiter(exps, float, width * runs)
                except OverflowError:
                    over = (exponents > _EXP_MAX).any(axis=0)
                    exps = map(math.exp, np.where(over, 0.0, exponents).ravel().tolist())
                    factors[runs:] = np.fromiter(exps, float, width * runs)
                stepped = sums * factors[slot]
                change = _sum((level_factors - 1.0) * part, 0)
                ok = (-0.5 * mass < change) & (change < mass)
                if over is None and ok.all():
                    mass += change
                else:
                    bad = np.zeros(runs, dtype=bool) if over is None else over
                    mass = np.where(ok, mass + change, total)
                    scale = total / _sum(stepped[~ok], 1)
                    stepped[~ok] *= scale[:, None]
                    bad[~ok] |= ~((scale > 0) & (scale < math.inf))
                    for r in np.flatnonzero(bad):
                        own = np.s_[r, : atoms.sizes[r]]
                        exponent = np.append(np.zeros(runs), exponents)[slot[own]]
                        stepped[r] = 0.0  # its padding too, which a scale of 0 or inf made nan
                        stepped[own] = _mw_limit(sums[own], exponent, total)
                        mass[r] = total
                sums = stepped
    bins, lengths = weights.reshape(-1), np.diff(firsts, append=weights.size)
    # Bin over its atom's initial sum first: the sums' ratio alone can overflow.
    bins /= np.repeat(np.where(initial > 0, initial, 1.0)[atom], lengths)
    bins *= np.repeat(sums[atom], lengths)


def _sum(a: np.ndarray, axis: int) -> np.ndarray:
    """``a`` added along ``axis`` left to right, one element at a time."""
    return a.cumsum(axis).take(-1, axis)


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
    estimate, a block of rows at a time (:func:`~mldp.learning._block_product`).
    No strategy matrix is built, nor the workload's if it is not yet.
    Charges exactly ``epsilon``.
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
        _block_product(workload, model.weights[1 : hist.d + 1]),
        sensitivity_used=measured.sensitivity_used,
        epsilon_used=epsilon,
        seed=seed,
    )
