"""Synthetic page-access patterns.

The control plane only observes *which pages were touched when*; these
generators produce that signal with the statistical structure the paper
measures in real WSC jobs:

* a heavy-tailed per-page access-rate distribution
  (:class:`HeterogeneousPoissonPattern`) — pages range from touched every
  few seconds to touched never, which produces the smoothly decreasing
  cold-fraction-vs-threshold curve of Fig. 1;
* diurnal load modulation (:class:`DiurnalModulation`) — request rates
  follow the time of day, driving the temporal coverage variation seen in
  Figs. 2/5/10;
* working-set phase changes (:class:`PhasedPattern`) — jobs periodically
  shift their hot set, exercising the §4.3 spike-reaction rule;
* sequential scans (:class:`ScanPattern`) — periodic full sweeps, the
  adversarial case for age-based cold detection.

Every pattern implements :class:`AccessPattern`: ``step`` returns the page
indices read and written during one simulator tick, thinned to an
activity ``level``.  Patterns own no page state; they index into the
job's page space ``[0, n_pages)``.

:class:`PoissonDraw` is the Poisson draw for many jobs at once, each in
its own segment of one slot space: a cluster draws every Poisson job of
its page pool with one, and ``HeterogeneousPoissonPattern.step`` is one
on a single job at base 0.  The write/keep rule (:func:`_split_writes`)
is shared by every pattern that splits its touches.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.common.units import DAY, HOUR, MINUTE
from repro.common.validation import (
    check_fraction,
    check_positive,
    require,
)

__all__ = [
    "AccessPattern",
    "HeterogeneousPoissonPattern",
    "PoissonDraw",
    "ZipfianPattern",
    "ScanPattern",
    "PhasedPattern",
    "DiurnalModulation",
    "make_rates_for_cold_fraction",
    "poisson_parts",
]


class AccessPattern(abc.ABC):
    """Generates page accesses for one job, one tick at a time."""

    def __init__(self, n_pages: int):
        check_positive(n_pages, "n_pages")
        self.n_pages = int(n_pages)

    @abc.abstractmethod
    def step(self, now: int, interval_seconds: int, rng: np.random.Generator,
             level: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """Page indices ``(reads, writes)`` touched during this interval.

        Below full activity (``level < 1``) each touched page survives
        with probability ``level``, and the writes are the surviving
        writes (see :class:`DiurnalModulation`).
        """


#: One job's share of a write/keep split: its drive RNG, write fraction,
#: activity level and ``[lo, hi)`` slice of the touched list.
Split = Tuple[np.random.Generator, float, float, int, int]


def _split_writes(touched: np.ndarray,
                  splits: Iterable[Split]) -> Tuple[np.ndarray, np.ndarray]:
    """The write split of ``touched`` pages, then the activity thinning.

    Each job draws ``k`` write doubles for its ``k`` touched pages and,
    below full activity, ``k`` keep doubles after them; a page is read if
    kept, and written if kept and under the write fraction.
    ``Generator.random`` takes one 64-bit word per double whatever the
    call size, so the two ``random(k)`` calls are the same doubles, in the
    same order, as one ``random(2k)``.
    """
    write = np.empty(touched.size, dtype=bool)
    keep = None
    for rng, write_fraction, level, lo, hi in splits:
        np.less(rng.random(hi - lo), write_fraction, out=write[lo:hi])
        if level < 1.0:
            if keep is None:
                keep = np.ones(touched.size, dtype=bool)
            np.less(rng.random(hi - lo), level, out=keep[lo:hi])
    if keep is None:
        return touched, touched[write]
    return touched[keep], touched[write & keep]


class HeterogeneousPoissonPattern(AccessPattern):
    """Each page is touched by an independent Poisson process.

    Per-page rates span orders of magnitude, which is what gives real
    memory its long idle-time tail.  A page with rate ``lambda`` is touched
    during a ``dt`` interval with probability ``1 - exp(-lambda * dt)``;
    in steady state it has been idle for at least ``T`` seconds with
    probability ``exp(-lambda * T)`` — so the cold fraction at threshold
    ``T`` is directly controlled by the rate distribution.

    Args:
        rates_per_second: per-page access rates (lambda), shape (n_pages,).
        write_fraction: fraction of touches that are writes (dirtying).
    """

    def __init__(self, rates_per_second: np.ndarray, write_fraction: float = 0.3):
        rates = np.asarray(rates_per_second, dtype=np.float64)
        require(rates.ndim == 1 and rates.size > 0, "rates must be a 1-D array")
        require(bool((rates >= 0).all()), "rates must be non-negative")
        super().__init__(rates.size)
        check_fraction(write_fraction, "write_fraction")
        self.rates = rates
        self.write_fraction = write_fraction
        self._touch_prob_interval: Optional[int] = None
        self._touch_prob: Optional[np.ndarray] = None

    def touch_prob(self, interval_seconds: int) -> np.ndarray:
        """Per-page probability of a touch within one interval.

        The rates are fixed and the simulator ticks at a constant
        interval, so this is computed once and reused every tick.
        """
        if interval_seconds != self._touch_prob_interval:
            self._touch_prob_interval = interval_seconds
            self._touch_prob = -np.expm1(-self.rates * interval_seconds)
        return self._touch_prob

    def step(self, now: int, interval_seconds: int, rng: np.random.Generator,
             level: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        return PoissonDraw([(rng, self, 0, ())], interval_seconds).draw(
            self.n_pages, now, level
        )


class PoissonDraw:
    """One tick of Poisson touches for many jobs in one slot space.

    Job ``j`` owns the slots ``[base_j, base_j + n_pages_j)`` of a space
    of ``size`` slots (a page pool; a standalone pattern is one job at
    base 0).  :meth:`draw` fills each job's segment of one bool mask from
    its own ``random(n_pages)`` call, finds every touched slot with one
    ``flatnonzero`` and each job's slice of them with one
    ``searchsorted``, then runs :func:`_split_writes` over the slices.
    Every job's stream sees the calls :meth:`HeterogeneousPoissonPattern.step`
    makes, in the same order.

    Args:
        jobs: ``(drive rng, pattern, base, modulations)`` per job;
            ``modulations`` are the :class:`DiurnalModulation` wrappers
            around the pattern, outermost first.
        interval_seconds: the tick length.
    """

    def __init__(
        self,
        jobs: Sequence[Tuple[np.random.Generator, HeterogeneousPoissonPattern,
                             int, Tuple["DiurnalModulation", ...]]],
        interval_seconds: int,
    ):
        self.jobs = [
            (rng, pattern, pattern.touch_prob(interval_seconds), int(base),
             mods)
            for rng, pattern, base, mods in jobs
        ]
        self.bounds = np.array(
            [(base, base + pattern.n_pages)
             for _rng, pattern, _prob, base, _mods in self.jobs],
            dtype=np.int64,
        ).reshape(-1)

    def draw(self, size: int, now: int,
             level: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """Slots ``(reads, writes)`` of every job, ascending.

        ``level`` scales every job's activity, after its own modulations
        (a standalone :meth:`DiurnalModulation.step` passes its level in).
        """
        mask = np.zeros(size, dtype=bool)
        for rng, _pattern, prob, base, _mods in self.jobs:
            np.less(rng.random(prob.size), prob,
                    out=mask[base : base + prob.size])
        touched = np.flatnonzero(mask)
        edges = np.searchsorted(touched, self.bounds).tolist()
        splits = []
        for (rng, pattern, _prob, _base, mods), lo, hi in zip(
            self.jobs, edges[::2], edges[1::2]
        ):
            job_level = level
            for modulation in mods:
                job_level = job_level * modulation.activity_level(now)
            splits.append((rng, pattern.write_fraction, job_level, lo, hi))
        return _split_writes(touched, splits)


def poisson_parts(
    pattern: AccessPattern,
) -> Optional[Tuple[HeterogeneousPoissonPattern,
                    Tuple["DiurnalModulation", ...]]]:
    """A :class:`HeterogeneousPoissonPattern`, bare or under
    :class:`DiurnalModulation`, as ``(inner, modulations)``; else None."""
    mods = []
    while isinstance(pattern, DiurnalModulation):
        mods.append(pattern)
        pattern = pattern.inner
    if isinstance(pattern, HeterogeneousPoissonPattern):
        return pattern, tuple(mods)
    return None


def make_rates_for_cold_fraction(
    n_pages: int,
    cold_fraction: float,
    rng: np.random.Generator,
    hot_rate: float = 1.0 / 30.0,
    cold_horizon_seconds: float = 30 * DAY,
) -> np.ndarray:
    """Per-page rates whose steady-state cold fraction at T=120 s is ~target.

    Pages are split into three populations:

    * **hot** — rate ``hot_rate`` (touched every tick or two): never cold;
    * **warm** — rates log-uniform between ~1/2 h and ~1/4 min: these pages
      wander across the threshold grid and generate the promotion tail;
    * **frozen** — rates log-uniform between ``1/cold_horizon`` and ~1/8 h:
      cold at almost every threshold.

    The split is chosen so that ``cold_fraction`` of pages are idle >= 120 s
    in steady state: frozen pages contribute ~1 each, warm pages contribute
    ``exp(-120 * rate)`` on average (~0.55 over the chosen band), and hot
    pages contribute ~0.

    Args:
        n_pages: job size in pages.
        cold_fraction: target fraction of pages idle >= 120 s.
        rng: sampling stream.
        hot_rate: access rate of hot pages.
        cold_horizon_seconds: slowest page timescale.
    """
    check_positive(n_pages, "n_pages")
    check_fraction(cold_fraction, "cold_fraction")
    # Mean steady-state coldness-at-120s of the warm band (computed from the
    # log-uniform band below; pinned as a constant so the split is exact).
    warm_band = (1.0 / (2 * HOUR), 1.0 / (4 * MINUTE))
    warm_cold_at_120 = _mean_exp_coldness(120.0, *warm_band)

    # Cap the warm band so its steady-state coldness alone cannot exceed
    # the target (frozen pages supply the rest exactly).
    warm_share = min(
        0.25, 1.0 - cold_fraction, cold_fraction / warm_cold_at_120
    )
    frozen_share = max(0.0, cold_fraction - warm_share * warm_cold_at_120)
    if frozen_share + warm_share > 1.0:
        warm_share = 1.0 - frozen_share
    hot_share = max(0.0, 1.0 - warm_share - frozen_share)

    n_warm = int(round(n_pages * warm_share))
    n_frozen = int(round(n_pages * frozen_share))
    n_hot = n_pages - n_warm - n_frozen

    rates = np.empty(n_pages, dtype=np.float64)
    pos = 0
    rates[pos : pos + n_hot] = hot_rate
    pos += n_hot
    rates[pos : pos + n_warm] = _log_uniform(rng, *warm_band, n_warm)
    pos += n_warm
    rates[pos:] = _log_uniform(
        rng, 1.0 / cold_horizon_seconds, 1.0 / (8 * HOUR), n_frozen
    )
    rng.shuffle(rates)
    return rates


def _log_uniform(
    rng: np.random.Generator, low: float, high: float, size: int
) -> np.ndarray:
    if size == 0:
        return np.zeros(0)
    return np.exp(rng.uniform(np.log(low), np.log(high), size=size))


def _mean_exp_coldness(t: float, low: float, high: float) -> float:
    """E[exp(-t * rate)] for rate log-uniform on [low, high]."""
    from scipy.special import exp1

    # integral of exp(-t*r)/r dr from low to high, over log(high/low)
    return float((exp1(t * low) - exp1(t * high)) / math.log(high / low))


class ZipfianPattern(AccessPattern):
    """A fixed number of accesses per tick, Zipf-distributed over pages.

    Models cache/serving workloads: a small head of pages absorbs most
    accesses while the tail is touched rarely but persistently.

    Args:
        n_pages: page-space size.
        accesses_per_second: average touch operations per second.
        alpha: Zipf exponent (>1 concentrates on the head).
        write_fraction: fraction of accesses that dirty the page.
    """

    def __init__(
        self,
        n_pages: int,
        accesses_per_second: float,
        alpha: float = 1.2,
        write_fraction: float = 0.1,
    ):
        super().__init__(n_pages)
        check_positive(accesses_per_second, "accesses_per_second")
        require(alpha > 0, f"alpha must be positive, got {alpha}")
        check_fraction(write_fraction, "write_fraction")
        self.accesses_per_second = accesses_per_second
        self.alpha = alpha
        self.write_fraction = write_fraction
        weights = 1.0 / np.power(np.arange(1, n_pages + 1, dtype=np.float64), alpha)
        self._cdf = np.cumsum(weights / weights.sum())

    def step(self, now: int, interval_seconds: int, rng: np.random.Generator,
             level: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        n_accesses = rng.poisson(self.accesses_per_second * interval_seconds)
        if n_accesses == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        # Cap the draw: beyond ~4x the page count, extra samples only re-hit
        # pages already touched this tick (the accessed bit is idempotent).
        n_draw = int(min(n_accesses, 4 * self.n_pages))
        pages = np.searchsorted(self._cdf, rng.random(n_draw))
        # Sorted-unique via a scatter mask: O(draws + pages) instead of the
        # O(draws log draws) sort inside ``np.unique``, same result.  The
        # mask has one spare slot because a draw landing exactly on the
        # CDF's floating-point tail maps to index ``n_pages``.
        mask = np.zeros(self.n_pages + 1, dtype=bool)
        mask[pages] = True
        touched = np.flatnonzero(mask)
        return _split_writes(
            touched, [(rng, self.write_fraction, level, 0, touched.size)]
        )


class ScanPattern(AccessPattern):
    """Periodic sequential sweeps over the whole page space.

    Between sweeps nothing is touched; during a sweep every page is touched
    once, in order.  This defeats naive age-based coldness (everything
    looks cold right up until the scan storms through) and is the stress
    case for the spike-reaction rule.

    Args:
        n_pages: page-space size.
        period_seconds: time between sweep starts.
        sweep_seconds: how long one sweep takes.
    """

    def __init__(self, n_pages: int, period_seconds: int, sweep_seconds: int):
        super().__init__(n_pages)
        check_positive(period_seconds, "period_seconds")
        check_positive(sweep_seconds, "sweep_seconds")
        require(
            sweep_seconds <= period_seconds,
            "sweep cannot be longer than its period",
        )
        self.period_seconds = int(period_seconds)
        self.sweep_seconds = int(sweep_seconds)

    def step(self, now: int, interval_seconds: int, rng: np.random.Generator,
             level: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        start = now % self.period_seconds
        end = start + interval_seconds
        lo = self._position(start)
        hi = self._position(min(end, self.sweep_seconds))
        if end <= self.sweep_seconds or start < self.sweep_seconds:
            touched = np.arange(lo, hi, dtype=np.int64)
        else:
            touched = np.zeros(0, dtype=np.int64)
        if level < 1.0:
            touched = touched[rng.random(touched.size) < level]
        return touched, np.zeros(0, dtype=np.int64)

    def _position(self, t: int) -> int:
        frac = min(1.0, max(0.0, t / self.sweep_seconds))
        return int(round(frac * self.n_pages))


class PhasedPattern(AccessPattern):
    """Hot working set that relocates every phase.

    Within a phase, a contiguous window of pages is hot (touched every
    tick); at each phase boundary the window jumps to a random new
    location, instantly turning previously-cold pages hot — the activity
    spike §4.3's escalation rule exists for.

    Args:
        n_pages: page-space size.
        hot_fraction: size of the hot window as a fraction of all pages.
        phase_seconds: phase duration.
        background_rate: Poisson rate at which non-hot pages are touched.
    """

    def __init__(
        self,
        n_pages: int,
        hot_fraction: float = 0.2,
        phase_seconds: int = 2 * HOUR,
        background_rate: float = 1.0 / (4 * HOUR),
    ):
        super().__init__(n_pages)
        check_fraction(hot_fraction, "hot_fraction")
        check_positive(phase_seconds, "phase_seconds")
        self.hot_fraction = hot_fraction
        self.phase_seconds = int(phase_seconds)
        self.background_rate = background_rate
        self._phase_index: Optional[int] = None
        self._hot_start = 0

    def step(self, now: int, interval_seconds: int, rng: np.random.Generator,
             level: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        phase = now // self.phase_seconds
        if phase != self._phase_index:
            self._phase_index = phase
            self._hot_start = int(rng.integers(0, self.n_pages))
        hot_size = max(1, int(self.hot_fraction * self.n_pages))
        prob = -np.expm1(-self.background_rate * interval_seconds)
        # Union of the (wrapping) hot window and the background draws via a
        # scatter mask — same sorted-unique result as ``np.union1d`` without
        # its concatenate-and-sort.
        mask = rng.random(self.n_pages) < prob
        end = self._hot_start + hot_size
        if end <= self.n_pages:
            mask[self._hot_start : end] = True
        else:
            mask[self._hot_start :] = True
            mask[: end - self.n_pages] = True
        touched = np.flatnonzero(mask)
        return _split_writes(touched, [(rng, 0.2, level, 0, touched.size)])


class DiurnalModulation(AccessPattern):
    """Wraps a pattern, thinning its accesses by the time of day.

    Activity follows ``base + amplitude * sin(...)`` with a 24 h period; at
    night only the still-hot head survives the thinning, so more pages turn
    cold — the mechanism behind the diurnal coverage swings of Fig. 10.

    Args:
        inner: the pattern being modulated.
        amplitude: day/night swing, 0..1 (0.5 = night load is ~1/3 of peak).
        phase_seconds: time-of-day offset of the peak.
    """

    def __init__(
        self,
        inner: AccessPattern,
        amplitude: float = 0.5,
        phase_seconds: int = 0,
    ):
        super().__init__(inner.n_pages)
        check_fraction(amplitude, "amplitude")
        self.inner = inner
        self.amplitude = amplitude
        self.phase_seconds = int(phase_seconds)

    def activity_level(self, now: int) -> float:
        """Current activity multiplier in [1-amplitude, 1]."""
        angle = 2.0 * math.pi * ((now + self.phase_seconds) % DAY) / DAY
        return 1.0 - self.amplitude * 0.5 * (1.0 - math.cos(angle))

    def step(self, now: int, interval_seconds: int, rng: np.random.Generator,
             level: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        # The inner pattern thins its own draws: the keep split rides on
        # its write split's random draw.  Nested levels multiply.
        return self.inner.step(
            now, interval_seconds, rng, level * self.activity_level(now)
        )
