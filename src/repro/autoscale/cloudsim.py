"""Interval-driven cloud simulator for predictive auto-scaling.

Models exactly what the paper's Google Cloud case study measures
(Section IV-C):

* at each interval ``i``, ``provisioned[i]`` VMs were created in advance
  (the policy decided this at interval ``i-1`` from its JAR prediction);
* ``arrivals[i]`` jobs arrive at the interval start, one job per VM;
* jobs landing on warm VMs start immediately; the overflow
  ``max(arrivals - provisioned, 0)`` waits for on-demand VM startup;
* each job runs for a service time drawn around ``job_seconds``
  (CloudSuite In-Memory Analytics-like fixed work with jitter);
* idle surplus VMs ``max(provisioned - arrivals, 0)`` burn cost.

The per-interval records are the paper's three Fig. 10 quantities:
average job turnaround, under-provisioning rate, over-provisioning rate.

Replay contract: for a given ``seed`` and :class:`VMSpec`, the outputs
are bit-for-bit those of the plain per-interval formula — one
``Generator.uniform(size=jobs)`` per busy interval, durations
``job_seconds * (1 + job_jitter_frac * (2u - 1))``, cold-start delays
added to the cold tail, then ``mean``/``max``/``sum`` of the interval.
``tests/data/cloudsim_golden.json`` pins those bytes.  To get there
with less work per job, :meth:`CloudSimulator.run` draws into a
reusable float64 buffer of up to 2**18 jobs (2 MiB, so every pass
stays in cache) and applies the duration formula in place.
Intervals that fit are packed into the buffer as blocks of consecutive
whole intervals, and each interval's view is reduced once.  A larger
interval is walked in leaves that fit, split exactly where numpy's
pairwise sum splits a contiguous run, and the leaf sums are added back
up that tree, so the interval total is the one ``ndarray.sum`` would
return.

A replay of many jobs is cut, at interval boundaries only, into spans
of about equal job count, one per available core
(:func:`repro.parallel.effective_workers`, so ``REPRO_MAX_WORKERS=1``
keeps it serial), and the spans run on threads; numpy's draws, in-place
passes and reductions release the GIL.  ``rng.random`` turns one PCG64
output into one double, so a span starting at job ``k`` draws from a
PCG64 advanced by ``k`` and gets exactly the serial run's draws.  The
spans share the buffer budget, so memory is bounded by 2**18 jobs and
the largest cold tail on any core count, not by the size of an interval
or the length of the replay.  Two spans walk leaves of 2**17 jobs,
large enough that their numpy calls seldom wait on each other for the
GIL.  Totals and peaks land in per-interval arrays; ``vm_seconds`` and
the ``autoscale.step`` events are formed after the join, in interval
order, on the calling thread.
"""

from __future__ import annotations

import bisect
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.parallel import effective_workers

__all__ = ["VMSpec", "SimulationResult", "CloudSimulator"]

# Jobs drawn and transformed at once, shared by a replay's spans: 2 MiB
# of float64.  Two spans walk 1 MiB leaves, which stay in a core's L2
# (4 MiB on the 2-vCPU Xeon of DESIGN.md §15, where 2**21-job leaves
# were as slow as 2**15).  Each leaf costs about seven numpy calls that
# give up and retake the GIL, so smaller leaves make concurrent spans
# trade the GIL more often per job.
_BLOCK_JOBS = 1 << 18

# Fewest jobs worth a span of their own (~1M): below this a replay stays
# on the calling thread, since a thread's start and join would cost more
# than the overlap saves.
_SPAN_MIN_JOBS = 1 << 20

# The loops ``ndarray.sum`` and ``ndarray.max`` dispatch to, bound once:
# the same reductions, without the ``_methods`` wrappers per interval.
_sum = np.add.reduce
_max = np.maximum.reduce


def _pairwise_reduce(lo: int, hi: int, leaf_jobs: int, leaf) -> tuple:
    """Sum and max of elements ``[lo, hi)`` as ``ndarray.sum`` adds them.

    numpy sums a contiguous float64 run of more than 128 elements as the
    sum of its two halves, the first ``m // 2`` elements rounded down to
    a multiple of 8.  This recurses along the same splits until a node
    holds at most ``leaf_jobs`` (>= 128) elements, reduces it with
    ``leaf(lo, hi) -> (sum, max)``, left to right, and adds the sums
    back in numpy's left-plus-right order.
    """
    m = hi - lo
    if m <= leaf_jobs:
        return leaf(lo, hi)
    half = m // 2
    half -= half % 8
    left_sum, left_max = _pairwise_reduce(lo, lo + half, leaf_jobs, leaf)
    right_sum, right_max = _pairwise_reduce(lo + half, hi, leaf_jobs, leaf)
    return left_sum + right_sum, max(left_max, right_max)


def _replay_span(lo, hi, *, seed, spec, starts, warm_at, delays, block_jobs,
                 totals, peaks):
    """Replay intervals ``[lo, hi)``: write each busy interval's completion
    ``sum`` and ``max`` to ``totals[i]`` and ``peaks[i]``.

    The span draws its jobs from a PCG64 advanced past the run's first
    ``starts[lo]`` outputs.  ``rng.random`` turns one output into one
    double, so these are exactly the serial run's draws for the span.
    Intervals that fit the ``block_jobs`` buffer are drawn and
    transformed as packed blocks; a larger one is walked along numpy's
    pairwise-sum tree.
    """
    base = starts[lo]
    rng = np.random.Generator(np.random.PCG64(seed).advance(base))
    buf = np.empty(min(starts[hi] - base, block_jobs))
    frac, job_seconds = spec.job_jitter_frac, spec.job_seconds

    def fill(view):
        # Consecutive fills concatenate into the span's draws.  u - 0.5
        # and 2 * frac are exact, so their product is the real number
        # (2u - 1) * frac and rounds as the formula's temporary did.
        rng.random(out=view)
        view -= 0.5
        view *= 2.0 * frac
        view += 1.0
        view *= job_seconds
        return view

    def settle(view, first, warm):
        # view holds an interval's jobs first:first + view.size; the
        # cold ones (from warm on) wait for their startup wave.
        end = first + view.size
        if end > warm:
            cut = max(first, warm)
            view[cut - first :] += delays[cut - warm : end - warm]
        return _sum(view), _max(view)

    while lo < hi:
        # The block is intervals [lo, stop): as many whole intervals as
        # the buffer holds, drawn and transformed at once.  An interval
        # larger than the buffer is walked on its own.
        base = starts[lo]
        stop = bisect.bisect_right(starts, base + buf.size, lo + 1, hi + 1) - 1
        if stop > lo:
            fill(buf[: starts[stop] - base])
        else:
            stop = lo + 1
        for i in range(lo, stop):
            first, last = starts[i], starts[i + 1]
            if last == first:
                continue
            warm = warm_at[i]
            if last - first > buf.size:
                totals[i], peaks[i] = _pairwise_reduce(
                    0, last - first, buf.size,
                    lambda leaf_lo, leaf_hi: settle(
                        fill(buf[: leaf_hi - leaf_lo]), leaf_lo, warm
                    ),
                )
            else:
                totals[i], peaks[i] = settle(
                    buf[first - base : last - base], 0, warm
                )
        lo = stop


@dataclass(frozen=True)
class VMSpec:
    """VM and job timing model.

    Defaults approximate the paper's setup: n1-standard-1 startup around
    two minutes end-to-end (VM boot + benchmark warm-up; Mao & Humphrey
    measured 50–100 s for the boot alone), and an In-Memory Analytics
    job of a few minutes.  ``max_concurrent_startups`` models the cloud
    API's throttling of on-demand VM creation: when an interval is badly
    under-provisioned, cold VMs come up in waves, which is what makes
    under-provisioning so expensive on real clouds.
    """

    startup_seconds: float = 120.0
    job_seconds: float = 180.0
    job_jitter_frac: float = 0.1
    max_concurrent_startups: int = 4

    def __post_init__(self):
        if self.startup_seconds < 0:
            raise ValueError("startup_seconds must be non-negative")
        if self.job_seconds <= 0:
            raise ValueError("job_seconds must be positive")
        if not 0.0 <= self.job_jitter_frac < 1.0:
            raise ValueError("job_jitter_frac must be in [0, 1)")
        if self.max_concurrent_startups < 1:
            raise ValueError("max_concurrent_startups must be >= 1")


@dataclass
class SimulationResult:
    """Per-interval outcomes of one auto-scaling run."""

    arrivals: np.ndarray
    provisioned: np.ndarray
    turnaround_seconds: np.ndarray     # mean job turnaround per interval
    makespan_seconds: np.ndarray       # time to finish all jobs per interval
    under_provisioned: np.ndarray      # VM shortfall per interval
    over_provisioned: np.ndarray       # idle VM surplus per interval
    vm_seconds: float = 0.0            # total VM time paid for
    extra: dict = field(default_factory=dict)

    @property
    def n_intervals(self) -> int:
        return int(self.arrivals.size)

    @property
    def mean_turnaround(self) -> float:
        """Average job turnaround across intervals with arrivals (Fig. 10a)."""
        mask = self.arrivals > 0
        if not mask.any():
            return 0.0
        return float(np.mean(self.turnaround_seconds[mask]))

    @property
    def underprovision_rate(self) -> float:
        """Average % of required VMs missing at interval start (Fig. 10b)."""
        mask = self.arrivals > 0
        if not mask.any():
            return 0.0
        return float(
            100.0 * np.mean(self.under_provisioned[mask] / self.arrivals[mask])
        )

    @property
    def overprovision_rate(self) -> float:
        """Average % of surplus VMs over required (Fig. 10c)."""
        if self.arrivals.size == 0:
            return 0.0
        denom = np.maximum(self.arrivals, 1.0)
        return float(100.0 * np.mean(self.over_provisioned / denom))


class CloudSimulator:
    """Replay a provisioning schedule against actual arrivals."""

    def __init__(self, spec: VMSpec | None = None, seed: int = 0):
        self.spec = spec if spec is not None else VMSpec()
        self.seed = int(seed)

    def run(self, arrivals: np.ndarray, provisioned: np.ndarray) -> SimulationResult:
        """Simulate all intervals.

        ``arrivals[i]`` and ``provisioned[i]`` are interpreted as VM/job
        counts (fractions are rounded up — you cannot provision 0.4 VMs).
        """
        a_raw = np.asarray(arrivals, dtype=np.float64)
        p_raw = np.asarray(provisioned, dtype=np.float64)
        if a_raw.ndim != 1 or p_raw.ndim != 1:
            raise ValueError(
                f"arrivals and provisioned must be 1-D; got shapes "
                f"{a_raw.shape} and {p_raw.shape}. For an (N, D) trace, "
                f"simulate its target channel, e.g. trace[:, target_channel]"
            )
        # NaN/inf would silently wrap through the int64 cast into garbage
        # provisioning; reject loudly — forecasts must be guarded
        # upstream (repro.serving.GuardedPredictor) before reaching here.
        if not np.all(np.isfinite(a_raw)) or not np.all(np.isfinite(p_raw)):
            raise ValueError(
                "arrivals and provisioned must be finite; guard predictions "
                "with repro.serving before simulating"
            )
        a = np.ceil(a_raw).astype(np.int64)
        p = np.ceil(p_raw).astype(np.int64)
        if a.shape != p.shape:
            raise ValueError("arrivals and provisioned must have the same length")
        if np.any(a < 0) or np.any(p < 0):
            raise ValueError("counts must be non-negative")
        n = a.size
        spec = self.spec
        job_seconds = spec.job_seconds

        under = np.maximum(a - p, 0).astype(np.float64)
        over = np.maximum(p - a, 0).astype(np.float64)

        # Cold jobs wait for a throttled on-demand startup wave: the k-th
        # cold VM becomes ready after (1 + k // max_concurrent) startup
        # rounds.  Every interval's cold tail adds a prefix of this.
        cold_rank = np.arange(int(under.max(initial=0.0)))
        delays = spec.startup_seconds * (1 + cold_rank // spec.max_concurrent_startups)

        # Interval i's jobs are draws starts[i]:starts[i + 1] of the run.
        starts = [0] + np.cumsum(a).tolist()
        # Spans of whole intervals, balanced by job count; each one big
        # enough to pay for its thread, and the buffer budget shared.
        n_spans = max(1, min(effective_workers(), starts[-1] // _SPAN_MIN_JOBS))
        cuts = {bisect.bisect_left(starts, starts[-1] * k // n_spans)
                for k in range(1, n_spans)}
        bounds = [0, *sorted(c for c in cuts if 0 < c < n), n]
        spans = list(zip(bounds, bounds[1:]))
        # Never below numpy's 128-element pairwise block, which the tree
        # walk assumes of its leaves.
        block_jobs = max(_BLOCK_JOBS // len(spans), 128)
        totals = np.zeros(n)
        makespan = np.zeros(n)
        replay = functools.partial(
            _replay_span, seed=self.seed, spec=spec, starts=starts,
            warm_at=np.minimum(a, p).tolist(), delays=delays,
            block_jobs=block_jobs, totals=totals, peaks=makespan,
        )
        # The calling thread replays the first span; leaving the block
        # joins every worker, and a worker's exception re-raises here.
        with ThreadPoolExecutor(max(len(spans) - 1, 1),
                                thread_name_prefix="cloudsim-span") as pool:
            rest = [pool.submit(replay, lo, hi) for lo, hi in spans[1:]]
            replay(*spans[0])
            for future in rest:
                future.result()

        # One pairwise sum per interval: total / jobs is np.mean's result,
        # and the same total is the paid time.
        turnaround = np.divide(totals, a, out=np.zeros(n), where=a > 0)
        # Paid VM time: every used VM for its job (+startup for cold),
        # then idle surplus for a nominal job-length lease, interval by
        # interval.  accumulate adds strictly left to right, and an idle
        # interval's +0.0 total is exact.
        paid = np.column_stack((totals, over * job_seconds)).ravel()
        vm_seconds = float(np.add.accumulate(paid)[-1]) if n else 0.0

        # Per-step scaling-decision telemetry, in interval order; no
        # per-interval work when no event sink is registered.
        if _events.enabled():
            for i, (jobs, prov) in enumerate(zip(a.tolist(), p.tolist())):
                if jobs == 0:
                    _events.emit(
                        "autoscale.step", interval=i, arrivals=0,
                        provisioned=prov, cold_starts=0, idle_vms=prov,
                        turnaround_s=0.0,
                    )
                else:
                    _events.emit(
                        "autoscale.step", interval=i, arrivals=jobs,
                        provisioned=prov, cold_starts=int(under[i]),
                        idle_vms=int(over[i]), turnaround_s=turnaround[i],
                        makespan_s=makespan[i],
                    )

        m = _metrics
        m.gauge("autoscale.replay_spans").set(float(len(spans)))
        m.gauge("autoscale.replay_leaf_jobs").set(float(block_jobs))
        m.counter("autoscale.intervals").inc(n)
        m.counter("autoscale.cold_starts").inc(float(np.sum(under)))
        m.counter("autoscale.idle_vm_intervals").inc(float(np.sum(over)))
        m.histogram("autoscale.turnaround_seconds").observe_many(
            turnaround[a > 0].tolist()
        )
        return SimulationResult(
            arrivals=a.astype(np.float64),
            provisioned=p.astype(np.float64),
            turnaround_seconds=turnaround,
            makespan_seconds=makespan,
            under_provisioned=under,
            over_provisioned=over,
            vm_seconds=vm_seconds,
        )
