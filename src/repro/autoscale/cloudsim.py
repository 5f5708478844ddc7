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
with less work per job, :meth:`CloudSimulator.run` draws into one
reusable float64 buffer of up to 2**16 jobs (512 KiB, so every pass
stays in cache) and applies the duration formula in place.  Intervals
that fit are packed into the buffer as blocks of consecutive whole
intervals, and each interval's view is reduced once.  A larger interval
is walked in leaves that fit, split exactly where numpy's pairwise sum
splits a contiguous run, and the leaf sums are added back up that tree,
so the interval total is the one ``ndarray.sum`` would return.  Memory
is bounded by the buffer and the largest cold tail, not by the size of
an interval or the length of the replay.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.obs import events as _events
from repro.obs import metrics as _metrics

__all__ = ["VMSpec", "SimulationResult", "CloudSimulator"]

# Jobs drawn and transformed at once: 512 KiB of float64, small enough
# that the in-place passes and the reductions stay in cache.
_BLOCK_JOBS = 1 << 16


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
        rng = np.random.default_rng(self.seed)
        spec = self.spec

        turnaround = np.zeros(n)
        makespan = np.zeros(n)
        under = np.maximum(a - p, 0).astype(np.float64)
        over = np.maximum(p - a, 0).astype(np.float64)
        vm_seconds = 0.0

        # Cold jobs wait for a throttled on-demand startup wave: the k-th
        # cold VM becomes ready after (1 + k // max_concurrent) startup
        # rounds.  Every interval's cold tail adds a prefix of this.
        cold_rank = np.arange(int(under.max(initial=0.0)))
        delays = spec.startup_seconds * (1 + cold_rank // spec.max_concurrent_startups)

        jobs_at = a.tolist()
        provisioned_at = p.tolist()
        # Interval i's jobs are draws starts[i]:starts[i + 1] of the run.
        starts = [0] + np.cumsum(a).tolist()
        buf = np.empty(min(starts[-1], _BLOCK_JOBS))
        frac, job_seconds = spec.job_jitter_frac, spec.job_seconds

        def fill(view):
            # Consecutive fills concatenate into the run's draws.  u - 0.5
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
            return view.sum(), view.max()

        # Per-step scaling-decision telemetry costs one branch per
        # interval when no event sink is registered.
        trace = _events.enabled()

        lo = 0
        while lo < n:
            # The block is intervals [lo, hi): as many whole intervals as
            # the buffer holds, drawn and transformed at once.  An
            # interval larger than the buffer is walked on its own.
            base = starts[lo]
            hi = bisect.bisect_right(starts, base + buf.size, lo + 1) - 1
            if hi > lo:
                fill(buf[: starts[hi] - base])
            else:
                hi = lo + 1
            for i in range(lo, hi):
                jobs = jobs_at[i]
                if jobs == 0:
                    # Idle interval: surplus VMs still cost for the full
                    # interval.
                    vm_seconds += float(provisioned_at[i]) * job_seconds
                    if trace:
                        _events.emit(
                            "autoscale.step", interval=i, arrivals=0,
                            provisioned=provisioned_at[i], cold_starts=0,
                            idle_vms=provisioned_at[i], turnaround_s=0.0,
                        )
                    continue
                warm = min(jobs, provisioned_at[i])
                cold = jobs - warm
                # One pairwise sum per interval: total / jobs is np.mean's
                # result, and the same total is the paid time.
                if jobs > buf.size:
                    total, peak = _pairwise_reduce(
                        0, jobs, buf.size,
                        lambda first, end: settle(
                            fill(buf[: end - first]), first, warm
                        ),
                    )
                else:
                    total, peak = settle(
                        buf[starts[i] - base : starts[i + 1] - base], 0, warm
                    )
                turnaround[i] = total / jobs
                makespan[i] = peak
                # Paid VM time: every used VM for its job (+startup for
                # cold), plus idle surplus for a nominal job-length lease.
                vm_seconds += float(total)
                vm_seconds += float(over[i]) * job_seconds
                if trace:
                    _events.emit(
                        "autoscale.step", interval=i, arrivals=jobs,
                        provisioned=provisioned_at[i], cold_starts=cold,
                        idle_vms=int(over[i]), turnaround_s=turnaround[i],
                        makespan_s=makespan[i],
                    )
            lo = hi

        m = _metrics
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
