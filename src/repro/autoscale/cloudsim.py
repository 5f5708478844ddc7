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
with less work per job, :meth:`CloudSimulator.run` fills one reusable
float64 buffer with the draws of a block of consecutive intervals (up
to 2**18 jobs, or one interval if a single interval is larger), applies
the duration formula in place in the same operation order, and reduces
each interval's view of the buffer once.  Memory is bounded by the
largest interval, not by the length of the replay.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.obs import events as _events
from repro.obs import metrics as _metrics

__all__ = ["VMSpec", "SimulationResult", "CloudSimulator"]

# Jobs drawn and transformed per block of consecutive intervals: 2 MiB
# of float64, small enough that the in-place passes stay in cache.  A
# single interval with more jobs than this gets a block of its own.
_BLOCK_JOBS = 1 << 18


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
        buf = np.empty(min(starts[-1], max(_BLOCK_JOBS, max(jobs_at, default=0))))
        frac, job_seconds = spec.job_jitter_frac, spec.job_seconds

        # Per-step scaling-decision telemetry costs one branch per
        # interval when no event sink is registered.
        trace = _events.enabled()

        lo = 0
        while lo < n:
            # The block is intervals [lo, hi): as many whole intervals as
            # the buffer holds.  Consecutive draws concatenate, and the
            # in-place passes round exactly as the per-interval formula's
            # temporaries did.
            base = starts[lo]
            hi = bisect.bisect_right(starts, base + buf.size, lo + 1) - 1
            block = buf[: starts[hi] - base]
            rng.random(out=block)
            block *= 2.0
            block -= 1.0
            block *= frac
            block += 1.0
            block *= job_seconds
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
                completion = block[starts[i] - base : starts[i + 1] - base]
                if cold > 0:
                    completion[warm:] += delays[:cold]
                # One pairwise sum per interval view: total / jobs is
                # np.mean's result, and the same total is the paid time.
                total = completion.sum()
                turnaround[i] = total / jobs
                makespan[i] = completion.max()
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
