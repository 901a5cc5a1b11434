//! What the workloads share: their user, the liveness test, and the
//! shape of a measured phase.

use sysdefs::{Credentials, Gid, Uid};
use ukernel::{Proc, ProcState};

use crate::counters::Counters;

/// The unprivileged user every workload's processes run as.
pub fn cred() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Whether `p` is alive (not a zombie).
pub fn live(p: &Proc) -> bool {
    !matches!(p.state, ProcState::Zombie { .. })
}

/// How long a measured phase runs: until `seconds` of wall-clock time
/// have passed *and* at least `min_ops` operations have completed.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
}

/// Operations at the start of every phase whose simulated results
/// form the deterministic `sim_op_ms`: the same seed always runs them
/// identically, however fast the host is.
pub const DETERMINISTIC_OPS: usize = 200;

/// Operations per window of a measured phase; see [`Measured::fastest`].
pub const WINDOW_OPS: usize = 10;
/// Share of a phase's windows, the fastest, that the host-time metrics
/// are taken from, and the fewest operations those windows hold.
pub const FAST_SHARE: f64 = 0.1;
pub const MIN_FAST_OPS: usize = 100;

/// Where a measured phase stood when an operation completed: host
/// (process CPU) seconds and simulated seconds since the phase began.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mark {
    pub host_s: f64,
    pub sim_s: f64,
}

/// The fastest windows of a measured phase, summed.
#[derive(Clone, Debug, Default)]
pub struct Fastest {
    /// Operations in the chosen windows.
    pub ops: usize,
    /// Host seconds of the chosen windows, whole operations included
    /// (for `migrate_storm`, the outcome check and resubmission too).
    pub host_s: f64,
    /// Simulated seconds the chosen windows advanced the world clock.
    pub sim_s: f64,
    /// Host seconds of each operation in the chosen windows.
    pub op_host_s: Vec<f64>,
}

/// The outcome of one measured phase.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Operations tried and operations whose outcome check failed.
    pub attempted: u64,
    pub failed: u64,
    /// Host seconds (process CPU, see `clock`) per completed operation,
    /// in completion order.
    pub op_host_s: Vec<f64>,
    /// Where the phase stood as each of those operations completed.
    pub marks: Vec<Mark>,
    /// Simulated milliseconds per operation over the first
    /// [`DETERMINISTIC_OPS`] operations, reduced as the workload's
    /// `measure` documents.
    pub sim_op_ms: f64,
    /// Host seconds of the whole phase.
    pub host_s: f64,
    /// Simulated seconds the world clock advanced in the phase.
    pub sim_s: f64,
    /// Guest instructions retired in the phase, from trip counts.
    pub guest_insns: f64,
    /// Counter deltas over the phase.
    pub counters: Counters,
    /// What each failed outcome check found.
    pub problems: Vec<String>,
    /// Peak resident set (MiB) when the phase completed its
    /// `min_ops`-th operation: the memory of a fixed amount of work,
    /// whatever the host's speed.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Records one completed operation: its own host seconds, and where
    /// the phase stood when it completed.
    pub fn op(&mut self, host_s: f64, at: Mark, budget: &Budget) {
        self.op_host_s.push(host_s);
        self.marks.push(at);
        if self.op_host_s.len() == budget.min_ops {
            self.peak_rss_mb = crate::stats::peak_rss_mb();
        }
    }

    /// The fastest [`FAST_SHARE`] of the phase's consecutive windows of
    /// [`WINDOW_OPS`] operations, but at least [`MIN_FAST_OPS`]
    /// operations' worth (all of a short phase), a trailing partial
    /// window left out; with fewer operations than one window, the
    /// whole phase.
    ///
    /// Host speed on a shared machine changes by up to 1.7x for seconds
    /// at a time as neighbours come and go, and a phase's median or
    /// mean follows whatever share of it ran slowly. Its fastest windows
    /// are where the host was least contended, which varies less from
    /// run to run. Every window holds the same number of operations, so
    /// `migrate_storm`'s windows each rotate twice over its five
    /// pipelines.
    pub fn fastest(&self) -> Fastest {
        let n = self.marks.len() / WINDOW_OPS;
        if n == 0 {
            let last = self.marks.last().copied().unwrap_or_default();
            return Fastest {
                ops: self.marks.len(),
                host_s: last.host_s,
                sim_s: last.sim_s,
                op_host_s: self.op_host_s.clone(),
            };
        }
        let start = |k: usize| match k {
            0 => Mark::default(),
            k => self.marks[k * WINDOW_OPS - 1],
        };
        let end = |k: usize| self.marks[(k + 1) * WINDOW_OPS - 1];
        let mut windows: Vec<usize> = (0..n).collect();
        windows.sort_by(|&a, &b| {
            let cost = |k: usize| end(k).host_s - start(k).host_s;
            cost(a).total_cmp(&cost(b))
        });
        let keep = ((n as f64 * FAST_SHARE).ceil() as usize)
            .max(MIN_FAST_OPS / WINDOW_OPS)
            .min(n);
        let mut f = Fastest::default();
        for &k in &windows[..keep] {
            f.ops += WINDOW_OPS;
            f.host_s += end(k).host_s - start(k).host_s;
            f.sim_s += end(k).sim_s - start(k).sim_s;
            f.op_host_s
                .extend_from_slice(&self.op_host_s[k * WINDOW_OPS..(k + 1) * WINDOW_OPS]);
        }
        f
    }

    /// Counts `other`'s attempts and failures (an untimed phase of the
    /// same run) into this one.
    pub fn absorb(&mut self, other: &mut Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.append(&mut other.problems);
    }

    /// Records a failed outcome check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}
