//! Public counters read off a `World`: `MachineStats` summed over the
//! installation, `World::slices`, and the per-syscall aggregates.

use simtime::SimTime;
use sysdefs::{CostClass, SYSCALL_TABLE};
use ukernel::World;

/// A snapshot of the installation-wide work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Scheduling slices (`World::slices`).
    pub slices: f64,
    pub syscalls: f64,
    pub ctx_switches: f64,
    pub nfs_rpcs: f64,
    pub forks: f64,
    pub dumps: f64,
    pub restores: f64,
    pub pages_fetched: f64,
    /// Path-resolving system calls (one `namei` each).
    pub path_calls: f64,
    /// `getpid_real` calls: the storm jobs' round marker.
    pub marker_calls: f64,
    /// `sleep` calls.
    pub sleep_calls: f64,
}

impl Counters {
    /// Reads the counters of every machine in `w`.
    pub fn read(w: &World) -> Counters {
        let mut c = Counters {
            slices: w.slices as f64,
            ..Counters::default()
        };
        for mid in 0..w.machine_count() {
            let m = w.machine(mid);
            let s = &m.stats;
            c.syscalls += s.syscalls as f64;
            c.ctx_switches += s.ctx_switches as f64;
            c.nfs_rpcs += s.nfs_rpcs as f64;
            c.forks += s.forks as f64;
            c.dumps += s.dumps as f64;
            c.restores += s.restores as f64;
            c.pages_fetched += s.pages_fetched as f64;
            for (name, agg) in &s.per_syscall {
                let n = agg.count as f64;
                match *name {
                    "getpid_real" => c.marker_calls += n,
                    "sleep" => c.sleep_calls += n,
                    _ => {}
                }
                if SYSCALL_TABLE
                    .iter()
                    .any(|row| row.name == *name && row.cost == CostClass::Path)
                {
                    c.path_calls += n;
                }
            }
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            slices: self.slices - earlier.slices,
            syscalls: self.syscalls - earlier.syscalls,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            nfs_rpcs: self.nfs_rpcs - earlier.nfs_rpcs,
            forks: self.forks - earlier.forks,
            dumps: self.dumps - earlier.dumps,
            restores: self.restores - earlier.restores,
            pages_fetched: self.pages_fetched - earlier.pages_fetched,
            path_calls: self.path_calls - earlier.path_calls,
            marker_calls: self.marker_calls - earlier.marker_calls,
            sleep_calls: self.sleep_calls - earlier.sleep_calls,
        }
    }
}

/// Processes ever created in `w` (pids handed out, init excluded).
pub fn procs_created(w: &World) -> f64 {
    (0..w.machine_count())
        .map(|m| (w.machine(m).next_pid() - 2) as f64)
        .sum()
}

/// The world clock: the latest machine clock (machines boot with
/// their clocks past zero).
pub fn world_now(w: &World) -> SimTime {
    (0..w.machine_count())
        .map(|m| w.machine(m).now)
        .max()
        .unwrap_or(SimTime::BOOT)
}

/// [`world_now`] in simulated seconds.
pub fn world_now_s(w: &World) -> f64 {
    world_now(w).as_micros() as f64 / 1e6
}
