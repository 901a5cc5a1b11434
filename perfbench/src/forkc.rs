//! `fork_compute`: one host; two parents repeatedly `fork` workers that
//! each sweep a 64 KB bss array and exit, while the parent `wait`s. The
//! interpreter and fork's image copy dominate; the scheduler and the
//! native layer are nearly idle.

use std::collections::BTreeSet;

use bench::hostclock::HostStopwatch;
use m68vm::{assemble, IsaLevel};
use sysdefs::Pid;
use ukernel::{KernelConfig, World};

use crate::clock::CpuStopwatch;
use crate::counters::{world_now_s, Counters};
use crate::progs;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workload::{cred, Budget, Mark, Measured, DETERMINISTIC_OPS};

/// Parents running at once.
pub const PARENTS: usize = 2;
/// Fewest and most workers a parent forks before exiting (seeded per
/// parent program).
pub const MIN_WORKERS: u64 = 20;
pub const MAX_WORKERS: u64 = 30;
/// Workers per operation: single completions interleave two parents'
/// quanta and come out bimodal, so one operation is four of them.
pub const BATCH: usize = 4;

const HOST: usize = 0;

/// A fork_compute installation ready to measure.
pub struct ForkCompute {
    pub w: World,
    rng: Rng,
    /// The parent programs' paths (each with a seeded worker count,
    /// start stagger and fill value).
    parents: Vec<String>,
    /// Live parents.
    running: Vec<Pid>,
    /// Exit records already accounted for: their count and pids.
    seen: usize,
    accounted: BTreeSet<u32>,
}

impl ForkCompute {
    /// Builds the host and installs the parents for `seed`.
    pub fn setup(seed: u64, tr: &mut Tracer) -> ForkCompute {
        let mut rng = Rng::new(seed, 3);
        let mut w = World::new(KernelConfig::paper());
        w.add_machine("cpu", IsaLevel::Isa1);
        let mut parents = Vec::new();
        for i in 0..PARENTS {
            let workers = rng.range(MIN_WORKERS, MAX_WORKERS) as u32;
            let stagger = rng.range(1, 4_000) as u32;
            let fill = rng.next_u64() as u32 & 0x7fff_ffff;
            let src = progs::fork_parent_program(workers, stagger, fill);
            let obj = tr.span("setup.assemble", |_| {
                assemble(&src).expect("parent assembles")
            });
            let path = format!("/bin/parent{i}");
            tr.span("setup.install", |_| {
                w.install_program(HOST, &path, &obj)
                    .expect("parent installs")
            });
            parents.push(path);
        }
        let seen = w.finished.len();
        ForkCompute {
            w,
            rng,
            parents,
            running: Vec::new(),
            seen,
            accounted: BTreeSet::new(),
        }
    }

    fn spawn_parent(&mut self, tr: &mut Tracer) {
        let path = &self.parents[self.rng.range(0, PARENTS as u64 - 1) as usize];
        let w = &mut self.w;
        let pid = tr.span("world.spawn_vm_proc", |_| {
            w.spawn_vm_proc(HOST, path, None, cred())
                .expect("parent spawns")
        });
        self.running.push(pid);
    }

    /// Accounts every new exit record: parent exits and non-zero
    /// statuses. Returns the number of workers that ended.
    fn collect(&mut self, out: &mut Measured) -> usize {
        // Pids only grow, so new records sit among the highest keys; a
        // parent's record can land below its own workers'.
        let want = self.w.finished.len() - self.seen;
        let fresh: Vec<(u32, u32)> = self
            .w
            .finished
            .iter()
            .rev()
            .filter(|((_, pid), _)| !self.accounted.contains(pid))
            .take(want)
            .map(|((_, pid), info)| (*pid, info.status))
            .collect();
        self.seen = self.w.finished.len();
        let mut workers = 0;
        for (pid, status) in fresh {
            self.accounted.insert(pid);
            if status != 0 {
                out.fail(format!("pid {pid} exited {status}"));
            }
            match self.running.iter().position(|p| p.as_u32() == pid) {
                Some(i) => {
                    self.running.remove(i);
                }
                None => {
                    workers += 1;
                    out.attempted += 1;
                }
            }
        }
        workers
    }

    /// The measured phase: batches of [`BATCH`] workers until the
    /// budget is spent, then the running parents are let finish (every
    /// worker and parent must exit 0; the tail is checked, not timed).
    pub fn measure(&mut self, tr: &mut Tracer, budget: Budget) -> Measured {
        let mut out = Measured::default();
        let c0 = Counters::read(&self.w);
        let sim0 = world_now_s(&self.w);
        let mut det_sim = None;
        let sw = HostStopwatch::start();
        let cpu = CpuStopwatch::start();
        let (mut last_host, mut last_sim) = (0.0, sim0);
        let mut in_batch = 0;
        let mut done = false;
        while !done || !self.running.is_empty() {
            if !done {
                while self.running.len() < PARENTS {
                    self.spawn_parent(tr);
                }
            }
            let w = &mut self.w;
            tr.span("world.run_slices", |_| w.run_slices(1));
            if self.w.finished.len() > self.seen {
                in_batch += self.collect(&mut out);
                if !done && in_batch >= BATCH {
                    in_batch -= BATCH;
                    let (host, sim) = (cpu.elapsed_secs(), world_now_s(&self.w));
                    let at = Mark {
                        host_s: host,
                        sim_s: sim - sim0,
                    };
                    out.op(host - last_host, at, &budget);
                    if out.op_host_s.len() == DETERMINISTIC_OPS {
                        det_sim = Some(sim - sim0);
                    }
                    (last_host, last_sim) = (host, sim);
                }
            }
            done = done
                || (sw.elapsed_secs() >= budget.seconds && out.op_host_s.len() >= budget.min_ops);
        }
        out.host_s = last_host;
        out.sim_s = last_sim - sim0;
        out.counters = Counters::read(&self.w).since(&c0);
        // Guest work of the timed batches only.
        let workers = (out.op_host_s.len() * BATCH) as f64;
        out.guest_insns = workers * (progs::worker_insns() + progs::PARENT_INSNS_PER_WORKER) as f64;
        // Mean simulated time per batch over the deterministic prefix
        // (it spans parent exits and respawns, which the seed places).
        let n = out.op_host_s.len().clamp(1, DETERMINISTIC_OPS);
        out.sim_op_ms = det_sim.unwrap_or(out.sim_s) * 1e3 / n as f64;
        out
    }

    /// End-of-run check: nothing left running.
    pub fn finish(&mut self, out: &mut Measured) {
        if !self.running.is_empty() {
            out.fail(format!("{} parents still running", self.running.len()));
        }
    }
}
