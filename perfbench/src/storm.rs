//! `migrate_storm`: 8 hosts, long-lived jobs submitted on `h0`, and one
//! closed-loop client moving each job once to a seeded target, rotating
//! over the five migration pipelines.
//!
//! Jobs are submitted on a single host and moved exactly once because
//! `pmig::find_restarted` names a restored process `a.out<original
//! pid>`: pids from two submit hosts, or a second hop, can collide on a
//! target (see the notes beside this file).

use std::collections::{BTreeSet, VecDeque};

use bench::hostclock::HostStopwatch;
use m68vm::{assemble, IsaLevel};
use pmig::proto::{migrate_proto, Protocol};
use sysdefs::{Pid, Signal};
use ukernel::{KernelConfig, MachineId, World};

use crate::clock::CpuStopwatch;
use crate::counters::{procs_created, world_now_s, Counters};
use crate::progs;
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{cred, live, Budget, Mark, Measured, DETERMINISTIC_OPS};

/// Installation size.
pub const HOSTS: usize = 8;
/// The submit host.
pub const SUBMIT: MachineId = 0;
/// Jobs waiting on the submit host at any time.
pub const POOL: usize = 8;
/// Smallest and largest job image, pages of bss.
pub const MIN_PAGES: u32 = 4;
pub const MAX_PAGES: u32 = 32;
/// Pages every job re-dirties per round, and the sleep that follows.
pub const DIRTY: u32 = 2;
pub const SLEEP_US: u32 = 50_000;

/// The five migration pipelines, in rotation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// The paper's `migrate` over rsh, issued on the submit host.
    Rsh,
    /// `migrate` over the §6.4 migration daemon.
    Daemon,
    Eager,
    PreCopy,
    Demand,
}

impl Pipeline {
    pub const ALL: [Pipeline; 5] = [
        Pipeline::Rsh,
        Pipeline::Daemon,
        Pipeline::Eager,
        Pipeline::PreCopy,
        Pipeline::Demand,
    ];

    /// The span (and per-layer metric stem) of this pipeline.
    pub fn span(self) -> &'static str {
        match self {
            Pipeline::Rsh => "pmig.rsh",
            Pipeline::Daemon => "apps.daemon",
            Pipeline::Eager => "proto.eager",
            Pipeline::PreCopy => "proto.precopy",
            Pipeline::Demand => "proto.demand",
        }
    }
}

/// One completed (or failed) migration.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationRecord {
    pub job: u32,
    pub pages: u32,
    pub target: MachineId,
    pub pipeline: Pipeline,
    /// World-clock simulated milliseconds across the pipeline call.
    pub sim_ms: f64,
    pub ok: bool,
}

/// A storm installation ready to measure.
pub struct Storm {
    pub w: World,
    rng: Rng,
    /// Jobs on the submit host, oldest first: (pid, pages).
    pool: VecDeque<(Pid, u32)>,
    /// Every migration so far, in order.
    pub records: Vec<MigrationRecord>,
}

fn alive(w: &World, mid: MachineId, pid: Pid) -> bool {
    w.proc_ref(mid, pid).is_some_and(live)
}

fn live_pids(w: &World, mid: MachineId) -> BTreeSet<u32> {
    w.machine(mid)
        .procs
        .values()
        .filter(|p| live(p))
        .map(|p| p.pid.as_u32())
        .collect()
}

/// Live copies of submit-host job `job` anywhere in the installation:
/// the original, or a restored image named after it.
fn live_copies(w: &World, job: Pid) -> usize {
    let image = format!("a.out{:05}", job.as_u32());
    (0..w.machine_count())
        .map(|mid| {
            w.machine(mid)
                .procs
                .values()
                .filter(|p| live(p))
                .filter(|p| (mid == SUBMIT && p.pid == job) || p.comm == image)
                .count()
        })
        .sum()
}

impl Storm {
    /// Builds the installation for `seed`: hosts, one job program per
    /// image size (installed on the submit host), and a warm pool.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Storm {
        let mut rng = Rng::new(seed, 1);
        let mut w = World::new(KernelConfig::paper());
        for i in 0..HOSTS {
            w.add_machine(&format!("h{i}"), IsaLevel::Isa1);
        }
        for pages in MIN_PAGES..=MAX_PAGES {
            // Which pages a variant re-dirties starts at a seeded page.
            let first = rng.range(0, (pages - DIRTY) as u64) as u32;
            let src = progs::job_program(pages, DIRTY, first, SLEEP_US);
            let obj = tr.span("setup.assemble", |_| assemble(&src).expect("job assembles"));
            tr.span("setup.install", |_| {
                w.install_program(SUBMIT, &format!("/bin/job{pages}"), &obj)
                    .expect("job installs")
            });
        }
        let mut storm = Storm {
            w,
            rng,
            pool: VecDeque::new(),
            records: Vec::new(),
        };
        // The first pool spans the size range evenly, in seeded order,
        // so that set-up does the same work whatever the seed.
        let mut sizes: Vec<u32> = (0..POOL as u32)
            .map(|k| MIN_PAGES + k * (MAX_PAGES - MIN_PAGES) / (POOL as u32 - 1))
            .collect();
        for i in (1..sizes.len()).rev() {
            let j = storm.rng.range(0, i as u64) as usize;
            sizes.swap(i, j);
        }
        for pages in sizes {
            storm.submit_pages(pages, tr);
        }
        let warm = storm.w.machine(SUBMIT).now + simtime::SimDuration::millis(100);
        storm.w.run_until_time(warm, 10_000_000);
        storm
    }

    /// Submits one job with a seeded image size on the submit host.
    fn submit(&mut self, tr: &mut Tracer) {
        let pages = self.rng.range(MIN_PAGES as u64, MAX_PAGES as u64) as u32;
        self.submit_pages(pages, tr);
    }

    /// Submits one job with a `pages`-page image on the submit host.
    fn submit_pages(&mut self, pages: u32, tr: &mut Tracer) {
        let path = format!("/bin/job{pages}");
        let w = &mut self.w;
        let pid = tr.span("world.spawn_vm_proc", |_| {
            w.spawn_vm_proc(SUBMIT, &path, None, cred())
                .expect("job spawns")
        });
        self.pool.push_back((pid, pages));
    }

    /// Moves the oldest pooled job once, checks the outcome, retires
    /// the moved copy and submits a replacement. Returns the host
    /// seconds of the pipeline call alone.
    pub fn migrate_one(&mut self, tr: &mut Tracer, out: &mut Measured) -> f64 {
        let (job, pages) = self.pool.pop_front().expect("pool is never empty");
        let target = self.rng.range(1, (HOSTS - 1) as u64) as MachineId;
        let pipeline = Pipeline::ALL[self.records.len() % Pipeline::ALL.len()];
        let before = live_pids(&self.w, target);
        let created0 = procs_created(&self.w);
        let sim0 = world_now_s(&self.w);
        let cpu = CpuStopwatch::start();
        let w = &mut self.w;
        let result: Result<Pid, String> = tr.span(pipeline.span(), |tr| match pipeline {
            Pipeline::Rsh => {
                pmig::api::migrate_process(w, job, SUBMIT, target, SUBMIT, None, cred())
                    .map_err(|e| e.to_string())
            }
            Pipeline::Daemon => {
                apps::migrated::migrate_via_daemon_scripted(w, job, SUBMIT, target, cred())
                    .map_err(|e| e.to_string())
            }
            Pipeline::Eager | Pipeline::PreCopy | Pipeline::Demand => {
                let proto = match pipeline {
                    Pipeline::Eager => Protocol::Eager,
                    Pipeline::PreCopy => Protocol::PreCopy,
                    _ => Protocol::Demand,
                };
                match migrate_proto(w, job, SUBMIT, target, proto, cred()) {
                    Ok(r) => {
                        tr.count("proto.pages_precopied", r.pages_precopied as f64);
                        tr.count("proto.pages_fetched", r.pages_fetched as f64);
                        tr.count("proto.bytes_sent", r.bytes_sent as f64);
                        match (r.migrated(), r.new_pid) {
                            (true, Some(pid)) if r.status == 0 => Ok(pid),
                            _ => Err(format!(
                                "{} ended {:?} status {}",
                                proto.name(),
                                r.survivor,
                                r.status
                            )),
                        }
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
        });
        let host_s = cpu.elapsed_secs();
        let sim_ms = (world_now_s(&self.w) - sim0) * 1e3;
        tr.count("native.spawns", procs_created(&self.w) - created0);
        out.attempted += 1;
        let checked = result.and_then(|pid| self.check(job, target, pid, &before).map(|_| pid));
        let ok = checked.is_ok();
        match checked {
            Ok(pid) => self.retire(target, pid),
            Err(why) => out.fail(format!(
                "job {} -> h{target} via {pipeline:?}: {why}",
                job.as_u32()
            )),
        }
        if self.w.proc_ref(SUBMIT, job).is_some() && !alive(&self.w, SUBMIT, job) {
            self.w.host_reap(SUBMIT, job);
        }
        self.records.push(MigrationRecord {
            job: job.as_u32(),
            pages,
            target,
            pipeline,
            sim_ms,
            ok,
        });
        self.submit(tr);
        host_s
    }

    /// The outcome check: a new live process on the target, and
    /// exactly one live copy of the job anywhere.
    fn check(
        &self,
        job: Pid,
        target: MachineId,
        pid: Pid,
        before: &BTreeSet<u32>,
    ) -> Result<(), String> {
        if before.contains(&pid.as_u32()) {
            return Err(format!(
                "returned pid {} was already on the target",
                pid.as_u32()
            ));
        }
        if !alive(&self.w, target, pid) {
            return Err(format!(
                "returned pid {} is not alive on the target",
                pid.as_u32()
            ));
        }
        match live_copies(&self.w, job) {
            1 => Ok(()),
            n => Err(format!("{n} live copies")),
        }
    }

    /// Ends a moved job so the installation stays the same size.
    fn retire(&mut self, target: MachineId, pid: Pid) {
        self.w.host_post_signal(target, pid, Signal::SIGKILL);
        self.w.run_until_exit(target, pid, 1_000_000);
        self.w.host_reap(target, pid);
    }

    /// The measured phase: migrations until the budget is spent.
    pub fn measure(&mut self, tr: &mut Tracer, budget: Budget) -> Measured {
        let mut out = Measured::default();
        let c0 = Counters::read(&self.w);
        let sim0 = world_now_s(&self.w);
        let first = self.records.len();
        let sw = HostStopwatch::start();
        let cpu = CpuStopwatch::start();
        while sw.elapsed_secs() < budget.seconds || out.op_host_s.len() < budget.min_ops {
            let host_s = self.migrate_one(tr, &mut out);
            if self.records.last().is_some_and(|r| r.ok) {
                let at = Mark {
                    host_s: cpu.elapsed_secs(),
                    sim_s: world_now_s(&self.w) - sim0,
                };
                out.op(host_s, at, &budget);
            }
        }
        out.host_s = cpu.elapsed_secs();
        out.sim_s = world_now_s(&self.w) - sim0;
        out.counters = Counters::read(&self.w).since(&c0);
        out.guest_insns = out.counters.marker_calls * progs::job_insns_per_round(DIRTY) as f64;
        // Median world-clock time per migration over the deterministic
        // prefix of the phase.
        let sims: Vec<f64> = self.records[first..]
            .iter()
            .take(DETERMINISTIC_OPS)
            .map(|r| r.sim_ms)
            .collect();
        out.sim_op_ms = median(&sims);
        out
    }

    /// End-of-run check: no dump file left behind on any host.
    pub fn finish(&mut self, out: &mut Measured) {
        for mid in 0..self.w.machine_count() {
            let left = self.w.host_reap_orphan_dumps(mid);
            if !left.is_empty() {
                out.fail(format!("h{mid}: orphan dumps {left:?}"));
            }
        }
    }
}
