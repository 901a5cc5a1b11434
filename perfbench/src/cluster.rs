//! `cluster_idle`: 256 mostly idle workstations. Every host runs one
//! periodic ticker (seeded period) and four readers blocked at their
//! terminals (`pmig::workloads::TEST_PROGRAM`). No CPU hogs and no
//! native processes: the event scheduler, timer heaps, wait queues and
//! system-call dispatch do nearly all the work.

use bench::hostclock::HostStopwatch;
use m68vm::{assemble, IsaLevel};
use simtime::{SimDuration, SimTime};
use ukernel::{KernelConfig, RunOutcome, World};

use crate::clock::CpuStopwatch;
use crate::counters::{world_now, world_now_s, Counters};
use crate::progs;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workload::{cred, live, Budget, Mark, Measured, DETERMINISTIC_OPS};

/// Installation size.
pub const HOSTS: usize = 256;
/// Blocked terminal readers per host.
pub const READERS: usize = 4;
/// Ticker period variants (each host draws one).
pub const PERIODS: usize = 16;
/// Simulated time one operation advances the whole installation.
pub const STEP: SimDuration = SimDuration::millis(50);

/// A cluster installation ready to measure.
pub struct Cluster {
    pub w: World,
    /// Live processes per host when the installation was built.
    population: Vec<usize>,
    /// Simulated time of the last step's deadline.
    now: SimTime,
}

/// Live (non-zombie) processes on each host.
pub fn population(w: &World) -> Vec<usize> {
    (0..w.machine_count())
        .map(|m| w.machine(m).procs.values().filter(|p| live(p)).count())
        .collect()
}

impl Cluster {
    /// Builds the installation for `seed` and runs it to a steady
    /// state (every reader blocked, every ticker beating).
    pub fn setup(seed: u64, tr: &mut Tracer) -> Cluster {
        let mut rng = Rng::new(seed, 2);
        let mut w = World::new(KernelConfig::paper());
        for i in 0..HOSTS {
            w.add_machine(&format!("w{i}"), IsaLevel::Isa1);
        }
        let tickers: Vec<m68vm::Object> = (0..PERIODS)
            .map(|k| {
                let src = progs::ticker_program(1_500 + 64 * k as u32);
                tr.span("setup.assemble", |_| {
                    assemble(&src).expect("ticker assembles")
                })
            })
            .collect();
        let reader = tr.span("setup.assemble", |_| {
            assemble(pmig::workloads::TEST_PROGRAM).expect("reader assembles")
        });
        for mid in 0..HOSTS {
            let ticker = &tickers[rng.range(0, PERIODS as u64 - 1) as usize];
            tr.span("setup.install", |_| {
                w.install_program(mid, "/bin/tick", ticker)
                    .expect("ticker installs");
                w.install_program(mid, "/bin/reader", &reader)
                    .expect("reader installs");
            });
            tr.span("world.spawn_vm_proc", |_| {
                w.spawn_vm_proc(mid, "/bin/tick", None, cred())
                    .expect("ticker spawns");
                for _ in 0..READERS {
                    let (tty, _) = w.add_terminal(mid);
                    w.spawn_vm_proc(mid, "/bin/reader", Some(tty), cred())
                        .expect("reader spawns");
                }
            });
        }
        let now = world_now(&w) + SimDuration::millis(100);
        w.run_until_time(now, u64::MAX);
        let population = population(&w);
        Cluster { w, population, now }
    }

    /// The measured phase: fixed simulated steps until the budget is
    /// spent.
    pub fn measure(&mut self, tr: &mut Tracer, budget: Budget) -> Measured {
        let mut out = Measured::default();
        let c0 = Counters::read(&self.w);
        let sim0 = world_now_s(&self.w);
        let mut det: Option<(f64, f64)> = None;
        let sw = HostStopwatch::start();
        let cpu = CpuStopwatch::start();
        while sw.elapsed_secs() < budget.seconds || out.op_host_s.len() < budget.min_ops {
            self.now += STEP;
            let deadline = self.now;
            let w = &mut self.w;
            let step = CpuStopwatch::start();
            let outcome = tr.span("world.run_until_time", |_| {
                w.run_until_time(deadline, u64::MAX)
            });
            let host_s = step.elapsed_secs();
            out.attempted += 1;
            if outcome == RunOutcome::Idle {
                let at = Mark {
                    host_s: cpu.elapsed_secs(),
                    sim_s: world_now_s(&self.w) - sim0,
                };
                out.op(host_s, at, &budget);
            } else {
                out.fail(format!("step to {deadline:?} ended {outcome:?}"));
            }
            if out.attempted as usize == DETERMINISTIC_OPS {
                let c = Counters::read(&self.w).since(&c0);
                det = Some((world_now_s(&self.w) - sim0, c.sleep_calls));
            }
        }
        out.host_s = cpu.elapsed_secs();
        out.sim_s = world_now_s(&self.w) - sim0;
        out.counters = Counters::read(&self.w).since(&c0);
        out.guest_insns = out.counters.sleep_calls * progs::TICK_INSNS_PER_BEAT as f64;
        // Simulated milliseconds per ticker beat, per host, over the
        // deterministic prefix: the realised period.
        let (sim, beats) = det.unwrap_or((out.sim_s, out.counters.sleep_calls));
        out.sim_op_ms = sim * 1e3 * self.w.machine_count() as f64 / beats.max(1.0);
        out
    }

    /// End-of-run check: the process population has not changed.
    pub fn finish(&mut self, out: &mut Measured) {
        let now = population(&self.w);
        for (mid, (a, b)) in self.population.iter().zip(&now).enumerate() {
            if a != b {
                out.fail(format!("w{mid}: population {a} -> {b}"));
            }
        }
    }
}
