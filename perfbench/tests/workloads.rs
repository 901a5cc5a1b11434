//! The benchmark's own checks: short runs of every workload finish
//! without a failed outcome, the simulated results are bit-identical
//! for one seed and move with another, and the report names exactly
//! the metrics `BENCHMARK.json` declares.

use perfbench::cluster::Cluster;
use perfbench::forkc::ForkCompute;
use perfbench::run::{self, Kind};
use perfbench::stats::low_mean;
use perfbench::storm::{MigrationRecord, Storm};
use perfbench::trace::Tracer;
use perfbench::workload::{Budget, Mark, Measured, MIN_FAST_OPS, WINDOW_OPS};
use sysdefs::{Credentials, Gid, Pid, Uid};

/// A count-bounded phase: the same seed always does the same work.
fn ops(n: usize) -> Budget {
    Budget {
        seconds: 0.0,
        min_ops: n,
    }
}

fn storm(seed: u64, n: usize) -> (Measured, Vec<MigrationRecord>) {
    let mut tr = Tracer::new(false);
    let mut s = Storm::setup(seed, &mut tr);
    let mut m = s.measure(&mut tr, ops(n));
    s.finish(&mut m);
    (m, s.records)
}

fn cluster(seed: u64, n: usize) -> Measured {
    let mut tr = Tracer::new(false);
    let mut c = Cluster::setup(seed, &mut tr);
    let mut m = c.measure(&mut tr, ops(n));
    c.finish(&mut m);
    m
}

fn fork(seed: u64, n: usize) -> Measured {
    let mut tr = Tracer::new(false);
    let mut f = ForkCompute::setup(seed, &mut tr);
    let mut m = f.measure(&mut tr, ops(n));
    f.finish(&mut m);
    m
}

fn assert_clean(what: &str, m: &Measured) {
    assert!(m.attempted > 0, "{what}: nothing attempted");
    assert_eq!(m.failed, 0, "{what}: {:?}", m.problems);
}

#[test]
fn short_runs_of_every_workload_have_no_failures() {
    for seed in [1, 2] {
        let (m, records) = storm(seed, 25);
        assert_clean(&format!("migrate_storm seed {seed}"), &m);
        // Every pipeline ran, and every job went to a non-submit host.
        for p in perfbench::storm::Pipeline::ALL {
            assert!(
                records.iter().any(|r| r.pipeline == p && r.ok),
                "{p:?} never ran"
            );
        }
        assert!(records.iter().all(|r| r.target != perfbench::storm::SUBMIT));
        assert_clean(&format!("cluster_idle seed {seed}"), &cluster(seed, 10));
        assert_clean(&format!("fork_compute seed {seed}"), &fork(seed, 5));
    }
}

#[test]
fn one_seed_gives_bit_identical_simulated_results() {
    let (a, ra) = storm(7, 15);
    let (b, rb) = storm(7, 15);
    assert_eq!(ra, rb, "per-migration simulated times and placements");
    assert_eq!(a.sim_op_ms.to_bits(), b.sim_op_ms.to_bits());
    assert_eq!(a.counters, b.counters);

    let (a, b) = (cluster(7, 10), cluster(7, 10));
    assert_eq!(a.sim_op_ms.to_bits(), b.sim_op_ms.to_bits());
    assert_eq!(a.counters.slices, b.counters.slices, "sched.events");

    let (a, b) = (fork(7, 5), fork(7, 5));
    assert_eq!(a.sim_op_ms.to_bits(), b.sim_op_ms.to_bits());
    assert_eq!(a.counters, b.counters);

    assert_eq!(run::paper_err().to_bits(), run::paper_err().to_bits());
}

#[test]
fn another_seed_changes_the_placement() {
    let placement = |records: &[MigrationRecord]| -> Vec<(usize, u32)> {
        records.iter().map(|r| (r.target, r.pages)).collect()
    };
    let (_, a) = storm(1, 15);
    let (_, b) = storm(2, 15);
    assert_ne!(placement(&a), placement(&b));
    // Each host draws its ticker period from the seed.
    assert_ne!(cluster(1, 5).counters.slices, cluster(2, 5).counters.slices);
}

#[test]
fn the_fastest_windows_are_whole_and_cheapest_first() {
    // 300 windows; every fifth one's operations take half the host time.
    let mut m = Measured::default();
    let (mut host_s, mut sim_s) = (0.0, 0.0);
    for i in 0..300 * WINDOW_OPS {
        let op = if (i / WINDOW_OPS) % 5 == 0 {
            0.5e-3
        } else {
            1e-3
        };
        host_s += op;
        sim_s += 0.01;
        m.op_host_s.push(op);
        m.marks.push(Mark { host_s, sim_s });
    }
    // A tenth of the windows: 30 of the 60 cheap ones.
    let f = m.fastest();
    assert_eq!(f.ops, 30 * WINDOW_OPS);
    assert_eq!(f.op_host_s.len(), f.ops);
    assert!(f.op_host_s.iter().all(|&t| t == 0.5e-3));
    assert!((f.host_s - f.ops as f64 * 0.5e-3).abs() < 1e-9);
    assert!((f.sim_s - f.ops as f64 * 0.01).abs() < 1e-9);

    // Of 50 windows a tenth is 5, but never fewer than MIN_FAST_OPS
    // operations: the 10 cheap windows.
    m.op_host_s.truncate(50 * WINDOW_OPS);
    m.marks.truncate(50 * WINDOW_OPS);
    let f = m.fastest();
    assert_eq!(f.ops, MIN_FAST_OPS);
    assert!(f.op_host_s.iter().all(|&t| t == 0.5e-3));

    assert_eq!(low_mean(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.4), 1.5);
    assert_eq!(low_mean(&[5.0, 1.0], 0.1), 1.0);
}

/// The metric names `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn names(r: &run::Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn reports_name_exactly_the_declared_metrics() {
    let workloads: Vec<String> = Kind::DECLARED
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    assert_eq!(declared("workloads"), workloads);

    let plain = run::untraced(Kind::MigrateStorm, 3, 0.0, || {
        Ok(run::setup_fastest(Kind::MigrateStorm, 3))
    })
    .expect("set-up sampled");
    assert!(plain.correct, "{:?}", plain.problems);
    assert_eq!(names(&plain), declared("end_to_end"));
    assert!(
        plain.metrics.iter().all(|m| m.value > 0.0),
        "end-to-end metrics are never 0"
    );

    let mut log = String::new();
    let traced = run::traced(Kind::MigrateStorm, 3, 0.0, &mut log);
    assert!(traced.correct, "{:?}", traced.problems);
    assert_eq!(names(&traced), declared("per_layer"));
    assert!(log.contains("residue"), "the ledger is printed");

    let json = plain.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(json.contains("\"metrics\": {\"setup_s\": {\"value\": "));
}

/// Known defect, deliberately not covered by `migrate_storm`:
/// `pmig::find_restarted` finds a restored process by its image name
/// `a.out<original pid>`, so two jobs with the same pid on different
/// source hosts collide on a shared target. The second migration
/// returns the first job's pid. Run with `--ignored` to see it fail.
#[test]
#[ignore = "known defect: restored processes are found by a.out<pid>, which two source hosts can share"]
fn migrations_from_two_hosts_with_one_pid_return_their_own_copies() {
    use m68vm::{assemble, IsaLevel};
    let cred = || Credentials::user(Uid(100), Gid(10));
    let mut w = ukernel::World::new(ukernel::KernelConfig::paper());
    let (a, b, c) = (
        w.add_machine("a", IsaLevel::Isa1),
        w.add_machine("b", IsaLevel::Isa1),
        w.add_machine("c", IsaLevel::Isa1),
    );
    let obj = assemble(&perfbench::progs::job_program(4, 2, 0, 50_000)).expect("assembles");
    for m in [a, b] {
        w.install_program(m, "/bin/job", &obj).expect("installs");
        let pid = w
            .spawn_vm_proc(m, "/bin/job", None, cred())
            .expect("spawns");
        assert_eq!(pid, Pid(2));
    }
    w.run_slices(1_000);
    let first = pmig::api::migrate_process(&mut w, Pid(2), a, c, a, None, cred()).expect("first");
    let second = pmig::api::migrate_process(&mut w, Pid(2), b, c, b, None, cred()).expect("second");
    assert_ne!(
        first, second,
        "the second migration must return its own copy"
    );
}
