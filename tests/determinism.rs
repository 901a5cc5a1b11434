//! The dynamic half of the determinism contract.
//!
//! simlint statically forbids the usual sources of run-to-run variation
//! (hash-ordered containers, host clocks, ambient randomness); this
//! test checks the property those rules exist to protect: running the
//! same migration scenario twice in one process produces **bit-identical**
//! final world state. HashMap's `RandomState` reseeds per process *and*
//! per instance, so two in-process runs diverging is exactly the
//! symptom an iteration-order bug would show.
//!
//! The scenario is the Figure-4 "R-L" shape — the remote-command
//! migrate with the most moving parts: three machines, the §6.2 test
//! program stopped at its first prompt on `brick`, and a `migrate`
//! command run on `schooner` pulling it over. A second, eight-host
//! scenario (at the end of this file) mixes every kind of
//! cross-machine traffic, with faults off and on.
//!
//! The snapshot itself lives in `common::snapshot_world`, shared with
//! the host-poke regression tests and statically checked for field
//! coverage by simlint's `snapshot-coverage` rule.

mod common;

use m68vm::{assemble, IsaLevel};
use simtime::{SimDuration, SimTime};
use sysdefs::{Credentials, Gid, Uid};
use ukernel::{KernelConfig, RunOutcome, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Runs the full migrate scenario and renders everything observable
/// about the final world into one canonical string.
fn run_scenario() -> String {
    run_scenario_with(simnet::FaultPlan::none(), true)
}

/// The same scenario under an injected-fault plan. `require_success`
/// is off for faulty runs: the engine may legitimately finish with the
/// process back at the source; determinism is about the *trajectory*
/// being identical, not about it being the happy path.
fn run_scenario_with(faults: simnet::FaultPlan, require_success: bool) -> String {
    run_scenario_cfg(KernelConfig::paper(), faults, require_success)
}

/// The same scenario under an explicit kernel configuration, for the
/// host-accelerator toggles (superblocks) whose on/off runs must be
/// bit-identical even mid-fault.
fn run_scenario_cfg(
    cfg: KernelConfig,
    faults: simnet::FaultPlan,
    require_success: bool,
) -> String {
    let mut w = World::new(cfg);
    w.faults = faults;
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let _third = w.add_machine("third", IsaLevel::Isa1);

    let obj = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    w.install_program(brick, "/bin/testprog", &obj).unwrap();
    let (tty, _victim_tty) = w.add_terminal(brick);
    let victim = w
        .spawn_vm_proc(brick, "/bin/testprog", Some(tty), alice())
        .unwrap();
    w.run_slices(50_000);

    let cmd = w.spawn_native_proc(
        schooner,
        "migrate",
        None,
        alice(),
        Box::new(move |sys| match pmig::migrate(sys, victim, "brick", "schooner") {
            Ok(status) => status,
            Err(e) => e.as_u16() as u32,
        }),
    );
    let info = w
        .run_until_exit(schooner, cmd, 30_000_000)
        .expect("migrate command exits");
    if require_success {
        assert_eq!(info.status, 0, "migrate must succeed");
    }

    common::snapshot_world(&w)
}

#[test]
fn migrate_scenario_is_bit_identical_across_runs() {
    let first = run_scenario();
    let second = run_scenario();
    assert!(
        !first.is_empty() && first.contains("dump") && first.contains("machine 0 brick"),
        "snapshot looks degenerate:\n{first}"
    );
    assert_eq!(
        first, second,
        "two identical runs diverged — a nondeterminism bug simlint's rules exist to prevent"
    );
}

/// The injected-fault extension of the same contract: with a nonzero
/// fault seed in the plan, two runs must still be bit-identical — the
/// injected faults themselves are simulation events, recorded in the
/// ktrace ring the snapshot includes.
#[test]
fn faulty_migrate_with_same_fault_seed_is_bit_identical() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xDECAF)
            .with(FaultSpec::always(FaultSite::MidDumpCrash, 1))
            .with(FaultSpec::always(FaultSite::NfsOp, 2))
    };
    let first = run_scenario_with(plan(), false);
    let second = run_scenario_with(plan(), false);
    assert!(
        first.contains(" fault "),
        "injected faults must appear in the ktrace snapshot:\n{first}"
    );
    assert_eq!(
        first, second,
        "two runs with the same fault seed diverged — injected faults must be deterministic"
    );
}

/// Cross-toggle extension of the faulty contract: the same seeded
/// fault plan with superblock translation on versus **off** must end
/// in bit-identical worlds. Stronger than the dual-run test above —
/// it pins the fused interpreter to the slot-by-slot trajectory even
/// when injected faults interrupt dumps mid-flight, and it holds
/// because every superblock pause, trap and fault lands on exactly
/// the instruction the slot loop would have produced.
#[test]
fn faulty_migrate_is_bit_identical_with_superblocks_toggled() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xDECAF)
            .with(FaultSpec::always(FaultSite::MidDumpCrash, 1))
            .with(FaultSpec::always(FaultSite::NfsOp, 2))
    };
    let cfg = |use_superblocks: bool| {
        let mut c = KernelConfig::paper();
        c.use_superblocks = use_superblocks;
        c
    };
    let fused = run_scenario_cfg(cfg(true), plan(), false);
    let slots = run_scenario_cfg(cfg(false), plan(), false);
    assert!(
        fused.contains(" fault "),
        "injected faults must appear in the ktrace snapshot:\n{fused}"
    );
    assert_eq!(
        fused, slots,
        "superblock toggle changed a faulty trajectory — the fused path leaked into guest-visible state"
    );
}

/// The same contract with the pre-copy engine in the loop: dirty-page
/// tracking, per-page streaming, the delta freeze, and the engine's
/// failure recovery must all be simulation events — two faulty pre-copy
/// runs with one seed end in bit-identical worlds.
fn run_precopy_scenario(faults: simnet::FaultPlan) -> String {
    use pmig::proto::{migrate_proto, Protocol};
    let mut w = World::new(KernelConfig::paper());
    w.faults = faults;
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let obj = assemble(&pmig::workloads::dirty_hog_program(3_000, 10 * 0x2000)).unwrap();
    w.install_program(brick, "/bin/hog", &obj).unwrap();
    let victim = w.spawn_vm_proc(brick, "/bin/hog", None, alice()).unwrap();
    w.run_slices(10);
    let report = migrate_proto(&mut w, victim, brick, schooner, Protocol::PreCopy, alice())
        .expect("engine completes");
    format!("{:?}\n{}", report, common::snapshot_world(&w))
}

#[test]
fn faulty_precopy_with_same_fault_seed_is_bit_identical() {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    let plan = || {
        FaultPlan::seeded(0xC0FFEE)
            .with(FaultSpec::always(FaultSite::NfsOp, 3))
            .with(FaultSpec::always(FaultSite::MidDumpCrash, 1))
    };
    let first = run_precopy_scenario(plan());
    let second = run_precopy_scenario(plan());
    assert!(
        first.contains(" fault "),
        "injected faults must appear in the ktrace snapshot:\n{first}"
    );
    assert_eq!(
        first, second,
        "two pre-copy runs with the same fault seed diverged"
    );
}

// ----------------------------------------------------------------------
// The cluster scenario: every interaction class under one seed.
//
// Eight hosts mix every kind of cross-machine traffic the kernel has:
//   - tickers on every host: background VM work;
//   - a remote writer and a remote open/close reader: VM syscalls that
//     hit a *foreign* filesystem through `World::cross_call`
//     (creat/write/unlink on `/n/h0/...`);
//   - the Figure-4 migrate thread: a tty-blocked test program pulled
//     between hosts by a native `migrate` command (rsh daemons,
//     SIGDUMP, NFS dump traffic);
//   - a dump + demand-restore pair: the restored process fetches its
//     residual pages from the dump host on first touch, so the
//     `PageFetch` fault site actually fires under the faulty plan.
//
// Each phase is driven by a `run_until_time` deadline, which parks
// every machine clock at the same instant, so later spawns happen at
// fixed simulated times.
// ----------------------------------------------------------------------

const HOSTS: usize = 8;

/// A sleep-loop ticker that outlives the scenario: background VM work
/// on every host, with no filesystem traffic of its own.
fn ticker_program(beats: u32) -> String {
    format!(
        r#"
start:  move.l  #{beats}, d7
beat:   move.l  #150, d0            | sleep(2000us)
        move.l  #2000, d1
        trap    #0
        sub.l   #1, d7
        bgt     beat
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#
    )
}

/// Creats a file on a *foreign* host, appends to it `n` times with a
/// sleep between writes, then unlinks it: FsCreate, FsWrite and
/// FsUnlink all go through `World::cross_call`.
fn remote_writer_program(path: &str, n: u32) -> String {
    format!(
        r#"
start:  move.l  #8, d0              | creat(path, 0644)
        move.l  #fname, d1
        move.l  #420, d2
        trap    #0
        bcs     fail
        move.l  d0, d7
        move.l  #{n}, d6
wr:     move.l  #4, d0              | write(fd, msg, msglen)
        move.l  d7, d1
        move.l  #msg, d2
        move.l  #msglen, d3
        trap    #0
        bcs     fail
        move.l  #150, d0            | sleep(700us)
        move.l  #700, d1
        trap    #0
        sub.l   #1, d6
        bgt     wr
        move.l  #6, d0              | close(fd)
        move.l  d7, d1
        trap    #0
        move.l  #10, d0             | unlink(path)
        move.l  #fname, d1
        trap    #0
        move.l  #1, d0              | exit(0)
        move.l  #0, d1
        trap    #0
fail:   move.l  #1, d0              | exit(2)
        move.l  #2, d1
        trap    #0
        .data
fname:  .asciz  "{path}"
msg:    .ascii  "seam\n"
        .equ    msglen, 5
"#
    )
}

/// Open/close loop against a foreign path: every open resolves
/// through the client's `/n` mount and reads the server's inode.
fn remote_openclose_program(path: &str, n: u32) -> String {
    format!(
        r#"
start:  move.l  #{n}, d6
loop:   move.l  #5, d0              | open(path, RDONLY)
        move.l  #fname, d1
        move.l  #0, d2
        trap    #0
        bcs     fail
        move.l  d0, d1              | close(fd)
        move.l  #6, d0
        trap    #0
        move.l  #150, d0            | sleep(900us)
        move.l  #900, d1
        trap    #0
        sub.l   #1, d6
        bgt     loop
        move.l  #1, d0              | exit(0)
        move.l  #0, d1
        trap    #0
fail:   move.l  #1, d0              | exit(1)
        move.l  #1, d1
        trap    #0
        .data
fname:  .asciz  "{path}"
"#
    )
}

/// Runs the cluster scenario and renders the final world into the
/// canonical snapshot. `require_success` is on for fault-free runs
/// only: under injected faults the migrate may legitimately end with
/// the process back at the source.
fn run_cluster(faults: simnet::FaultPlan, require_success: bool) -> String {
    let mut w = World::new(KernelConfig::paper());
    w.faults = faults;
    for i in 0..HOSTS {
        w.add_machine(&format!("h{i}"), IsaLevel::Isa1);
    }

    // Background load on every host.
    let tick = assemble(&ticker_program(5_000)).unwrap();
    for i in 0..HOSTS {
        w.install_program(i, "/bin/tick", &tick).unwrap();
        w.spawn_vm_proc(i, "/bin/tick", None, alice()).unwrap();
    }

    // Foreign-filesystem traffic into h0 from h1 and h2.
    let writer = assemble(&remote_writer_program("/n/h0/tmp/rw", 24)).unwrap();
    w.install_program(1, "/bin/rwrite", &writer).unwrap();
    w.spawn_vm_proc(1, "/bin/rwrite", None, alice()).unwrap();
    let reader = assemble(&remote_openclose_program("/n/h0/bin/tick", 30)).unwrap();
    w.install_program(2, "/bin/ropen", &reader).unwrap();
    w.spawn_vm_proc(2, "/bin/ropen", None, alice()).unwrap();

    // The Figure-4 migrate thread: test program at its prompt on h6.
    let testprog = assemble(pmig::workloads::TEST_PROGRAM).unwrap();
    w.install_program(6, "/bin/testprog", &testprog).unwrap();
    let (tty, _handle) = w.add_terminal(6);
    let victim = w
        .spawn_vm_proc(6, "/bin/testprog", Some(tty), alice())
        .unwrap();

    // The demand-restore pair: a dirty hog on h4 whose dump h5 will
    // restore with `-d`, fetching residual pages over the wire.
    let hog = assemble(&pmig::workloads::dirty_hog_program(200_000, 10 * 0x2000)).unwrap();
    w.install_program(4, "/bin/hog", &hog).unwrap();
    let hog_pid = w.spawn_vm_proc(4, "/bin/hog", None, alice()).unwrap();

    // Let everything reach steady state (the test program blocks at
    // its prompt, the hog dirties its pages, the seam traffic flows).
    let budget = 50_000_000;
    assert_eq!(
        w.run_until_time(SimTime::BOOT + SimDuration::millis(100), budget),
        RunOutcome::Idle,
        "phase 1 must drain within budget"
    );

    // Kick off the migrate (h6 -> h7, driven from h7) and the dump.
    let cmd = w.spawn_native_proc(
        7,
        "migrate",
        None,
        alice(),
        Box::new(move |sys| match pmig::migrate(sys, victim, "h6", "h7") {
            Ok(status) => status,
            Err(e) => e.as_u16() as u32,
        }),
    );
    let dumper = w.spawn_native_proc(
        4,
        "dumpproc",
        None,
        alice(),
        Box::new(move |sys| match pmig::commands::dumpproc(sys, hog_pid) {
            Ok(()) => 0,
            Err(e) => e.as_u16() as u32,
        }),
    );
    assert_eq!(
        w.run_until_time(SimTime::BOOT + SimDuration::millis(500), budget),
        RunOutcome::Idle,
        "phase 2 must drain within budget"
    );

    // Demand-restore the hog on h5 from h4's dump files.
    let restarter = w.spawn_native_proc(
        5,
        "restart",
        None,
        alice(),
        Box::new(move |sys| {
            let args = pmig::commands::RestartArgs {
                pid: hog_pid,
                dump_host: Some("h4".to_string()),
                demand: true,
            };
            pmig::commands::restart(sys, &args).as_u16() as u32
        }),
    );
    // The rsh-driven migrate takes ~11.6s of simulated time (daemon
    // connect phases and dump/restart backoffs), so the final deadline
    // sits well past it.
    assert_eq!(
        w.run_until_time(SimTime::BOOT + SimDuration::secs(14), budget),
        RunOutcome::Idle,
        "phase 3 must drain within budget"
    );

    if require_success {
        let info = w
            .finished
            .get(&(7, cmd.0))
            .expect("migrate command finishes before the final deadline");
        assert_eq!(info.status, 0, "migrate must succeed in the fault-free run");
        let info = w
            .finished
            .get(&(4, dumper.0))
            .expect("dumpproc finishes before the final deadline");
        assert_eq!(
            info.status, 0,
            "dumpproc must succeed in the fault-free run"
        );
        // The restarter never *returns* on success — it became the
        // restored hog — so success is it not having exited with an
        // errno status.
        assert!(
            !w.finished.contains_key(&(5, restarter.0)),
            "restart must not fail in the fault-free run"
        );
        assert!(
            w.machine(5).stats.pages_fetched > 0,
            "the demand-restored hog must actually fetch residual pages"
        );
    }

    common::snapshot_world(&w)
}

/// The faulty plan: the dump and NFS fault sites plus the demand-restore
/// page-fetch site, all on one seed. The dump crash is scoped to the
/// migrate thread's source host so the h4 dump survives and the demand
/// restore still runs far enough for `PageFetch` to be eligible.
fn faulty_plan() -> simnet::FaultPlan {
    use simnet::{FaultPlan, FaultSite, FaultSpec};
    FaultPlan::seeded(0xDECAF)
        .with(FaultSpec {
            machine: Some(6),
            ..FaultSpec::always(FaultSite::MidDumpCrash, 1)
        })
        .with(FaultSpec::always(FaultSite::NfsOp, 2))
        .with(FaultSpec::always(FaultSite::PageFetch, 1))
}

#[test]
fn cluster_scenario_is_bit_identical_across_runs() {
    let first = run_cluster(simnet::FaultPlan::none(), true);
    let second = run_cluster(simnet::FaultPlan::none(), true);
    assert!(
        first.contains("machine 0 h0") && first.contains("machine 7 h7"),
        "snapshot looks degenerate:\n{first}"
    );
    assert_eq!(first, second, "two runs of the cluster scenario diverged");
}

#[test]
fn faulty_cluster_with_same_fault_seed_is_bit_identical() {
    let first = run_cluster(faulty_plan(), false);
    let second = run_cluster(faulty_plan(), false);
    // The bounded ktrace ring has long since evicted the fault records
    // by the 14s deadline; the per-machine `faults=` counters in the
    // stats rows prove the plan actually fired.
    let injected: u64 = first
        .lines()
        .filter_map(|l| l.split("faults=").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter_map(|n| n.parse::<u64>().ok())
        .sum();
    assert!(
        injected > 0,
        "injected faults must show in the stats counters:\n{first}"
    );
    assert_eq!(
        first, second,
        "two cluster runs with the same fault seed diverged"
    );
}
