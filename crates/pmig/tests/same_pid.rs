//! Jobs from two hosts that share a pid, moved onto one third host.
//! Both restored images are named `a.out00002` there, so every pipeline
//! has to return the copy its own call made rather than the first
//! process it finds under that name — and must not poll its slice
//! budget away looking for it.

use m68vm::{assemble, IsaLevel};
use pmig::proto::{migrate_proto, Protocol};
use pmig::{api, workloads, Survivor};
use sysdefs::{Credentials, Gid, Pid, Uid};
use ukernel::{KernelConfig, MachineId, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Pid 2 on both `a` and `b`, one dirty-page hog each (its sweep needs
/// four pages of ballast), plus an empty target `c`.
fn colliding_jobs() -> (World, MachineId, MachineId, MachineId) {
    let mut w = World::new(KernelConfig::paper());
    let a = w.add_machine("a", IsaLevel::Isa1);
    let b = w.add_machine("b", IsaLevel::Isa1);
    let c = w.add_machine("c", IsaLevel::Isa1);
    let obj = assemble(&workloads::dirty_hog_program(1_500, 4 * 0x2000)).unwrap();
    for m in [a, b] {
        w.install_program(m, "/bin/hog", &obj).unwrap();
        let pid = w.spawn_vm_proc(m, "/bin/hog", None, alice()).unwrap();
        assert_eq!(pid, Pid(2));
    }
    w.run_slices(10);
    (w, a, b, c)
}

/// Both copies are distinct live `a.out00002` processes on `c`.
fn assert_two_live_copies(w: &World, c: MachineId, first: Pid, second: Pid, what: &str) {
    assert_ne!(
        first, second,
        "{what}: the second call must return its own copy"
    );
    for pid in [first, second] {
        let p = w
            .proc_ref(c, pid)
            .unwrap_or_else(|| panic!("{what}: {pid:?} is not on the target"));
        assert_eq!(p.comm, "a.out00002", "{what}");
        assert!(!w.finished.contains_key(&(c, pid.as_u32())), "{what}");
    }
}

/// A migration that finds its copy takes a few thousand slices; the
/// restart poll's budget is two million.
const SLICES_PER_PAIR: u64 = 200_000;

#[test]
fn migrate_process_returns_its_own_copy() {
    let (mut w, a, b, c) = colliding_jobs();
    let s0 = w.slices;
    let first = api::migrate_process(&mut w, Pid(2), a, c, a, None, alice()).expect("first");
    let second = api::migrate_process(&mut w, Pid(2), b, c, b, None, alice()).expect("second");
    assert_two_live_copies(&w, c, first, second, "rsh");
    assert!(w.slices - s0 < SLICES_PER_PAIR, "{} slices", w.slices - s0);
}

#[test]
fn proto_restarts_return_their_own_pids() {
    for proto in Protocol::ALL {
        let (mut w, a, b, c) = colliding_jobs();
        let s0 = w.slices;
        let mut moved = Vec::new();
        for from in [a, b] {
            let report = migrate_proto(&mut w, Pid(2), from, c, proto, alice())
                .unwrap_or_else(|e| panic!("{}: {e}", proto.name()));
            assert_eq!(report.survivor, Survivor::Target, "{}", proto.name());
            moved.push(report.new_pid.expect("target pid"));
        }
        assert_two_live_copies(&w, c, moved[0], moved[1], proto.name());
        assert!(
            w.slices - s0 < SLICES_PER_PAIR,
            "{}: {} slices",
            proto.name(),
            w.slices - s0
        );
    }
}
