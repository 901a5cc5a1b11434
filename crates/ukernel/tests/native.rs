//! The native-process coroutine lifecycle, end to end: a body is
//! unwound at its pending call when it is killed or overlaid, stacks
//! are recycled across many short-lived processes, and a body that
//! overruns its stack dies on the guard page instead of corrupting
//! memory.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use m68vm::{assemble, IsaLevel};
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{KernelConfig, ProcState, Sys, World};

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn world() -> (World, usize) {
    let mut w = World::new(KernelConfig::paper());
    let m = w.add_machine("brick", IsaLevel::Isa1);
    (w, m)
}

/// Counts its drops, to watch a body's locals go.
struct Tally(Arc<AtomicUsize>);

impl Drop for Tally {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A local that makes a system call from its destructor.
struct Closer<'a>(&'a Sys);

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        let _ = self.0.close(0);
    }
}

/// What a body under test leaves behind: how many of its locals were
/// dropped, and how often code after its pending call ran.
#[derive(Clone, Default)]
struct Probe {
    drops: Arc<AtomicUsize>,
    after: Arc<AtomicUsize>,
}

impl Probe {
    fn drops(&self) -> usize {
        self.drops.load(Ordering::SeqCst)
    }

    fn after(&self) -> usize {
        self.after.load(Ordering::SeqCst)
    }
}

/// Spawns a body that parks in `block`, then (should it ever return)
/// records that and makes one more call.
fn spawn_blocking(
    w: &mut World,
    m: usize,
    probe: &Probe,
    block: impl FnOnce(&Sys) + Send + 'static,
) -> Pid {
    let probe = probe.clone();
    w.spawn_native_proc(
        m,
        "blocker",
        None,
        alice(),
        Box::new(move |sys| {
            let _local = Tally(probe.drops.clone());
            let _closer = Closer(sys);
            block(sys);
            probe.after.fetch_add(1, Ordering::SeqCst);
            let _ = sys.getpid();
            0
        }),
    )
}

/// Kills `pid` once it is parked in `state`, runs the world on, and
/// checks the body was unwound at its pending call: locals dropped,
/// nothing after the call run, no request traced after the kill.
fn kill_while_parked(
    w: &mut World,
    m: usize,
    pid: Pid,
    probe: &Probe,
    parked: fn(&ProcState) -> bool,
) {
    for _ in 0..10_000 {
        if w.proc_ref(m, pid).is_some_and(|p| parked(&p.state)) {
            break;
        }
        w.run_slices(1);
    }
    let state = w.proc_ref(m, pid).map(|p| p.state.clone());
    assert!(
        state.as_ref().is_some_and(parked),
        "never parked: {state:?}"
    );
    let traced = w.machine(m).ktrace.seq;
    w.host_post_signal(m, pid, Signal::SIGKILL);
    w.run_slices(1_000);
    assert_eq!(
        w.finished.get(&(m, pid.as_u32())).map(|i| i.status),
        Some(128 + Signal::SIGKILL.number())
    );
    assert_eq!(probe.drops(), 1, "the body's locals were dropped");
    assert_eq!(probe.after(), 0, "no code after the pending call ran");
    let late: Vec<_> = w
        .machine(m)
        .ktrace
        .records()
        .filter(|r| r.seq >= traced && r.pid == pid)
        .map(|r| r.render())
        .collect();
    assert!(late.is_empty(), "requests after the kill: {late:?}");
}

#[test]
fn body_killed_in_sleep_is_unwound_at_the_call() {
    let (mut w, m) = world();
    let probe = Probe::default();
    let pid = spawn_blocking(&mut w, m, &probe, |sys| {
        let _ = sys.sleep_us(60_000_000);
    });
    kill_while_parked(&mut w, m, pid, &probe, |s| {
        matches!(s, ProcState::Sleeping { .. })
    });
}

#[test]
fn body_killed_in_wait_is_unwound_at_the_call() {
    let (mut w, m) = world();
    let obj = assemble("start:  bra     start\n").unwrap();
    w.install_program(m, "/bin/spin", &obj).unwrap();
    let probe = Probe::default();
    let pid = spawn_blocking(&mut w, m, &probe, |sys| {
        let _ = sys.wait();
    });
    // Natives cannot fork: hand the body a spinning child to wait for.
    let child = w.spawn_vm_proc(m, "/bin/spin", None, alice()).unwrap();
    w.proc_mut(m, child).unwrap().ppid = pid;
    kill_while_parked(&mut w, m, pid, &probe, |s| {
        matches!(s, ProcState::ChildWait)
    });
}

#[test]
fn no_body_code_runs_after_a_successful_rest_proc() {
    let (mut w, m) = world();
    let obj = assemble("start:  bra     start\n").unwrap();
    w.install_program(m, "/bin/spin", &obj).unwrap();
    let victim = w.spawn_vm_proc(m, "/bin/spin", None, alice()).unwrap();
    w.run_slices(10);
    let status = pmig::api::run_dumpproc(&mut w, m, victim, alice()).expect("dumpproc ran");
    assert_eq!(status, 0);
    let names = dumpfmt::dump_file_names(victim);
    let probe = Probe::default();
    let p = probe.clone();
    let pid = w.spawn_native_proc(
        m,
        "restart",
        None,
        alice(),
        Box::new(move |sys| {
            let _local = Tally(p.drops.clone());
            let _closer = Closer(sys);
            let e = sys.rest_proc(&names.a_out, &names.stack, None, None);
            p.after.fetch_add(1, Ordering::SeqCst);
            e.as_u16() as u32
        }),
    );
    for _ in 0..100_000 {
        if w.overlaid.contains_key(&(m, pid.as_u32())) {
            break;
        }
        w.run_slices(1);
    }
    assert!(
        w.overlaid.contains_key(&(m, pid.as_u32())),
        "rest_proc failed"
    );
    w.run_slices(1_000);
    assert_eq!(probe.drops(), 1, "the body's locals were dropped");
    assert_eq!(probe.after(), 0, "rest_proc returned into the body");
    // The process lives on as the restored image.
    let p = w.proc_ref(m, pid).expect("restored process");
    assert!(matches!(p.body, ukernel::Body::Vm(_)));
    assert!(!w.finished.contains_key(&(m, pid.as_u32())));
}

#[test]
fn ten_thousand_spawn_exit_cycles_all_exit_zero() {
    let (mut w, m) = world();
    for i in 0..10_000u32 {
        let pid = w.spawn_native_proc(
            m,
            "cycle",
            None,
            alice(),
            Box::new(move |sys| match sys.getpid() {
                Ok(_) => 0,
                Err(e) => e.as_u16() as u32 + i,
            }),
        );
        let info = w.run_until_exit(m, pid, 1_000).expect("exits");
        assert_eq!(info.status, 0, "cycle {i}");
    }
}

/// Set in the re-executed child of
/// [`stack_overflow_dies_on_the_guard_page`].
const OVERFLOW_CHILD: &str = "UKERNEL_NATIVE_OVERFLOW_CHILD";

/// Recurses with a page-sized frame per level until something stops it.
fn recurse(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth as u8; 4096]);
    if depth == u64::MAX {
        return 0;
    }
    recurse(depth + 1) + frame[depth as usize % 4096] as u64
}

/// Is the mapping holding address `at` directly above an inaccessible
/// one, per `/proc/self/maps`?
fn guarded(at: usize) -> bool {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("reads the memory map");
    let rows: Vec<(usize, usize, bool)> = maps
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (lo, hi) = f.next()?.split_once('-')?;
            let none = f.next()?.starts_with("---");
            let hex = |s: &str| usize::from_str_radix(s, 16).ok();
            Some((hex(lo)?, hex(hi)?, none))
        })
        .collect();
    rows.iter()
        .find(|&&(lo, hi, _)| lo <= at && at < hi)
        .is_some_and(|&(lo, _, _)| rows.iter().any(|&(_, hi, none)| hi == lo && none))
}

#[test]
fn stack_overflow_dies_on_the_guard_page() {
    if std::env::var_os(OVERFLOW_CHILD).is_some() {
        let (mut w, m) = world();
        let pid = w.spawn_native_proc(
            m,
            "deep",
            None,
            alice(),
            Box::new(|_sys| {
                let here = 0u8;
                let at = std::hint::black_box(&here) as *const u8 as usize;
                eprintln!("guard page below the native stack: {}", guarded(at));
                recurse(0) as u32
            }),
        );
        w.run_until_exit(m, pid, 1_000);
        // Reaching here means the overflow was not caught.
        std::process::exit(0);
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "stack_overflow_dies_on_the_guard_page",
            "--test-threads=1",
            "--nocapture",
        ])
        .env(OVERFLOW_CHILD, "1")
        .output()
        .expect("re-executes the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    use std::os::unix::process::ExitStatusExt;
    assert!(
        stderr.contains("guard page below the native stack: true"),
        "{stderr}"
    );
    assert_eq!(
        out.status.signal(),
        Some(11),
        "the child must die by SIGSEGV on the guard page: {:?}\n{stderr}",
        out.status,
    );
}
