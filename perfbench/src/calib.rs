//! Calibration micro-benchmarks: one unit cost per layer, each the
//! median (with quartiles) of several timed repetitions of a call into
//! that layer's public API.

use std::hint::black_box;

use crate::clock::CpuStopwatch;
use m68vm::{assemble, Cpu, ICache, IsaLevel, SbExit};
use simtime::SimDuration;
use ukernel::namei::{namei, FollowLast};
use ukernel::{FileRef, KernelConfig, World};

use crate::counters::world_now;
use crate::progs;
use crate::stats::{calibrate, Spread};
use crate::workload::cred;

/// Repetitions per calibration.
const REPS: usize = 15;

fn one_host() -> World {
    let mut w = World::new(KernelConfig::paper());
    w.add_machine("cal", IsaLevel::Isa1);
    w
}

/// Every layer's unit cost.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// One native-process system call (thread rendezvous), µs.
    pub rendezvous_us: Spread,
    /// Spawning an empty native process and running it to exit, µs.
    pub spawn_us: Spread,
    /// One `namei` over a `/n/<host>/usr/tmp/…` path, µs.
    pub namei_us: Spread,
    /// Dump-file codecs, ns per byte of `filesXXXXX` + `stackXXXXX`.
    pub encode_ns_per_byte: Spread,
    pub decode_ns_per_byte: Spread,
    /// a.out parse, ns per byte of `a.outXXXXX`.
    pub aout_ns_per_byte: Spread,
    /// Bytes of one storm job's dump set (a.out + files + stack), and
    /// of its files + stack part alone.
    pub dump_bytes: f64,
    pub meta_bytes: f64,
    pub aout_bytes: f64,
    /// One guest instruction through `Cpu::step_superblock`, ns.
    pub ns_per_insn: Spread,
    /// One guest `getpid` trap, dispatch only (loop instructions
    /// subtracted), µs.
    pub syscall_us: Spread,
    /// One scheduler event of an idle ticker installation, µs.
    pub us_per_event: Spread,
    /// fork + exit + wait of a minimal child, µs.
    pub fork_us: Spread,
    /// Extra fork cost per KB of child image, ns.
    pub fork_ns_per_kb: Spread,
}

/// Host seconds to spawn a native process that makes `calls` `getpid`
/// calls, and run it to exit.
fn native_run(w: &mut World, calls: u32) -> f64 {
    let sw = CpuStopwatch::start();
    let pid = w.spawn_native_proc(
        0,
        "cal",
        None,
        cred(),
        Box::new(move |sys| {
            for _ in 0..calls {
                let _ = black_box(sys.getpid());
            }
            0
        }),
    );
    let info = w.run_until_exit(0, pid, u64::MAX).expect("native exits");
    assert_eq!(info.status, 0);
    sw.elapsed_secs()
}

/// Host seconds to run the VM program `src` to exit 0 on a fresh host.
fn vm_run(src: &str) -> f64 {
    let mut w = one_host();
    let obj = assemble(src).expect("calibration program assembles");
    w.install_program(0, "/bin/cal", &obj).expect("installs");
    let sw = CpuStopwatch::start();
    let pid = w
        .spawn_vm_proc(0, "/bin/cal", None, cred())
        .expect("spawns");
    let info = w.run_until_exit(0, pid, u64::MAX).expect("exits");
    assert_eq!(info.status, 0);
    sw.elapsed_secs()
}

fn rendezvous() -> Spread {
    const N: u32 = 400;
    let mut w = one_host();
    calibrate(REPS, 1e6, || {
        let long = native_run(&mut w, N);
        let short = native_run(&mut w, 0);
        (long - short, N as f64)
    })
}

fn spawn() -> Spread {
    const N: u32 = 20;
    let mut w = one_host();
    calibrate(REPS, 1e6, || {
        let secs: f64 = (0..N).map(|_| native_run(&mut w, 0)).sum();
        (secs, N as f64)
    })
}

fn lookup() -> Spread {
    const N: u32 = 2_000;
    let mut w = World::new(KernelConfig::paper());
    for i in 0..crate::storm::HOSTS {
        w.add_machine(&format!("h{i}"), IsaLevel::Isa1);
    }
    w.host_write_file(3, "/usr/tmp/a.out00042", b"x")
        .expect("writes");
    let root = FileRef {
        machine: 0,
        ino: w.machine(0).fs.root(),
    };
    let path = "/n/h3/usr/tmp/a.out00042";
    calibrate(REPS, 1e6, || {
        let sw = CpuStopwatch::start();
        for _ in 0..N {
            black_box(namei(&w, 0, &cred(), root, path, FollowLast::Yes).expect("resolves"));
        }
        (sw.elapsed_secs(), N as f64)
    })
}

/// A storm job's dump set, captured with `run_dumpproc` and read back
/// with `host_read_file`.
pub struct DumpSet {
    pub aout: Vec<u8>,
    pub files: Vec<u8>,
    pub stack: Vec<u8>,
}

impl DumpSet {
    /// Dumps a running 32-page storm job.
    pub fn capture() -> DumpSet {
        let mut w = one_host();
        let src = progs::job_program(crate::storm::MAX_PAGES, 2, 0, 50_000);
        let obj = assemble(&src).expect("job assembles");
        w.install_program(0, "/bin/job", &obj).expect("installs");
        let pid = w
            .spawn_vm_proc(0, "/bin/job", None, cred())
            .expect("spawns");
        w.run_until_time(world_now(&w) + SimDuration::millis(120), u64::MAX);
        let status = pmig::api::run_dumpproc(&mut w, 0, pid, cred()).expect("dumpproc runs");
        assert_eq!(status, 0, "dumpproc succeeds");
        let names = dumpfmt::dump_file_names(pid);
        let read = |p: &str| w.host_read_file(0, p).expect("dump file exists");
        DumpSet {
            aout: read(&names.a_out),
            files: read(&names.files),
            stack: read(&names.stack),
        }
    }

    /// Bytes of `filesXXXXX` + `stackXXXXX`, the part `dumpfmt` codes.
    fn meta_bytes(&self) -> f64 {
        (self.files.len() + self.stack.len()) as f64
    }

    /// Per-byte cost of `dumpfmt` decoding and of encoding back.
    fn codecs(&self) -> (Spread, Spread) {
        const N: u32 = 200;
        let files = dumpfmt::FilesFile::decode(&self.files).expect("files decodes");
        let stack = dumpfmt::StackFile::decode(&self.stack).expect("stack decodes");
        let decode = calibrate(REPS, 1e9, || {
            let sw = CpuStopwatch::start();
            for _ in 0..N {
                black_box(dumpfmt::FilesFile::decode(black_box(&self.files)).expect("decodes"));
                black_box(dumpfmt::StackFile::decode(black_box(&self.stack)).expect("decodes"));
            }
            (sw.elapsed_secs(), N as f64 * self.meta_bytes())
        });
        let encode = calibrate(REPS, 1e9, || {
            let sw = CpuStopwatch::start();
            for _ in 0..N {
                black_box(black_box(&files).encode().expect("encodes"));
                black_box(black_box(&stack).encode().expect("encodes"));
            }
            (sw.elapsed_secs(), N as f64 * self.meta_bytes())
        });
        (decode, encode)
    }

    /// Per-byte cost of parsing the image as an a.out.
    fn parse(&self) -> Spread {
        const N: u32 = 200;
        calibrate(REPS, 1e9, || {
            let sw = CpuStopwatch::start();
            for _ in 0..N {
                black_box(aout::parse_executable(black_box(&self.aout)).expect("parses"));
            }
            (sw.elapsed_secs(), N as f64 * self.aout.len() as f64)
        })
    }
}

fn interpreter() -> Spread {
    let obj = assemble(&progs::sweep_calibration_program()).expect("sweep assembles");
    let icache = ICache::build(&obj.text, IsaLevel::Isa1);
    calibrate(REPS, 1e9, || {
        let mut mem = obj.to_memory();
        let mut cpu = Cpu::at_entry(obj.entry);
        let sw = CpuStopwatch::start();
        let (_, exit) = cpu.step_superblock(&mut mem, &icache, u64::MAX);
        let secs = sw.elapsed_secs();
        assert!(
            matches!(exit, SbExit::Trap { vector: 0 }),
            "sweep ends in trap #0"
        );
        (secs, progs::sweep_calibration_insns() as f64)
    })
}

fn dispatch(ns_per_insn: f64) -> Spread {
    const N: u32 = 4_000;
    let long = progs::getpid_loop_program(2 * N);
    let short = progs::getpid_loop_program(N);
    calibrate(REPS, 1e6, || {
        let loop_insns = 4.0 * N as f64 * ns_per_insn * 1e-9;
        (vm_run(&long) - vm_run(&short) - loop_insns, N as f64)
    })
}

fn scheduler() -> Spread {
    const HOSTS: usize = 16;
    let obj = assemble(&progs::ticker_program(2_000)).expect("ticker assembles");
    calibrate(REPS, 1e6, || {
        let mut w = World::new(KernelConfig::paper());
        for i in 0..HOSTS {
            w.add_machine(&format!("t{i}"), IsaLevel::Isa1);
            w.install_program(i, "/bin/tick", &obj).expect("installs");
            w.spawn_vm_proc(i, "/bin/tick", None, cred())
                .expect("spawns");
        }
        let start = world_now(&w) + SimDuration::millis(50);
        w.run_until_time(start, u64::MAX);
        let slices0 = w.slices;
        let sw = CpuStopwatch::start();
        w.run_until_time(start + SimDuration::millis(500), u64::MAX);
        (sw.elapsed_secs(), (w.slices - slices0) as f64)
    })
}

/// fork + exit + wait of a small child, and the extra cost per KB of
/// a bigger one.
fn fork() -> (Spread, Spread) {
    const N: u32 = 100;
    const SMALL: u32 = 8 * 1024;
    const BIG: u32 = 256 * 1024;
    let small = |n| progs::fork_loop_program(n, SMALL);
    let per_fork = calibrate(REPS, 1e6, || {
        (vm_run(&small(2 * N)) - vm_run(&small(N)), N as f64)
    });
    let big = progs::fork_loop_program(N, BIG);
    let per_kb = calibrate(REPS, 1e9, || {
        let kb = (BIG - SMALL) as f64 / 1024.0;
        (vm_run(&big) - vm_run(&small(N)), N as f64 * kb)
    });
    (per_fork, per_kb)
}

/// Runs every calibration.
pub fn run() -> Calibration {
    let ns_per_insn = interpreter();
    let (fork_us, fork_ns_per_kb) = fork();
    let dump = DumpSet::capture();
    let (decode_ns_per_byte, encode_ns_per_byte) = dump.codecs();
    Calibration {
        rendezvous_us: rendezvous(),
        spawn_us: spawn(),
        namei_us: lookup(),
        encode_ns_per_byte,
        decode_ns_per_byte,
        aout_ns_per_byte: dump.parse(),
        dump_bytes: dump.meta_bytes() + dump.aout.len() as f64,
        meta_bytes: dump.meta_bytes(),
        aout_bytes: dump.aout.len() as f64,
        syscall_us: dispatch(ns_per_insn.p50),
        ns_per_insn,
        us_per_event: scheduler(),
        fork_us,
        fork_ns_per_kb,
    }
}
