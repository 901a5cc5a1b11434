//! The benchmark's one host clock: CPU time of the whole process.
//!
//! Host time here means CPU seconds (user + system, summed over every
//! thread, exited ones included) of the benchmark process, read from
//! `CLOCK_PROCESS_CPUTIME_ID`. The migration pipelines run their
//! utilities on native threads that rendezvous with the kernel thread,
//! and on a shared virtual machine the wall-clock latency of those
//! wake-ups swings by 2× from minute to minute while the CPU they cost
//! does not. CPU time still counts every instruction, system call and
//! context switch a layer causes, so a layer made cheaper shows here.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the call only
    // writes it, and a supported clock id cannot fail.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A started stopwatch over process CPU time.
#[derive(Clone, Copy, Debug)]
pub struct CpuStopwatch {
    start: f64,
}

impl CpuStopwatch {
    pub fn start() -> CpuStopwatch {
        CpuStopwatch { start: cpu_secs() }
    }

    /// CPU seconds since [`CpuStopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        cpu_secs() - self.start
    }
}
