//! Native processes: Rust utilities running under the simulated kernel.
//!
//! The paper's user-level programs (`dumpproc`, `restart`, `migrate`,
//! daemons) are ordinary imperative code. To let them stay that way while
//! the kernel remains a deterministic single-threaded simulation, each
//! native process runs its program as a **stackful coroutine** on the
//! kernel's own thread, with a stack of its own, and suspends at every
//! system call:
//!
//! 1. the program calls a [`Sys`] method, which stores the request and
//!    switches back to the kernel's stack;
//! 2. the kernel executes the request, charges its simulated cost, and
//!    stores the reply — at once, or when a blocked call completes;
//! 3. when the scheduler next runs the process, the kernel switches
//!    back onto the program's stack and the call returns the reply.
//!
//! Only one side ever runs, on one host thread, so execution is
//! deterministic and a system call costs two stack switches rather than
//! two host context switches.
//!
//! Dropping a [`Native`] body that is suspended in a call — on exit, on
//! a kill, or when a successful `rest_proc()` or `execve()` overlays the
//! process with a VM image — resumes it once more to unwind it from that
//! call: the program's locals are dropped and no code after the call
//! runs, so "there is no return from this system call", exactly as §4.3
//! specifies. Calls made by destructors during that unwind fail with
//! `EINTR` without reaching the kernel.
//!
//! The transport's safety rests on these invariants (DESIGN.md §2):
//! a body is only resumed through `&mut Native`, so by whoever holds it
//! mutably; a body is not `Send`, so its world stays on the one thread
//! that steps it; every stack has a guard page below it; and only
//! x86_64 is supported.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;

use sysdefs::{Disposition, Errno, Pid, Signal, SysResult, TtyFlags};

use crate::sys::args::{IoctlReq, Syscall, Whence};

#[cfg(not(target_arch = "x86_64"))]
compile_error!("native processes switch stacks with x86_64 assembly; no other target is supported");

/// A native program body: takes its [`Sys`] handle, returns its exit
/// status.
pub type NativeProgram = Box<dyn FnOnce(&Sys) -> u32 + Send + 'static>;

/// What a native program asks of the kernel.
pub enum Request {
    /// An ordinary system call.
    Syscall(Syscall),
    /// Run a command on another machine through `rsh`, blocking until it
    /// exits; the reply value is the remote exit status.
    Rsh {
        /// Destination host name.
        host: String,
        /// The remote command body.
        prog: NativeProgram,
        /// Remote command name for diagnostics.
        comm: String,
    },
    /// Spawn a child native process on the *local* machine, blocking
    /// until it exits (how `migrate` runs `dumpproc`/`restart` locally
    /// without the cost of `rsh`). Reply value is the exit status.
    RunLocal {
        /// The command body.
        prog: NativeProgram,
        /// Command name for diagnostics.
        comm: String,
    },
    /// Charge `units` of user-mode CPU (models the program's own
    /// computation between system calls).
    Compute {
        /// Simple-instruction units.
        units: u64,
    },
    /// Ask the migration daemon on another machine to run a command —
    /// the §6.4 proposal: "instead of using rsh to start processes
    /// remotely, applications will simply send messages to the daemon,
    /// who will start the processes on their behalf." One network
    /// message instead of a whole `rsh` session.
    Daemon {
        /// Destination host name.
        host: String,
        /// The remote command body.
        prog: NativeProgram,
        /// Remote command name for diagnostics.
        comm: String,
    },
}

/// The kernel's reply to a request.
#[derive(Clone, Debug)]
pub struct Response {
    /// Numeric result or errno.
    pub val: Result<u32, Errno>,
    /// Returned bytes for buffer-filling calls.
    pub data: Vec<u8>,
}

impl Response {
    /// A plain value reply.
    pub fn of(val: Result<u32, Errno>) -> Response {
        Response {
            val,
            data: Vec::new(),
        }
    }
}

/// Where a coroutine is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Never resumed: the program has not started.
    Fresh,
    /// Started and suspended at a request.
    Started,
    /// Suspended at its exit request, with nothing left on its stack
    /// to drop: the body can be freed without resuming it.
    Exiting,
    /// Returned to its entry frame for the last time.
    Done,
}

/// The state a coroutine and its resumer share. It lives at the top of
/// the coroutine's stack, above every frame, for the coroutine's whole
/// life; both sides reach it through a raw pointer and only ever take
/// shared references, so the fields are cells.
struct Link {
    /// Saved stack pointer of the suspended coroutine.
    co_sp: Cell<usize>,
    /// Saved stack pointer of whoever resumed it last.
    resumer_sp: Cell<usize>,
    phase: Cell<Phase>,
    /// The program, until the first resume starts it.
    prog: Cell<Option<NativeProgram>>,
    /// The request the coroutine suspended with.
    request: Cell<Option<Request>>,
    /// The reply its pending call returns when next resumed.
    reply: Cell<Option<Response>>,
    /// Set when the body is dropped: the pending call unwinds instead
    /// of returning.
    cancel: Cell<bool>,
    /// The cancel unwind has begun; later calls fail with `EINTR`.
    unwinding: Cell<bool>,
}

/// Panic payload that unwinds a cancelled program.
struct Cancelled;

/// A native process body: its program, suspended at a request on a
/// stack of its own. Held by [`crate::proc::Body::Native`].
pub struct Native {
    /// Points into `stack`.
    link: NonNull<Link>,
    /// `None` only while `drop` hands it back to the pool.
    stack: Option<Stack>,
}

impl Native {
    /// Wraps `prog` in a coroutine that has not started yet; it runs
    /// up to its first request on the first [`Native::resume`].
    pub(crate) fn new(prog: NativeProgram) -> Native {
        let stack = Stack::take();
        // SAFETY: no coroutine runs on a stack taken from the pool.
        let link = unsafe { stack.prime(prog) };
        Native {
            link,
            stack: Some(stack),
        }
    }

    fn link(&self) -> &Link {
        // SAFETY: the link is dropped only when `self` is.
        unsafe { self.link.as_ref() }
    }

    /// Stores the reply the pending call returns on the next resume.
    pub(crate) fn reply(&mut self, resp: Response) {
        self.link().reply.set(Some(resp));
    }

    /// Runs the program on its own stack until its next request. `None`
    /// means it has finished: it always sends an exit request first, so
    /// the kernel only sees this if it resumes a body it should have
    /// dropped.
    pub(crate) fn resume(&mut self) -> Option<Request> {
        let link = self.link();
        match link.phase.get() {
            Phase::Done => return None,
            Phase::Fresh => link.phase.set(Phase::Started),
            Phase::Started | Phase::Exiting => {}
        }
        // SAFETY: `co_sp` is the saved context of this coroutine, which
        // is suspended (we hold it mutably and it is not Done).
        unsafe { switch(link.resumer_sp.as_ptr(), link.co_sp.get()) };
        link.request.take()
    }
}

impl Drop for Native {
    fn drop(&mut self) {
        let link = self.link();
        if link.phase.get() == Phase::Started {
            // Unwind the program from its pending call; it switches
            // back once its entry frame has caught the unwind.
            link.cancel.set(true);
            // SAFETY: as in `resume`.
            unsafe { switch(link.resumer_sp.as_ptr(), link.co_sp.get()) };
        }
        // Nothing on the stack but the link (and an unstarted program)
        // needs dropping any more, so it can be reused.
        // SAFETY: written by `prime`, dropped once, and the coroutine no
        // longer runs.
        unsafe { std::ptr::drop_in_place(self.link.as_ptr()) };
        if let Some(stack) = self.stack.take() {
            stack.recycle();
        }
    }
}

impl fmt::Debug for Native {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Native")
            .field("phase", &self.link().phase.get())
            .finish()
    }
}

/// The first code a coroutine runs, entered from [`start`] with its
/// link. Runs the program, reports its exit, and switches back for the
/// last time.
unsafe extern "C" fn entry(link: *const Link) -> ! {
    // SAFETY: `prime` passed the live link of the body being started.
    let link = unsafe { &*link };
    let sys = Sys {
        link: NonNull::from(link),
    };
    let prog = link.prog.take().expect("a fresh body holds its program");
    let status = match catch_unwind(AssertUnwindSafe(|| prog(&sys))) {
        Ok(status) => Some(status),
        // Dropped at a pending call: the process is gone, say nothing.
        Err(payload) if payload.is::<Cancelled>() => None,
        // The program panicked: report it as status 255 so tests see
        // the failure rather than a hang.
        Err(_) => Some(255),
    };
    if let Some(status) = status {
        // The kernel dispatches this like any exit(2) and drops the body
        // without resuming it: `prog` and any panic payload are gone,
        // and `sys` and `link` are plain references.
        link.phase.set(Phase::Exiting);
        let _ = sys.exchange(Request::Syscall(Syscall::Exit { status }));
    }
    link.phase.set(Phase::Done);
    let mut dead_sp = 0usize;
    // SAFETY: every value on this stack has been dropped or consumed
    // (`sys` and `link` are plain references), so abandoning the stack
    // here is sound; the resumer never switches back to `dead_sp`.
    unsafe { switch(&mut dead_sp, link.resumer_sp.get()) };
    unreachable!("a finished native coroutine was resumed")
}

/// Saves the callee-saved registers on the current stack, stores the
/// stack pointer in `*save`, then loads the stack pointer `to` and
/// restores the registers saved there. Returns on the other stack — to
/// whoever last switched away from it, or to [`start`] on a fresh one.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut usize, to: usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a fresh coroutine's first [`switch`] returns: calls [`entry`]
/// with the link [`Stack::prime`] left in `rbx`. `entry` never returns,
/// and this frame has no unwind information, so unwinders and
/// backtraces stop here.
#[unsafe(naked)]
unsafe extern "C" fn start() {
    core::arch::naked_asm!("mov rdi, rbx", "call {entry}", "ud2", entry = sym entry)
}

// ---------------------------------------------------------------------
// Stacks.
// ---------------------------------------------------------------------

/// Usable bytes of a coroutine stack (a spawned thread's default).
const STACK_BYTES: usize = 2 << 20;
/// The x86_64 page size; one inaccessible page sits below every stack.
const PAGE: usize = 4096;
/// Stacks kept per host thread for reuse.
const POOL_MAX: usize = 16;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

thread_local! {
    static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// An anonymous mapping of a guard page plus [`STACK_BYTES`] of stack.
/// Pages are committed as the program touches them; a recursion that
/// runs off the bottom faults on the guard page and the host process
/// dies by `SIGSEGV` instead of corrupting memory.
struct Stack {
    base: NonNull<u8>,
}

impl Stack {
    const LEN: usize = PAGE + STACK_BYTES;

    /// A pooled stack, or a freshly mapped one.
    fn take() -> Stack {
        POOL.try_with(|p| p.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        unsafe {
            let base = mmap(
                std::ptr::null_mut(),
                Self::LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(
                base as isize != -1,
                "cannot map a native process stack: {}",
                std::io::Error::last_os_error()
            );
            assert_eq!(
                mprotect(base, PAGE, PROT_NONE),
                0,
                "cannot protect a native stack's guard page"
            );
            Stack {
                base: NonNull::new_unchecked(base),
            }
        }
    }

    /// Returns the stack to this thread's pool, or unmaps it.
    fn recycle(self) {
        let _ = POOL.try_with(move |p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_MAX {
                pool.push(self);
            }
        });
    }

    /// Writes the body's [`Link`] at the top of the stack and, below it,
    /// the frame a fresh coroutine's first [`switch`] pops: six
    /// callee-saved registers (`rbx` carrying the link), [`start`] as the
    /// return address, and a zero word that ends the call chain. [`start`]
    /// then calls [`entry`] with a 16-byte-aligned stack, as the ABI
    /// requires.
    ///
    /// # Safety
    /// No coroutine may be running on this stack.
    unsafe fn prime(&self, prog: NativeProgram) -> NonNull<Link> {
        let top = self.base.as_ptr() as usize + Self::LEN;
        let link_at = (top - std::mem::size_of::<Link>()) & !15;
        let link = link_at as *mut Link;
        let frame: [usize; 9] = [
            0,                           // r15
            0,                           // r14
            0,                           // r13
            0,                           // r12
            link_at,                     // rbx
            0,                           // rbp
            start as *const () as usize, // switch's `ret` lands in `start`
            0,                           // end of the call chain
            0,                           // padding: `start` runs at link_at - 16
        ];
        let sp = link_at - std::mem::size_of_val(&frame);
        // SAFETY: `sp..top` lies in the writable part of the mapping,
        // and nothing else uses it.
        unsafe {
            link.write(Link {
                co_sp: Cell::new(sp),
                resumer_sp: Cell::new(0),
                phase: Cell::new(Phase::Fresh),
                prog: Cell::new(Some(prog)),
                request: Cell::new(None),
                reply: Cell::new(None),
                cancel: Cell::new(false),
                unwinding: Cell::new(false),
            });
            (sp as *mut [usize; 9]).write(frame);
            NonNull::new_unchecked(link)
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours and nothing runs on it any more.
        unsafe { munmap(self.base.as_ptr(), Self::LEN) };
    }
}

// ---------------------------------------------------------------------
// The program's side.
// ---------------------------------------------------------------------

/// The program's system-call interface.
pub struct Sys {
    link: NonNull<Link>,
}

impl Sys {
    /// Suspends with `req` until the kernel resumes us; `None` when the
    /// body is being dropped instead.
    fn exchange(&self, req: Request) -> Option<Response> {
        // SAFETY: a `Sys` only exists on its body's coroutine stack, and
        // the body drops its link only once the coroutine has stopped.
        let link = unsafe { self.link.as_ref() };
        if link.cancel.get() {
            return None;
        }
        link.request.set(Some(req));
        // SAFETY: we are the running coroutine; `resumer_sp` is the
        // context that resumed us and is waiting in `switch`.
        unsafe { switch(link.co_sp.as_ptr(), link.resumer_sp.get()) };
        if link.cancel.get() {
            return None;
        }
        link.reply.take()
    }

    fn roundtrip(&self, req: Request) -> SysResult<Response> {
        if let Some(resp) = self.exchange(req) {
            return Ok(resp);
        }
        // SAFETY: as in `exchange`.
        let link = unsafe { self.link.as_ref() };
        if link.cancel.get() && !link.unwinding.replace(true) {
            resume_unwind(Box::new(Cancelled));
        }
        Err(Errno::EINTR)
    }

    fn call(&self, sc: Syscall) -> SysResult<Response> {
        self.roundtrip(Request::Syscall(sc))
    }

    fn val(&self, sc: Syscall) -> SysResult<u32> {
        self.call(sc)?.val
    }

    /// Opens a file; returns the descriptor. `mode` gives the
    /// permission bits of a `CREAT` open and is ignored otherwise.
    pub fn open(&self, path: &str, flags: u16, mode: u16) -> SysResult<usize> {
        self.val(Syscall::Open {
            path: path.into(),
            flags,
            mode,
        })
        .map(|v| v as usize)
    }

    /// Creates (truncating) and opens a file for writing.
    pub fn creat(&self, path: &str, mode: u16) -> SysResult<usize> {
        self.val(Syscall::Creat {
            path: path.into(),
            mode,
        })
        .map(|v| v as usize)
    }

    /// Reads up to `len` bytes.
    pub fn read(&self, fd: usize, len: usize) -> SysResult<Vec<u8>> {
        let resp = self.call(Syscall::Read {
            fd,
            len,
            buf_addr: None,
        })?;
        resp.val?;
        Ok(resp.data)
    }

    /// Reads the whole remainder of a file.
    pub fn read_all(&self, fd: usize) -> SysResult<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let chunk = self.read(fd, 8192)?;
            if chunk.is_empty() {
                return Ok(out);
            }
            out.extend_from_slice(&chunk);
        }
    }

    /// Writes bytes; returns the count written.
    pub fn write(&self, fd: usize, bytes: &[u8]) -> SysResult<usize> {
        self.val(Syscall::Write {
            fd,
            bytes: bytes.to_vec(),
        })
        .map(|v| v as usize)
    }

    /// Closes a descriptor.
    pub fn close(&self, fd: usize) -> SysResult<()> {
        self.val(Syscall::Close { fd }).map(|_| ())
    }

    /// Repositions a descriptor.
    pub fn lseek(&self, fd: usize, offset: i64, whence: Whence) -> SysResult<u64> {
        self.val(Syscall::Lseek { fd, offset, whence })
            .map(|v| v as u64)
    }

    /// Changes the working directory.
    pub fn chdir(&self, path: &str) -> SysResult<()> {
        self.val(Syscall::Chdir { path: path.into() }).map(|_| ())
    }

    /// Returns a file's size, or the error.
    pub fn stat_size(&self, path: &str) -> SysResult<u64> {
        self.val(Syscall::Stat { path: path.into() })
            .map(|v| v as u64)
    }

    /// Removes a name.
    pub fn unlink(&self, path: &str) -> SysResult<()> {
        self.val(Syscall::Unlink { path: path.into() }).map(|_| ())
    }

    /// Hard-links `old` to `new`.
    pub fn link(&self, old: &str, new: &str) -> SysResult<()> {
        self.val(Syscall::Link {
            old: old.into(),
            new: new.into(),
        })
        .map(|_| ())
    }

    /// Creates a symbolic link.
    pub fn symlink(&self, target: &str, link: &str) -> SysResult<()> {
        self.val(Syscall::Symlink {
            target: target.into(),
            link: link.into(),
        })
        .map(|_| ())
    }

    /// Reads a symbolic link's target.
    pub fn readlink(&self, path: &str) -> SysResult<String> {
        let resp = self.call(Syscall::Readlink {
            path: path.into(),
            buf_addr: None,
            buf_len: sysdefs::MAXPATHLEN,
        })?;
        resp.val?;
        Ok(String::from_utf8_lossy(&resp.data).into_owned())
    }

    /// Makes a directory.
    pub fn mkdir(&self, path: &str, mode: u16) -> SysResult<()> {
        self.val(Syscall::Mkdir {
            path: path.into(),
            mode,
        })
        .map(|_| ())
    }

    /// The (possibly virtualised) process id.
    pub fn getpid(&self) -> SysResult<Pid> {
        self.val(Syscall::Getpid).map(Pid)
    }

    /// The real uid.
    pub fn getuid(&self) -> SysResult<u32> {
        self.val(Syscall::Getuid)
    }

    /// Sends a signal.
    pub fn kill(&self, pid: Pid, sig: Signal) -> SysResult<()> {
        self.val(Syscall::Kill {
            pid: pid.as_u32(),
            sig: sig.number(),
        })
        .map(|_| ())
    }

    /// Duplicates a descriptor.
    pub fn dup(&self, fd: usize) -> SysResult<usize> {
        self.val(Syscall::Dup { fd }).map(|v| v as usize)
    }

    /// Sets real and effective uids (`u32::MAX` keeps a value).
    pub fn setreuid(&self, ruid: u32, euid: u32) -> SysResult<()> {
        self.val(Syscall::Setreuid { ruid, euid }).map(|_| ())
    }

    /// The (possibly virtualised) hostname.
    pub fn gethostname(&self) -> SysResult<String> {
        let resp = self.call(Syscall::Gethostname {
            buf_addr: None,
            buf_len: sysdefs::limits::MAXHOSTNAMELEN,
        })?;
        resp.val?;
        Ok(String::from_utf8_lossy(&resp.data).into_owned())
    }

    /// §7 extension: the true pid.
    pub fn getpid_real(&self) -> SysResult<Pid> {
        self.val(Syscall::GetpidReal).map(Pid)
    }

    /// §7 extension: the true hostname.
    pub fn gethostname_real(&self) -> SysResult<String> {
        let resp = self.call(Syscall::GethostnameReal {
            buf_addr: None,
            buf_len: sysdefs::limits::MAXHOSTNAMELEN,
        })?;
        resp.val?;
        Ok(String::from_utf8_lossy(&resp.data).into_owned())
    }

    /// The kernel's current-working-directory string.
    pub fn getwd(&self) -> SysResult<String> {
        let resp = self.call(Syscall::Getwd {
            buf_addr: None,
            buf_len: sysdefs::MAXPATHLEN,
        })?;
        resp.val?;
        Ok(String::from_utf8_lossy(&resp.data).into_owned())
    }

    /// Terminal mode query on a descriptor.
    pub fn gtty(&self, fd: usize) -> SysResult<TtyFlags> {
        self.val(Syscall::Ioctl {
            fd,
            req: IoctlReq::Gtty,
        })
        .map(|v| TtyFlags::from_bits(v as u16))
    }

    /// Terminal mode set on a descriptor.
    pub fn stty(&self, fd: usize, flags: TtyFlags) -> SysResult<()> {
        self.val(Syscall::Ioctl {
            fd,
            req: IoctlReq::Stty(flags),
        })
        .map(|_| ())
    }

    /// Sets a signal disposition.
    pub fn sigvec(&self, sig: Signal, disp: Disposition) -> SysResult<()> {
        self.val(Syscall::Sigvec {
            sig: sig.number(),
            disp,
        })
        .map(|_| ())
    }

    /// Replaces the blocked-signal mask, returning the old one.
    pub fn sigsetmask(&self, mask: u32) -> SysResult<u32> {
        self.val(Syscall::Sigsetmask { mask })
    }

    /// Schedules a `SIGALRM` after `secs` seconds (0 cancels).
    pub fn alarm(&self, secs: u32) -> SysResult<u32> {
        self.val(Syscall::Alarm { secs })
    }

    /// Virtual micro-seconds since world boot.
    pub fn gettimeofday(&self) -> SysResult<u64> {
        // The value is split low/high across val/data to keep u64 range.
        let resp = self.call(Syscall::Gettimeofday)?;
        let lo = resp.val? as u64;
        let hi = if resp.data.len() == 4 {
            u32::from_be_bytes([resp.data[0], resp.data[1], resp.data[2], resp.data[3]]) as u64
        } else {
            0
        };
        Ok((hi << 32) | lo)
    }

    /// Sleeps for `micros` of simulated time.
    pub fn sleep_us(&self, micros: u64) -> SysResult<()> {
        self.val(Syscall::Sleep { micros }).map(|_| ())
    }

    /// Waits for any child; returns `(pid, status)`.
    pub fn wait(&self) -> SysResult<(Pid, u32)> {
        let resp = self.call(Syscall::Wait)?;
        let pid = resp.val?;
        let status = if resp.data.len() == 4 {
            u32::from_be_bytes([resp.data[0], resp.data[1], resp.data[2], resp.data[3]])
        } else {
            0
        };
        Ok((Pid(pid), status))
    }

    /// `execve(2)`: overlays the caller with a fresh program. On
    /// success this call does not return, like [`Sys::rest_proc`];
    /// the returned value is the failure errno otherwise.
    pub fn execve(&self, path: &str) -> Errno {
        match self.val(Syscall::Execve { path: path.into() }) {
            Ok(_) => Errno::EIO,
            Err(e) => e,
        }
    }

    /// **The paper's new system call.** Overlays the caller with the
    /// dumped image named by the `a.outXXXXX` and `stackXXXXX` paths.
    ///
    /// On success this call does not return — the program is unwound
    /// from it and the process continues as the restored image. The
    /// returned value is therefore always the failure errno: "if the
    /// system call does return, this means that either the system didn't
    /// have enough resources ... or that something was wrong with the two
    /// files".
    pub fn rest_proc(
        &self,
        aout: &str,
        stack: &str,
        old_pid: Option<Pid>,
        old_host: Option<&str>,
    ) -> Errno {
        self.rest_proc_mode(aout, stack, old_pid, old_host, false)
    }

    /// [`Sys::rest_proc`] with an explicit restore mode: `demand` true
    /// restores only registers + stack + text now and faults the data
    /// pages over from the dump as they are touched.
    pub fn rest_proc_mode(
        &self,
        aout: &str,
        stack: &str,
        old_pid: Option<Pid>,
        old_host: Option<&str>,
        demand: bool,
    ) -> Errno {
        match self.val(Syscall::RestProc {
            aout: aout.into(),
            stack: stack.into(),
            old_pid: old_pid.map(|p| p.as_u32()),
            old_host: old_host.map(str::to_string),
            demand,
        }) {
            // A success reply never arrives (the body is dropped); treat
            // it as IO weirdness rather than panicking inside a program.
            Ok(_) => Errno::EIO,
            Err(e) => e,
        }
    }

    fn remote_result(resp: Response) -> SysResult<(u32, Option<Pid>)> {
        let status = resp.val?;
        let pid = if resp.data.len() == 4 {
            Some(Pid(u32::from_be_bytes([
                resp.data[0],
                resp.data[1],
                resp.data[2],
                resp.data[3],
            ])))
        } else {
            None
        };
        Ok((status, pid))
    }

    /// Runs `prog` on `host` through `rsh`, blocking until it finishes;
    /// returns its exit status. All of `rsh`'s connection-establishment
    /// cost is charged to the caller's real time.
    pub fn rsh(
        &self,
        host: &str,
        comm: &str,
        prog: impl FnOnce(&Sys) -> u32 + Send + 'static,
    ) -> SysResult<u32> {
        self.rsh_pid(host, comm, prog).map(|(status, _)| status)
    }

    /// Like [`Sys::rsh`], also returning the remote process's pid.
    pub fn rsh_pid(
        &self,
        host: &str,
        comm: &str,
        prog: impl FnOnce(&Sys) -> u32 + Send + 'static,
    ) -> SysResult<(u32, Option<Pid>)> {
        Self::remote_result(self.roundtrip(Request::Rsh {
            host: host.into(),
            prog: Box::new(prog),
            comm: comm.into(),
        })?)
    }

    /// Runs `prog` as a child process on the local machine, blocking
    /// until it finishes; returns its exit status.
    pub fn run_local(
        &self,
        comm: &str,
        prog: impl FnOnce(&Sys) -> u32 + Send + 'static,
    ) -> SysResult<u32> {
        self.run_local_pid(comm, prog).map(|(status, _)| status)
    }

    /// Like [`Sys::run_local`], also returning the child's pid.
    pub fn run_local_pid(
        &self,
        comm: &str,
        prog: impl FnOnce(&Sys) -> u32 + Send + 'static,
    ) -> SysResult<(u32, Option<Pid>)> {
        Self::remote_result(self.roundtrip(Request::RunLocal {
            prog: Box::new(prog),
            comm: comm.into(),
        })?)
    }

    /// Runs `prog` on `host` through the migration daemon (the §6.4
    /// improvement over `rsh`): one message to a well-known port instead
    /// of a connection-per-command session.
    pub fn daemon_spawn(
        &self,
        host: &str,
        comm: &str,
        prog: impl FnOnce(&Sys) -> u32 + Send + 'static,
    ) -> SysResult<(u32, Option<Pid>)> {
        Self::remote_result(self.roundtrip(Request::Daemon {
            host: host.into(),
            prog: Box::new(prog),
            comm: comm.into(),
        })?)
    }

    /// Charges `units` simple-instruction units of user CPU time,
    /// modelling computation the program does between system calls.
    pub fn compute(&self, units: u64) -> SysResult<()> {
        self.roundtrip(Request::Compute { units }).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn name(req: &Request) -> String {
        match req {
            Request::Syscall(sc) => sc.name().to_string(),
            Request::Rsh { host, .. } => format!("rsh:{host}"),
            Request::RunLocal { comm, .. } => format!("run:{comm}"),
            Request::Compute { .. } => "compute".to_string(),
            Request::Daemon { host, .. } => format!("daemon:{host}"),
        }
    }

    /// Drives a native program from a fake "kernel" loop, answering each
    /// request with `answer`.
    fn drive(
        prog: impl FnOnce(&Sys) -> u32 + Send + 'static,
        mut answer: impl FnMut(Request) -> Response,
    ) -> Vec<String> {
        let mut co = Native::new(Box::new(prog));
        let mut seen = Vec::new();
        while let Some(req) = co.resume() {
            seen.push(name(&req));
            if matches!(&req, Request::Syscall(Syscall::Exit { .. })) {
                break;
            }
            co.reply(answer(req));
        }
        seen
    }

    /// Counts its drops, to watch a program's locals go.
    struct Tally(Arc<AtomicUsize>);

    impl Drop for Tally {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn requests_arrive_in_program_order() {
        let seen = drive(
            |sys| {
                let fd = sys.open("/etc/motd", 0, 0).unwrap();
                let _ = sys.read(fd, 10);
                sys.close(fd).unwrap();
                0
            },
            |_| Response::of(Ok(3)),
        );
        assert_eq!(seen, vec!["open", "read", "close", "exit"]);
    }

    #[test]
    fn errno_propagates() {
        let seen = drive(
            |sys| match sys.open("/missing", 0, 0) {
                Err(Errno::ENOENT) => 42,
                other => panic!("unexpected {other:?}"),
            },
            |_| Response::of(Err(Errno::ENOENT)),
        );
        assert_eq!(seen.last().unwrap(), "exit");
    }

    #[test]
    fn overlay_unwinds_the_program_silently() {
        let mut co = Native::new(Box::new(|sys| {
            let e = sys.rest_proc("/usr/tmp/a.out00002", "/usr/tmp/stack00002", None, None);
            panic!("rest_proc returned {e}");
        }));
        let req = co.resume().expect("the program asks for rest_proc");
        assert!(matches!(req, Request::Syscall(Syscall::RestProc { .. })));
        // The kernel overlays the process: the body is dropped at the
        // pending call, and the program neither returns nor panics.
        drop(co);
    }

    #[test]
    fn killed_process_unwinds_at_its_pending_call() {
        let drops = Arc::new(AtomicUsize::new(0));
        let after = Arc::new(AtomicUsize::new(0));
        let (d, a) = (drops.clone(), after.clone());
        let mut co = Native::new(Box::new(move |sys| {
            let _local = Tally(d);
            let _ = sys.open("/x", 0, 0);
            a.fetch_add(1, Ordering::SeqCst);
            7
        }));
        let req = co.resume().expect("the program opens /x");
        assert_eq!(name(&req), "open");
        // The kernel kills the process while the call is pending.
        drop(co);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "locals are dropped");
        assert_eq!(after.load(Ordering::SeqCst), 0, "no code after the call");
    }

    #[test]
    fn calls_from_destructors_of_a_dropped_body_fail_with_eintr() {
        struct Closer<'a>(&'a Sys, Arc<AtomicUsize>);
        impl Drop for Closer<'_> {
            fn drop(&mut self) {
                if self.0.close(3) == Err(Errno::EINTR) {
                    self.1.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let eintr = Arc::new(AtomicUsize::new(0));
        let e = eintr.clone();
        let mut co = Native::new(Box::new(move |sys| {
            let _closer = Closer(sys, e);
            let _ = sys.sleep_us(1_000);
            0
        }));
        assert_eq!(name(&co.resume().expect("sleeps")), "sleep");
        drop(co);
        assert_eq!(eintr.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unstarted_body_drops_its_program() {
        let drops = Arc::new(AtomicUsize::new(0));
        let t = Tally(drops.clone());
        let co = Native::new(Box::new(move |_sys| {
            drop(t);
            0
        }));
        drop(co);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_program_reports_255() {
        let mut co = Native::new(Box::new(|_sys| panic!("program bug")));
        match co.resume() {
            Some(Request::Syscall(Syscall::Exit { status })) => assert_eq!(status, 255),
            other => panic!("unexpected {:?}", other.as_ref().map(name)),
        }
    }

    #[test]
    fn stacks_are_reused() {
        for _ in 0..(4 * POOL_MAX) {
            let seen = drive(|sys| sys.getpid().map_or(1, |_| 0), |_| Response::of(Ok(2)));
            assert_eq!(seen, vec!["getpid", "exit"]);
        }
        let pooled = POOL.with(|p| p.borrow().len());
        assert!((1..=POOL_MAX).contains(&pooled), "{pooled} pooled stacks");
    }
}
