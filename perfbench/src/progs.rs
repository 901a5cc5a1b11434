//! The guest programs the workloads run, generated from seeded
//! parameters, with the instruction counts of their loops. Guest work
//! is counted from these trip counts, never from an engine counter, so
//! a change of interpreter cannot change what "one instruction" means.

/// Bytes per page of the dirty-page tracker (`m68vm::Memory`).
pub const PAGE: u32 = 0x2000;

/// Instructions in one round of [`job_program`] with `dirty` pages.
pub fn job_insns_per_round(dirty: u32) -> u64 {
    // Set-up (2), per page (4), marker (2), sleep (3), branch (1).
    8 + 4 * dirty as u64
}

/// A long-lived storm job: a `pages`-page bss image of which it
/// re-dirties `dirty` pages (from `first` on) every round, then marks
/// the round with `getpid_real` and sleeps `sleep_us`. The marker is a
/// call no migration utility issues, so its count is the jobs' round
/// count.
pub fn job_program(pages: u32, dirty: u32, first: u32, sleep_us: u32) -> String {
    let base = first * PAGE;
    let size = pages * PAGE;
    format!(
        r#"
start:  move.l  #img, a0
        move.l  #{dirty}, d3
        add.l   #{base}, a0
dirty:  add.l   #1, (a0)
        add.l   #{PAGE}, a0
        sub.l   #1, d3
        bgt     dirty
        move.l  #152, d0            | getpid_real: the round marker
        trap    #0
        move.l  #150, d0            | sleep
        move.l  #{sleep_us}, d1
        trap    #0
        bra     start
        .bss
img:    .space  {size}
"#
    )
}

/// Instructions per beat of [`ticker_program`].
pub const TICK_INSNS_PER_BEAT: u64 = 5;

/// An idle workstation's periodic ticker: sleep `period_us`, forever.
pub fn ticker_program(period_us: u32) -> String {
    format!(
        r#"
start:  move.l  #1000000000, d7
beat:   move.l  #150, d0
        move.l  #{period_us}, d1
        trap    #0
        sub.l   #1, d7
        bgt     beat
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#
    )
}

/// Longwords in a fork worker's 64 KB bss array.
pub const WORKER_WORDS: u32 = 16 * 1024;
/// Sweeps a fork worker makes over its array.
pub const WORKER_PASSES: u32 = 4;

/// Instructions one fork worker retires, fork return to exit trap.
pub fn worker_insns() -> u64 {
    let pass = 2 + 3 * WORKER_WORDS as u64 + 2;
    // Fork return tests (3), pass count (1), passes, exit (3).
    3 + 1 + WORKER_PASSES as u64 * pass + 3
}

/// Instructions a fork parent retires per worker (fork, wait, checks).
pub const PARENT_INSNS_PER_WORKER: u64 = 13;

/// A fork parent: after a `stagger_us` sleep, forks `workers` workers
/// one at a time; each sweeps the 64 KB array [`WORKER_PASSES`] times
/// writing `fill`, then exits 0. The parent `wait`s for each and exits
/// 1 if any exits non-zero, else 0.
pub fn fork_parent_program(workers: u32, stagger_us: u32, fill: u32) -> String {
    let words = WORKER_WORDS;
    let passes = WORKER_PASSES;
    let bytes = WORKER_WORDS * 4;
    format!(
        r#"
start:  move.l  #150, d0            | stagger: sleep
        move.l  #{stagger_us}, d1
        trap    #0
        move.l  #{workers}, d7
next:   move.l  #2, d0              | fork
        trap    #0
        bcs     fail
        tst.l   d0
        beq     child
        move.l  #7, d0              | wait(&status)
        move.l  #status, d1
        trap    #0
        bcs     fail
        tst.l   status
        bne     fail
        sub.l   #1, d7
        bgt     next
        move.l  #1, d0              | exit(0)
        move.l  #0, d1
        trap    #0
fail:   move.l  #1, d0              | exit(1)
        move.l  #1, d1
        trap    #0
child:  move.l  #{passes}, d5
pass:   move.l  #arr, a0
        move.l  #{words}, d6
sweep:  move.l  #{fill}, (a0)+
        sub.l   #1, d6
        bgt     sweep
        sub.l   #1, d5
        bgt     pass
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .data
status: .long   0
        .bss
arr:    .space  {bytes}
"#
    )
}

/// The fork worker's sweep alone, ending in `trap #0`: the text the
/// interpreter calibration runs through `Cpu::step_superblock`.
pub fn sweep_calibration_program() -> String {
    let words = WORKER_WORDS;
    let passes = WORKER_PASSES;
    let bytes = WORKER_WORDS * 4;
    format!(
        r#"
start:  move.l  #{passes}, d5
pass:   move.l  #arr, a0
        move.l  #{words}, d6
sweep:  move.l  #7, (a0)+
        sub.l   #1, d6
        bgt     sweep
        sub.l   #1, d5
        bgt     pass
        trap    #0
        .bss
arr:    .space  {bytes}
"#
    )
}

/// Instructions [`sweep_calibration_program`] retires.
pub fn sweep_calibration_insns() -> u64 {
    1 + WORKER_PASSES as u64 * (2 + 3 * WORKER_WORDS as u64 + 2) + 1
}

/// A guest loop of `n` `getpid` calls, then exit 0: the system-call
/// dispatch calibration.
pub fn getpid_loop_program(n: u32) -> String {
    format!(
        r#"
start:  move.l  #{n}, d7
again:  move.l  #20, d0
        trap    #0
        sub.l   #1, d7
        bgt     again
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
"#
    )
}

/// A parent that forks `n` children with a `bss`-byte image, each of
/// which exits at once; the parent waits for each, then exits 0: the
/// fork calibration.
pub fn fork_loop_program(n: u32, bss: u32) -> String {
    format!(
        r#"
start:  move.l  #{n}, d7
next:   move.l  #2, d0
        trap    #0
        tst.l   d0
        beq     child
        move.l  #7, d0
        move.l  #0, d1
        trap    #0
        sub.l   #1, d7
        bgt     next
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
child:  move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .bss
img:    .space  {bss}
"#
    )
}
