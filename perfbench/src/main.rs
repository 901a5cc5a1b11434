//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report on standard error and, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! An untraced run times its set-ups in child processes of its own
//! (`--setup-only`, which prints one sampling's set-up seconds), one
//! started and waited for before anything is measured and one after
//! the measured phase.

use std::process::{Command, ExitCode, Stdio};

use perfbench::run::{self, Kind};

const USAGE: &str = "usage: perfbench --workload <migrate_storm|cluster_idle|fork_compute> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-only" => setup_only = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// Fixes glibc's mmap threshold at 1 MiB. By default glibc moves the
/// threshold as blocks are freed, and whether the simulator's 32–256 KB
/// images then come from fresh mappings (page faults on every use) or
/// from the heap differed from process to process: the same set-up took
/// 0.65 ms in some processes and 1.4 ms in others. A fixed threshold
/// gives every run, and every commit, the same allocator.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // once, on the main thread, before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    assert_eq!(ok, 1, "glibc accepts a 1 MiB mmap threshold");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc() {}

/// Runs this program with `--setup-only` and reads the set-up seconds
/// it prints (one sampling, see `run::setup_fastest`).
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            args.kind.name(),
            "--seed",
            &seed,
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("the set-up process ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("bad set-up time {text:?}: {e}"))
}

fn main() -> ExitCode {
    fix_malloc();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        println!("{:?}", run::setup_fastest(args.kind, args.seed));
        return ExitCode::SUCCESS;
    }
    let mut log = String::new();
    let report = if args.trace {
        run::traced(args.kind, args.seed, args.seconds, &mut log)
    } else {
        match run::untraced(args.kind, args.seed, args.seconds, || setup_in_child(&args)) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("set-up timing failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    eprint!("{log}");
    eprintln!(
        "{} seed {} ({}): {} attempted, {} failed",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed
    );
    eprint!("{}", report.table());
    for p in &report.problems {
        eprintln!("  FAILED: {p}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
