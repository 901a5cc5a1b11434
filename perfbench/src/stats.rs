//! Order statistics and process memory, as the report states them.

use crate::clock::CpuStopwatch;

/// The `q`-quantile (0..=1) of `v` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The mean of the smallest `share` (at least one) of `v`; 0 for an
/// empty sample.
pub fn low_mean(v: &[f64], share: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let keep = ((s.len() as f64 * share).ceil() as usize).clamp(1, s.len());
    s[..keep].iter().sum::<f64>() / keep as f64
}

/// Median and quartiles of one calibration, in its unit.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Spread {
    /// Summarises a sample.
    pub fn of(v: &[f64]) -> Spread {
        Spread {
            p25: quantile(v, 0.25),
            p50: quantile(v, 0.5),
            p75: quantile(v, 0.75),
        }
    }
}

/// Runs `f` once to warm up, then `reps` times. `f` returns `(host
/// seconds, units of work)`; each sample is seconds per unit times
/// `scale`, and the result is the samples' median and quartiles.
pub fn calibrate(reps: usize, scale: f64, mut f: impl FnMut() -> (f64, f64)) -> Spread {
    let _ = f(); // Warm caches and lazy translation first.
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let (secs, units) = f();
            secs * scale / units.max(1.0)
        })
        .collect();
    Spread::of(&v)
}

/// Host (process CPU) seconds taken by `f`, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let sw = CpuStopwatch::start();
    let r = f();
    (sw.elapsed_secs(), r)
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in KiB.
fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process, KiB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}
