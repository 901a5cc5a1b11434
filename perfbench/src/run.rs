//! One benchmark run: set up a workload, measure it, check its
//! outcomes, and report the end-to-end metrics (untraced) or the
//! per-layer metrics and ledger (traced).

use std::fmt::Write as _;

use ukernel::World;

use crate::calib;
use crate::cluster::Cluster;
use crate::forkc::ForkCompute;
use crate::ledger;
use crate::stats::{low_mean, median, quantile, rss_kb, timed};
use crate::storm::{Pipeline, Storm};
use crate::trace::Tracer;
use crate::workload::{Budget, Measured, FAST_SHARE};

/// Set-ups per sampling: at least `MIN_SETUPS`, and more (up to
/// `MAX_SETUPS`) while they have taken under `SETUP_SECONDS` in all, so
/// a quick set-up is sampled often.
pub const MIN_SETUPS: usize = 7;
pub const MAX_SETUPS: usize = 100_000;
pub const SETUP_SECONDS: f64 = 1.5;
/// Fewest operations a measured phase completes: enough to leave ten
/// samples beyond the 95th percentile.
pub const MIN_OPS: usize = 200;
/// Operations of the discarded warm-up phase that fills caches and
/// finishes lazy translation before timing. It is bounded by count,
/// not time, so the measured phase always starts from the same state.
pub const WARMUP_OPS: usize = 50;
const WARMUP: Budget = Budget {
    seconds: 0.0,
    min_ops: WARMUP_OPS,
};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MigrateStorm,
    ClusterIdle,
    ForkCompute,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::MigrateStorm, Kind::ClusterIdle, Kind::ForkCompute];
    /// The workloads `BENCHMARK.json` declares. `fork_compute` runs by
    /// name but is left out: its interpreter-bound operations slowed by
    /// up to 1.7x whenever the shared core was contended, and ten runs'
    /// host-time figures spread by 17–32% however they were taken.
    pub const DECLARED: [Kind; 2] = [Kind::MigrateStorm, Kind::ClusterIdle];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MigrateStorm => "migrate_storm",
            Kind::ClusterIdle => "cluster_idle",
            Kind::ForkCompute => "fork_compute",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A workload installation, whatever its kind.
pub enum Installation {
    Storm(Storm),
    Cluster(Cluster),
    Fork(ForkCompute),
}

impl Installation {
    /// Builds `kind`'s installation for `seed`.
    pub fn setup(kind: Kind, seed: u64, tr: &mut Tracer) -> Installation {
        match kind {
            Kind::MigrateStorm => Installation::Storm(Storm::setup(seed, tr)),
            Kind::ClusterIdle => Installation::Cluster(Cluster::setup(seed, tr)),
            Kind::ForkCompute => Installation::Fork(ForkCompute::setup(seed, tr)),
        }
    }

    pub fn world(&self) -> &World {
        match self {
            Installation::Storm(s) => &s.w,
            Installation::Cluster(c) => &c.w,
            Installation::Fork(f) => &f.w,
        }
    }

    /// One measured phase.
    pub fn measure(&mut self, tr: &mut Tracer, budget: Budget) -> Measured {
        match self {
            Installation::Storm(s) => s.measure(tr, budget),
            Installation::Cluster(c) => c.measure(tr, budget),
            Installation::Fork(f) => f.measure(tr, budget),
        }
    }

    /// The end-of-run outcome checks.
    pub fn finish(&mut self, out: &mut Measured) {
        match self {
            Installation::Storm(s) => s.finish(out),
            Installation::Cluster(c) => c.finish(out),
            Installation::Fork(f) => f.finish(out),
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints.
#[derive(Clone, Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed outcome checks, for the human-readable log.
    pub problems: Vec<String>,
}

impl Report {
    fn new(m: &Measured, metrics: Vec<Metric>) -> Report {
        let finite = metrics.iter().all(|x| x.value.is_finite());
        Report {
            correct: m.failed == 0 && m.attempted > 0 && finite,
            attempted: m.attempted.max(1),
            failed: m.failed,
            metrics,
            problems: m.problems.clone(),
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// A table of every metric by name, value and unit.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        s
    }
}

/// The largest relative error of the Figure 1–4 ratios against the
/// paper's values. Deterministic: it restates the model's error beside
/// the simulated metrics.
pub fn paper_err() -> f64 {
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    pairs.extend(bench::fig1().iter().map(|r| (r.ratio, r.paper_ratio)));
    for r in bench::fig2() {
        pairs.push((r.cpu_ratio, r.paper_cpu_ratio));
        pairs.push((r.real_ratio, r.paper_real_ratio));
    }
    for r in bench::fig3() {
        pairs.push((r.cpu_ratio, r.paper_cpu_ratio));
        pairs.push((r.real_ratio, r.paper_real_ratio));
    }
    pairs.extend(bench::fig4().iter().map(|r| (r.ratio, r.paper_ratio)));
    pairs
        .into_iter()
        .map(|(got, paper)| (got / paper - 1.0).abs())
        .fold(0.0, f64::max)
}

/// One sampling of set-up time: the mean host seconds of the fastest
/// [`FAST_SHARE`] of repeated set-ups of `kind`, each dropped before the
/// next. Run it in a fresh process: a heap that a measured phase has
/// grown and freed makes set-up times swing by a third from run to run,
/// and the repeats' freed memory stays resident.
pub fn setup_fastest(kind: Kind, seed: u64) -> f64 {
    let mut tr = Tracer::new(false);
    let mut times = Vec::new();
    while times.len() < MAX_SETUPS
        && (times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let (secs, built) = timed(|| Installation::setup(kind, seed, &mut tr));
        drop(built);
        times.push(secs);
    }
    low_mean(&times, FAST_SHARE)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// An untraced run: the end-to-end metrics. `sample_setup` gives one
/// sampling of set-up time (see [`setup_fastest`]); it is called before
/// the installation is built and again after it is dropped, and
/// `setup_s` is the lower of the two, so that a contended spell at
/// either end of the run does not decide it.
pub fn untraced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    mut sample_setup: impl FnMut() -> Result<f64, String>,
) -> Result<Report, String> {
    let before = sample_setup()?;
    let err = paper_err();
    let mut tr = Tracer::new(false);
    let mut inst = Installation::setup(kind, seed, &mut tr);
    let mut warm = inst.measure(&mut tr, WARMUP);
    let mut m = inst.measure(
        &mut tr,
        Budget {
            seconds,
            min_ops: MIN_OPS,
        },
    );
    inst.finish(&mut m);
    drop(inst);
    m.absorb(&mut warm);
    let setup_s = before.min(sample_setup()?);
    // Throughput and the median come from the phase's least contended
    // windows; the 95th percentile is the whole phase's tail.
    let fast = m.fastest();
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", m.peak_rss_mb, "MB"),
        metric(
            "success_ratio",
            (m.attempted - m.failed.min(m.attempted)) as f64 / m.attempted.max(1) as f64,
            "ratio",
        ),
        metric("ops_per_s", fast.ops as f64 / fast.host_s, "1/s"),
        metric("op_p50_ms", median(&fast.op_host_s) * 1e3, "ms"),
        metric("op_p95_ms", quantile(&m.op_host_s, 0.95) * 1e3, "ms"),
        metric("sim_speed", fast.sim_s / fast.host_s, "s/s"),
        // Guest instructions per simulated second over the phase, at
        // the fastest windows' simulated seconds per host second.
        metric(
            "guest_mips",
            m.guest_insns / m.sim_s * fast.sim_s / (fast.host_s * 1e6),
            "insn/us",
        ),
        metric("sim_op_ms", m.sim_op_ms, "sim_ms"),
        metric("paper_err", err, "ratio"),
    ];
    Ok(Report::new(&m, metrics))
}

/// Where a traced run writes its spans.
pub fn trace_path(kind: Kind, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.jsonl", kind.name()))
}

/// A traced run: calibrations, an untraced and a traced phase of
/// `seconds / 2` each on one installation, the per-layer metrics, and
/// the ledger (printed to `log`).
pub fn traced(kind: Kind, seed: u64, seconds: f64, log: &mut String) -> Report {
    let mut tr = Tracer::new(true);
    let rss0 = rss_kb();
    let mut inst = Installation::setup(kind, seed, &mut tr);
    let hosts = inst.world().machine_count() as f64;
    let rss_per_host = (rss_kb() - rss0).max(0.0) / hosts;
    let setup_spans = tr.totals();
    let assemble_ms = setup_spans
        .get("setup.assemble")
        .map_or(0.0, |t| t.total * 1e3);
    let install_ms = setup_spans
        .get("setup.install")
        .map_or(0.0, |t| t.total * 1e3);

    let cal = calib::run();

    let half = Budget {
        seconds: seconds / 2.0,
        min_ops: MIN_OPS,
    };
    tr.set(false);
    let mut warm = inst.measure(&mut tr, WARMUP);
    let mut plain = inst.measure(&mut tr, half);
    tr.set(true);
    let mut m = inst.measure(&mut tr, half);
    inst.finish(&mut m);
    let overhead = median(&m.fastest().op_host_s) / median(&plain.fastest().op_host_s) - 1.0;

    let c = &m.counters;
    let native_calls = match kind {
        // Storm jobs issue one marker and one sleep per round; every
        // other call comes from a migration utility.
        Kind::MigrateStorm => (c.syscalls - 2.0 * c.marker_calls).max(0.0),
        _ => 0.0,
    };
    let ms_of = |p: Pipeline| median(&tr.durations(p.span())) * 1e3;
    let rows = ledger::rows(kind, &m, &tr, &cal, native_calls);
    let residue = ledger::residue(&rows, m.host_s);
    log.push_str(&ledger::render(kind, &rows, m.host_s, residue, &cal));
    log.push_str("spans (set-up and traced phase):\n");
    for (name, t) in tr.totals() {
        let _ = writeln!(
            log,
            "  {name:<24} {:>8} calls {:>10.4} s total {:>10.4} s self",
            t.count, t.total, t.self_time
        );
    }
    if let Err(e) = tr.write(&trace_path(kind, seed)) {
        let _ = writeln!(log, "could not write the trace: {e}");
    }

    // Counts are per operation of the traced phase, whose length is
    // set in host time.
    let per = |n: f64| n / m.op_host_s.len().max(1) as f64;
    let metrics = vec![
        metric("native.rendezvous_us", cal.rendezvous_us.p50, "us"),
        metric("native.spawn_us", cal.spawn_us.p50, "us"),
        metric("native.calls", per(native_calls), "count/op"),
        metric("native.spawns", per(tr.get("native.spawns")), "count/op"),
        metric("pmig.rsh_ms", ms_of(Pipeline::Rsh), "ms"),
        metric("apps.daemon_ms", ms_of(Pipeline::Daemon), "ms"),
        metric("proto.eager_ms", ms_of(Pipeline::Eager), "ms"),
        metric("proto.precopy_ms", ms_of(Pipeline::PreCopy), "ms"),
        metric("proto.demand_ms", ms_of(Pipeline::Demand), "ms"),
        metric("pmig.dumps", per(c.dumps), "count/op"),
        metric("pmig.restores", per(c.restores), "count/op"),
        metric(
            "proto.pages_precopied",
            per(tr.get("proto.pages_precopied")),
            "count/op",
        ),
        metric(
            "proto.pages_fetched",
            // Residual pages the engine pulled plus demand faults.
            per(tr.get("proto.pages_fetched") + c.pages_fetched),
            "count/op",
        ),
        metric("proto.bytes_sent", per(tr.get("proto.bytes_sent")), "B/op"),
        metric(
            "dumpfmt.encode_ns_per_byte",
            cal.encode_ns_per_byte.p50,
            "ns/B",
        ),
        metric(
            "dumpfmt.decode_ns_per_byte",
            cal.decode_ns_per_byte.p50,
            "ns/B",
        ),
        metric("aout.parse_ns_per_byte", cal.aout_ns_per_byte.p50, "ns/B"),
        metric("pmig.dump_bytes", cal.dump_bytes, "B"),
        metric("namei.us_per_lookup", cal.namei_us.p50, "us"),
        metric("namei.lookups", per(c.path_calls), "count/op"),
        metric("nfs.rpcs", per(c.nfs_rpcs), "count/op"),
        metric("sched.events", per(c.slices), "count/op"),
        metric("sched.us_per_event", cal.us_per_event.p50, "us"),
        metric("sys.syscalls", per(c.syscalls), "count/op"),
        metric("sys.ctx_switches", per(c.ctx_switches), "count/op"),
        metric("sys.us_per_call", cal.syscall_us.p50, "us"),
        metric("vm.ns_per_insn", cal.ns_per_insn.p50, "ns"),
        metric("vm.insns", per(m.guest_insns), "count/op"),
        metric("fork.us", cal.fork_us.p50, "us"),
        metric("fork.ns_per_kb", cal.fork_ns_per_kb.p50, "ns/KB"),
        metric("fork.count", per(c.forks), "count/op"),
        metric("setup.assemble_ms", assemble_ms, "ms"),
        metric("setup.install_ms", install_ms, "ms"),
        metric("mem.rss_kb_per_host", rss_per_host, "KB"),
        metric("ledger.residue_share", residue, "share"),
        metric("trace.overhead", overhead, "ratio"),
    ];
    m.absorb(&mut warm);
    m.absorb(&mut plain);
    Report::new(&m, metrics)
}
