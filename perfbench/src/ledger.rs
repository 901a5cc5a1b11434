//! The host-cost ledger: each layer's work count times its calibrated
//! unit cost, beside the measured host time of the traced phase. What
//! the rows do not explain is the residue.

use std::fmt::Write as _;

use crate::calib::Calibration;
use crate::progs;
use crate::run::Kind;
use crate::stats::Spread;
use crate::trace::Tracer;
use crate::workload::Measured;

/// One ledger row.
#[derive(Clone, Debug)]
pub struct Row {
    pub layer: &'static str,
    /// Work done in the traced phase.
    pub count: f64,
    pub unit: &'static str,
    /// Calibrated cost of one unit, µs.
    pub unit_us: f64,
}

impl Row {
    /// Host seconds the row accounts for.
    pub fn secs(&self) -> f64 {
        self.count * self.unit_us * 1e-6
    }
}

fn row(layer: &'static str, count: f64, unit: &'static str, unit_us: f64) -> Row {
    Row {
        layer,
        count,
        unit,
        unit_us,
    }
}

/// The rows of `kind`'s ledger. Rows do not overlap: each unit cost is
/// calibrated so that it excludes the layers that have rows of their
/// own.
pub fn rows(
    kind: Kind,
    m: &Measured,
    tr: &Tracer,
    cal: &Calibration,
    native_calls: f64,
) -> Vec<Row> {
    let c = &m.counters;
    let vm = row(
        "m68vm insns",
        m.guest_insns,
        "insn",
        cal.ns_per_insn.p50 * 1e-3,
    );
    match kind {
        Kind::MigrateStorm => vec![
            row(
                "native rendezvous",
                native_calls,
                "call",
                cal.rendezvous_us.p50,
            ),
            row(
                "native spawn",
                tr.get("native.spawns"),
                "proc",
                cal.spawn_us.p50,
            ),
            row("namei", c.path_calls, "lookup", cal.namei_us.p50),
            row(
                "dumpfmt encode+decode",
                c.dumps * cal.meta_bytes,
                "byte",
                (cal.encode_ns_per_byte.p50 + cal.decode_ns_per_byte.p50) * 1e-3,
            ),
            row(
                "aout parse",
                c.restores * cal.aout_bytes,
                "byte",
                cal.aout_ns_per_byte.p50 * 1e-3,
            ),
            row(
                "guest syscalls",
                2.0 * c.marker_calls,
                "call",
                cal.syscall_us.p50,
            ),
            vm,
        ],
        Kind::ClusterIdle => vec![
            // The event calibration runs the same ticker, so one event
            // already includes its sleep call and five instructions.
            row("sched events", c.slices, "event", cal.us_per_event.p50),
            row(
                "guest syscalls (tty)",
                c.syscalls - c.sleep_calls,
                "call",
                cal.syscall_us.p50,
            ),
        ],
        Kind::ForkCompute => {
            let kb = progs::WORKER_WORDS as f64 * 4.0 / 1024.0;
            vec![
                vm,
                row("fork+exit+wait", c.forks, "fork", cal.fork_us.p50),
                row(
                    "fork image copy",
                    c.forks * kb,
                    "KB",
                    cal.fork_ns_per_kb.p50 * 1e-3,
                ),
            ]
        }
    }
}

/// 1 − Σ(count × unit cost) ÷ measured host time.
pub fn residue(rows: &[Row], host_s: f64) -> f64 {
    1.0 - rows.iter().map(Row::secs).sum::<f64>() / host_s
}

fn spread(name: &str, s: &Spread, unit: &str) -> String {
    format!(
        "  {name:<28} p25 {:>10.4}  p50 {:>10.4}  p75 {:>10.4} {unit}\n",
        s.p25, s.p50, s.p75
    )
}

/// The ledger and the calibrations as a human-readable table.
pub fn render(kind: Kind, rows: &[Row], host_s: f64, residue: f64, cal: &Calibration) -> String {
    let mut s = String::from("calibrations (median and quartiles):\n");
    s += &spread("native.rendezvous", &cal.rendezvous_us, "us/call");
    s += &spread("native.spawn", &cal.spawn_us, "us/proc");
    s += &spread("namei", &cal.namei_us, "us/lookup");
    s += &spread("dumpfmt.encode", &cal.encode_ns_per_byte, "ns/B");
    s += &spread("dumpfmt.decode", &cal.decode_ns_per_byte, "ns/B");
    s += &spread("aout.parse", &cal.aout_ns_per_byte, "ns/B");
    s += &spread("vm.step_superblock", &cal.ns_per_insn, "ns/insn");
    s += &spread("sys.dispatch", &cal.syscall_us, "us/call");
    s += &spread("sched.event", &cal.us_per_event, "us/event");
    s += &spread("fork+exit+wait", &cal.fork_us, "us/fork");
    s += &spread("fork.copy", &cal.fork_ns_per_kb, "ns/KB");
    let _ = writeln!(
        s,
        "ledger for {} (traced phase, {:.3} s host):",
        kind.name(),
        host_s
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<24} {:>14.0} {:<7} x {:>10.4} us = {:>8.4} s  {:>6.1}%",
            r.layer,
            r.count,
            r.unit,
            r.unit_us,
            r.secs(),
            100.0 * r.secs() / host_s
        );
    }
    let _ = writeln!(s, "  {:<24} {:>66.1}%", "residue", 100.0 * residue);
    s
}
