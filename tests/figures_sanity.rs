//! Shape assertions for every figure in the paper's evaluation: who
//! wins, by roughly what factor. Exact simulated numbers are recorded in
//! EXPERIMENTS.md; these bands keep the reproduction honest as the code
//! evolves, and the Figure 4 and A1 tables there are checked against
//! the scenarios exactly, so they cannot drift from the binary.

#[test]
fn figure1_modified_syscall_overhead_band() {
    let rows = bench::fig1();
    assert_eq!(rows.len(), 2);
    let oc = &rows[0];
    assert!(oc.syscall.contains("open"));
    assert!(
        (1.30..=1.60).contains(&oc.ratio),
        "open/close overhead should be ~44%, got {:.2}",
        oc.ratio
    );
    let cd = &rows[1];
    assert!(cd.syscall.contains("chdir"));
    assert!(
        (1.20..=1.50).contains(&cd.ratio),
        "chdir overhead should be ~36%, got {:.2}",
        cd.ratio
    );
    // The modified kernel is never faster.
    assert!(oc.modified_ms > oc.original_ms);
    assert!(cd.modified_ms > cd.original_ms);
}

#[test]
fn figure2_dump_ratios_band() {
    let rows = bench::fig2();
    assert_eq!(rows.len(), 3);
    let sigdump = &rows[1];
    assert_eq!(sigdump.case, "SIGDUMP");
    assert!(
        (2.2..=3.8).contains(&sigdump.cpu_ratio),
        "SIGDUMP ~3x SIGQUIT cpu, got {:.2}",
        sigdump.cpu_ratio
    );
    assert!(
        (2.2..=3.8).contains(&sigdump.real_ratio),
        "SIGDUMP ~3x SIGQUIT real, got {:.2}",
        sigdump.real_ratio
    );
    let dumpproc = &rows[2];
    assert_eq!(dumpproc.case, "dumpproc");
    assert!(
        (3.0..=5.5).contains(&dumpproc.cpu_ratio),
        "dumpproc ~4x SIGQUIT cpu, got {:.2}",
        dumpproc.cpu_ratio
    );
    assert!(
        (4.5..=8.0).contains(&dumpproc.real_ratio),
        "dumpproc ~6x SIGQUIT real, got {:.2}",
        dumpproc.real_ratio
    );
    // The paper's anchor: "about 0.6 seconds for killing our particular
    // test program with SIGDUMP" — same order of magnitude here.
    assert!(
        (200.0..=1500.0).contains(&sigdump.real_ms),
        "SIGDUMP should take a fraction of a second, got {:.0} ms",
        sigdump.real_ms
    );
    // dumpproc's real time is dominated by its 1-second poll sleep.
    assert!(dumpproc.real_ms > 1000.0);
}

#[test]
fn figure3_restart_ratios_band() {
    let rows = bench::fig3();
    assert_eq!(rows.len(), 3);
    let rest_proc = &rows[1];
    assert_eq!(rest_proc.case, "rest_proc()");
    assert!(
        (1.0..=1.6).contains(&rest_proc.cpu_ratio),
        "rest_proc only slightly above execve (cpu), got {:.2}",
        rest_proc.cpu_ratio
    );
    assert!(
        (1.0..=1.6).contains(&rest_proc.real_ratio),
        "rest_proc only slightly above execve (real), got {:.2}",
        rest_proc.real_ratio
    );
    let restart = &rows[2];
    assert_eq!(restart.case, "restart");
    assert!(
        (3.5..=6.5).contains(&restart.cpu_ratio),
        "restart ~5x execve cpu, got {:.2}",
        restart.cpu_ratio
    );
    assert!(
        restart.real_ratio >= 3.0,
        "restart several times execve real, got {:.2}",
        restart.real_ratio
    );
    // "For our test program [execve] was less than 0.2 seconds".
    assert!(rows[0].real_ms < 200.0);
}

#[test]
fn figure4_migrate_ratios_band() {
    let rows = bench::fig4();
    assert_eq!(rows.len(), 5);
    let by_case = |name: &str| {
        rows.iter()
            .find(|r| r.case == name)
            .unwrap_or_else(|| panic!("missing case {name}"))
    };
    let ll = by_case("L-L");
    let lr = by_case("L-R");
    let rl = by_case("R-L");
    let rr = by_case("R-R");
    // Local-local is about the same as running the two commands by hand.
    assert!(
        (0.7..=2.0).contains(&ll.ratio),
        "L-L near the baseline, got {:.2}",
        ll.ratio
    );
    // One rsh session in the middle cases, two in R-R.
    assert!(lr.ratio > 3.0 && rl.ratio > 3.0);
    assert!(
        (8.0..=14.0).contains(&rr.ratio),
        "R-R 'as much as ten times more', got {:.2}",
        rr.ratio
    );
    assert!(rr.ratio > lr.ratio && rr.ratio > rl.ratio);
    assert!(lr.ratio > ll.ratio);
    // "For our test program, this amounts to almost half a minute."
    assert!(
        (12_000.0..=35_000.0).contains(&rr.real_ms),
        "R-R near half a minute, got {:.0} ms",
        rr.real_ms
    );
}

#[test]
fn ablation_daemon_beats_rsh() {
    let rows = bench::ablation_daemon();
    let rsh = rows.iter().find(|r| r.transport == "rsh").unwrap();
    let daemon = rows.iter().find(|r| r.transport == "daemon").unwrap();
    assert!(
        rsh.real_ms > 3.0 * daemon.real_ms,
        "daemon must be several times faster: rsh {:.0} vs daemon {:.0}",
        rsh.real_ms,
        daemon.real_ms
    );
}

#[test]
fn ablation_virtualization_fixes_pid_programs() {
    let rows = bench::ablation_virt();
    let stock = rows.iter().find(|r| r.kernel == "stock").unwrap();
    let virt = rows.iter().find(|r| r.kernel == "virtualized").unwrap();
    assert_eq!(stock.status, 3, "stock kernel: the program loses its file");
    assert_eq!(virt.status, 0, "virtualized kernel: the program survives");
}

#[test]
fn ablation_fixed_name_strings_waste_memory() {
    let rows = bench::ablation_names();
    let dynamic = rows.iter().find(|r| r.strategy == "dynamic").unwrap();
    let fixed = rows.iter().find(|r| r.strategy.contains("fixed")).unwrap();
    assert!(
        fixed.peak_bytes > 20 * dynamic.peak_bytes,
        "fixed-size strings pin far more kernel memory ({} vs {}), \
         which is §5.1's argument for dynamic allocation",
        fixed.peak_bytes,
        dynamic.peak_bytes
    );
}

/// The table rows of EXPERIMENTS.md under `heading`, up to the next
/// heading: one vector of trimmed cells per row, `**` emphasis
/// removed, the `|---|` separator skipped.
fn experiments_rows(heading: &str) -> Vec<Vec<String>> {
    let doc = include_str!("../EXPERIMENTS.md");
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {heading:?} section"));
    let body = &doc[start + heading.len()..];
    let body = &body[..body.find("\n#").unwrap_or(body.len())];
    body.lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.replace("**", "").trim().to_string())
                .collect()
        })
        .collect()
}

/// The documented row whose first cell is `case`, exactly once.
fn doc_row<'a>(rows: &'a [Vec<String>], case: &str) -> &'a [String] {
    let hits: Vec<&Vec<String>> = rows.iter().filter(|r| r[0] == case).collect();
    assert_eq!(hits.len(), 1, "EXPERIMENTS.md must have one {case:?} row");
    hits[0]
}

/// Simulated time is deterministic, so the Figure 4 table in
/// EXPERIMENTS.md must show exactly what `figures fig4` prints: real
/// time to the millisecond and the ratio to two decimals.
#[test]
fn experiments_md_figure4_table_is_current() {
    let rows = experiments_rows("## Figure 4");
    let fig = bench::fig4();
    assert_eq!(rows.len(), fig.len() + 1, "header plus one row per case");
    for r in &fig {
        let doc = doc_row(&rows, &r.case);
        assert_eq!(
            doc[1],
            format!("{:.0} ms", r.real_ms),
            "{} real time",
            r.case
        );
        assert_eq!(doc[2], format!("{:.2}", r.ratio), "{} ratio", r.case);
    }
}

/// The same freshness check for the A1 transport table.
#[test]
fn experiments_md_daemon_table_is_current() {
    let rows = experiments_rows("### A1");
    let ablation = bench::ablation_daemon();
    assert_eq!(
        rows.len(),
        ablation.len() + 1,
        "header plus one row per transport"
    );
    for r in &ablation {
        let doc = doc_row(&rows, &r.transport);
        assert_eq!(
            doc[1],
            format!("{:.0} ms", r.real_ms),
            "{} real time",
            r.transport
        );
    }
}
