//! Rule `cross-shard`: foreign `&mut` stays inside the seam layer.
//!
//! The invariant: outside `crates/ukernel/src/world/`, a foreign
//! machine's `&mut` is taken only through `World::cross_call`. Every
//! cross-machine *mutation* funnels through the world's seam layer:
//! `World::cross_call` for foreign-filesystem effects, the `poke_*`
//! hooks for wakes. That keeps the coupling inventory
//! (`simlint.coupling.json`) a complete list of the places one machine
//! writes another's state. A handler that takes a foreign machine's
//! `&mut` directly — `fs_mut(host)`, `machine_mut(dst)`,
//! `proc_mut(other, pid)`, `machines[peer]` — bypasses the funnel, and
//! its effect appears nowhere that names cross-machine writes.
//!
//! The `coupling` rule already polices *syscall handlers* and
//! inventories reads; this rule is the mutation ratchet for the whole
//! kernel crate: outside `src/world/`, a machine-id-indexed mutable
//! accessor whose argument is not the context's own `mid` is a
//! violation. Reads (`machine(dst)`, `proc_ref`) stay legal; the
//! coupling report lists them.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::visitor::{fn_items, in_ranges, test_mod_ranges};
use crate::workspace::{Role, SourceFile};

/// Rule id.
pub const RULE: &str = "cross-shard";

/// Mutable accessors indexed by machine id. `proc_mut` only in its
/// two-argument `World` form — the single-argument `Machine` form is
/// same-machine by construction.
const MUT_INDEXERS: [&str; 3] = ["machine_mut", "fs_mut", "proc_mut"];

/// The sanctioned funnel: the world layer itself, where cross-machine
/// mutation is the module's whole job.
const SEAM_DIR: &str = "crates/ukernel/src/world/";

/// Runs the rule over the workspace.
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if f.crate_name != "ukernel" || f.role != Role::Src || f.rel_path.starts_with(SEAM_DIR) {
            continue;
        }
        let test_ranges = test_mod_ranges(&f.toks);
        for item in fn_items(&f.toks) {
            if in_ranges(item.body_start, &test_ranges) {
                continue;
            }
            for (callee, arg) in foreign_mut_indexes(&f.toks, item.body_start, item.body_end) {
                out.push(Diagnostic {
                    file: f.rel_path.clone(),
                    line: item.line,
                    rule: RULE,
                    subject: item.name.clone(),
                    message: format!(
                        "{} takes a foreign machine's `&mut` via {callee}({arg}) \
                         outside the seam layer: route the mutation through \
                         World::cross_call (or a poke hook) so every \
                         cross-machine write stays in one place",
                        item.name
                    ),
                });
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Every mutable machine-indexed access in the range whose machine-id
/// argument is not the context's own `mid`: `machine_mut(x)`,
/// `fs_mut(x)`, two-argument `proc_mut(x, ..)` and `machines[x]`.
fn foreign_mut_indexes(toks: &[Tok], start: usize, end: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let end = end.min(toks.len());
    for i in start..end {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let indexed = (MUT_INDEXERS.contains(&name)
            && toks.get(i + 1).is_some_and(|t| t.is_punct("(")))
            || (name == "machines" && toks.get(i + 1).is_some_and(|t| t.is_punct("[")));
        if !indexed {
            continue;
        }
        // First argument up to a top-level `,` or the closer.
        let mut depth = 0usize;
        let mut arg: Vec<&str> = Vec::new();
        let mut multi_arg = false;
        for t in &toks[i + 2..end] {
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && t.is_punct(",") {
                multi_arg = true;
                break;
            }
            arg.push(&t.text);
        }
        if name == "proc_mut" && !multi_arg {
            continue;
        }
        if arg.last().is_some_and(|last| *last == "mid") || arg.is_empty() {
            continue;
        }
        out.push((toks[i].text.clone(), arg.concat()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::fixtures::file_at;

    #[test]
    fn foreign_fs_mut_outside_the_seam_layer_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "pub fn sys_clobber(cx: &mut SysCtx<'_>, host: usize) -> SyscallResult {
                 cx.w.fs_mut(host).truncate(ino)?;
                 done(Ok(SysRetval::ok(0)))
             }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].subject, "sys_clobber");
        assert!(d[0].message.contains("fs_mut(host)"), "{}", d[0].message);
    }

    #[test]
    fn own_mid_mutation_is_legal() {
        let f = file_at(
            "crates/ukernel/src/sys/fsops.rs",
            "pub fn sys_write_local(cx: &mut SysCtx<'_>) -> SyscallResult {
                 cx.w.fs_mut(cx.mid).write(ino, off, bytes)?;
                 let p = cx.machine_mut().proc_mut(cx.pid);
                 done(Ok(SysRetval::ok(0)))
             }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn the_seam_layer_itself_is_exempt() {
        let f = file_at(
            "crates/ukernel/src/world/seam.rs",
            "pub fn cross_call(&mut self, server: usize) {
                 self.machines[server].fs.truncate(ino);
                 self.fs_mut(server);
             }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn direct_foreign_machines_indexing_is_flagged() {
        let f = file_at(
            "crates/ukernel/src/signal.rs",
            "pub fn dump_to(w: &mut World, server: usize) {
                 w.machines[server].make_runnable(pid);
             }",
        );
        let d = check(&[f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("machines(server)") || d[0].message.contains("machines[server]") || d[0].message.contains("(server)"), "{}", d[0].message);
    }
}
