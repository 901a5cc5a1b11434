//! Text sharing: every exec, fork and `rest_proc()` of one program, on
//! any host, shares one text buffer and one predecoded cache per ISA
//! level, and the cache is freed with the program's last process.
//!
//! The memo is process-wide, so each test assembles a text no other
//! test in this binary runs.

use std::collections::BTreeSet;
use std::sync::Arc;

use m68vm::{assemble, ICache, IsaLevel, Object};
use sysdefs::{Credentials, Gid, Pid, Signal, Uid};
use ukernel::{Body, KernelConfig, MachineId, World};

/// Forks once, then parent and child spin; `tag` makes the text unique.
fn forker(tag: u32) -> Object {
    assemble(&format!(
        r#"
        start:  move.l  #2, d0      | fork
                trap    #0
        spin:   add.l   #{tag}, d5
                bra     spin
        "#
    ))
    .unwrap()
}

fn alice() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

/// Every VM process on `mid`, as (text, cache) pairs.
fn images(w: &World, mid: MachineId) -> Vec<(Arc<[u8]>, Arc<ICache>)> {
    w.machine(mid)
        .procs
        .values()
        .filter_map(|p| match &p.body {
            Body::Vm(vm) => Some((
                vm.mem.text_arc().clone(),
                vm.icache.clone().expect("icache on by default"),
            )),
            _ => None,
        })
        .collect()
}

fn kill_all(w: &mut World, mid: MachineId) {
    let pids: Vec<Pid> = w
        .machine(mid)
        .procs
        .values()
        .filter(|p| matches!(p.body, Body::Vm(_)))
        .map(|p| p.pid)
        .collect();
    for pid in pids {
        w.host_post_signal(mid, pid, Signal::SIGKILL);
        w.run_until_exit(mid, pid, 10_000).expect("killed");
    }
}

#[test]
fn exec_fork_and_restore_share_one_text_and_cache() {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let schooner = w.add_machine("schooner", IsaLevel::Isa1);
    let sun3 = w.add_machine("sun3", IsaLevel::Isa2);
    let obj = forker(0x5eed_0001);
    for mid in [brick, schooner, sun3] {
        w.install_program(mid, "/bin/forker", &obj).unwrap();
    }
    let parent = w
        .spawn_vm_proc(brick, "/bin/forker", None, alice())
        .unwrap();
    w.spawn_vm_proc(schooner, "/bin/forker", None, alice())
        .unwrap();
    w.run_slices(8);

    // Two execs on two hosts plus their forked children: one text
    // buffer, one cache.
    let isa1: Vec<_> = [brick, schooner]
        .iter()
        .flat_map(|&m| images(&w, m))
        .collect();
    assert_eq!(isa1.len(), 4, "two parents and two forked children");
    let (text, cache) = isa1[0].clone();
    assert_eq!(&text[..], &obj.text[..]);
    assert!(Arc::ptr_eq(cache.text(), &text));
    for (t, c) in &isa1 {
        assert!(Arc::ptr_eq(t, &text), "text buffer not shared");
        assert!(Arc::ptr_eq(c, &cache), "icache not shared");
    }

    // An ISA-2 host decodes at its own level: a cache of its own, over
    // the same text buffer.
    w.spawn_vm_proc(sun3, "/bin/forker", None, alice()).unwrap();
    w.run_slices(8);
    for (t, c) in images(&w, sun3) {
        assert!(
            !Arc::ptr_eq(&c, &cache),
            "ISA-2 host reused the ISA-1 cache"
        );
        assert_eq!(c.level(), IsaLevel::Isa2);
        assert!(Arc::ptr_eq(&t, &text));
    }

    // Dump brick's parent and restore it on schooner through rest_proc.
    w.host_post_signal(brick, parent, Signal::SIGDUMP);
    w.run_until_exit(brick, parent, 10_000).expect("dumped");
    let names = dumpfmt::dump_file_names(parent);
    let (aout, stack) = (
        format!("/n/brick{}", names.a_out),
        format!("/n/brick{}", names.stack),
    );
    let restarter = w.spawn_native_proc(
        schooner,
        "mini-restart",
        None,
        alice(),
        Box::new(move |sys| {
            let e = sys.rest_proc(&aout, &stack, None, None);
            panic!("rest_proc failed: {e}");
        }),
    );
    w.run_slices(8);
    let restored = w.proc_ref(schooner, restarter).expect("restored");
    let Body::Vm(vm) = &restored.body else {
        panic!("rest_proc did not overlay a VM body");
    };
    assert!(Arc::ptr_eq(vm.mem.text_arc(), &text));
    assert!(Arc::ptr_eq(vm.icache.as_ref().unwrap(), &cache));

    // The cache goes with the program's last process.
    drop((isa1, text, cache));
    assert!(ICache::is_shared(&obj.text, IsaLevel::Isa1));
    for mid in [brick, schooner, sun3] {
        kill_all(&mut w, mid);
    }
    assert!(!ICache::is_shared(&obj.text, IsaLevel::Isa1));
    assert!(!ICache::is_shared(&obj.text, IsaLevel::Isa2));
}

#[test]
fn running_a_program_once_does_not_pin_its_cache() {
    let mut w = World::new(KernelConfig::paper());
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let obj = assemble(
        r#"
        start:  move.l  #1, d0      | exit(0)
                move.l  #0, d1
                trap    #0
                add.l   #0x5eed0002, d5
        "#,
    )
    .unwrap();
    w.install_program(brick, "/bin/once", &obj).unwrap();
    let pid = w.spawn_vm_proc(brick, "/bin/once", None, alice()).unwrap();
    assert!(ICache::is_shared(&obj.text, IsaLevel::Isa1));
    let info = w.run_until_exit(brick, pid, 10_000).expect("exits");
    assert_eq!(info.status, 0);
    assert!(!ICache::is_shared(&obj.text, IsaLevel::Isa1));
}

#[test]
fn without_the_cache_each_image_owns_its_text() {
    let mut w = World::new(KernelConfig {
        use_icache: false,
        ..KernelConfig::paper()
    });
    let brick = w.add_machine("brick", IsaLevel::Isa1);
    let obj = forker(0x5eed_0003);
    w.install_program(brick, "/bin/forker", &obj).unwrap();
    w.spawn_vm_proc(brick, "/bin/forker", None, alice())
        .unwrap();
    w.spawn_vm_proc(brick, "/bin/forker", None, alice())
        .unwrap();
    w.run_slices(8);
    let texts: Vec<Arc<[u8]>> = w
        .machine(brick)
        .procs
        .values()
        .filter_map(|p| match &p.body {
            Body::Vm(vm) => {
                assert!(vm.icache.is_none());
                Some(vm.mem.text_arc().clone())
            }
            _ => None,
        })
        .collect();
    assert_eq!(texts.len(), 4);
    // Each fork shares its parent's buffer; the two execs do not.
    let buffers: BTreeSet<*const u8> = texts.iter().map(|t| t.as_ptr()).collect();
    assert_eq!(buffers.len(), 2);
    assert!(!ICache::is_shared(&obj.text, IsaLevel::Isa1));
}
