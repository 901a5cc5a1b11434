//! Differential test of the demand-grown stack against a flat model.
//!
//! `Memory` materialises only the touched top pages of its 256 KB
//! stack. The model below is the plain reading of the segment: one
//! zero-filled `STACK_MAX` buffer. Seeded random sequences of reads,
//! writes, restores, clones, page installs and dirty-tracking calls run
//! against both, and after every step the values, `stack_from`,
//! `page_slice` and `==` must agree — so how much of the stack is
//! materialised can never be observed.

use std::collections::BTreeSet;

use m68vm::{Fault, Memory, MemoryLayout};

const TOP: u32 = MemoryLayout::STACK_TOP;
const MAX: u32 = MemoryLayout::STACK_MAX;
const BASE: u32 = TOP - MAX;
const PAGE: u32 = MemoryLayout::PAGE;
const STEPS: usize = 400;

/// xorshift64*: a fixed generator, so each seed replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % n as u64) as u32
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// An address near something interesting: a page boundary (the
    /// materialised edge is always one, and growth by doubling puts it
    /// 1, 2, 4, … pages below the top), the stack floor, the stack top,
    /// or anywhere in the stack.
    fn addr(&mut self) -> u32 {
        let jitter = self.below(9) as i64 - 4;
        let anchor = match self.below(5) {
            0 => BASE + self.below(MAX / PAGE + 1) * PAGE,
            1 => TOP - (PAGE << self.below(6)),
            2 => BASE,
            3 => TOP - self.below(64),
            _ => BASE + self.below(MAX),
        };
        (anchor as i64 + jitter) as u32
    }
}

/// The flat model: every stack byte stored, plus the dirty set.
struct Model {
    stack: Vec<u8>,
    dirty: Option<BTreeSet<u32>>,
}

impl Model {
    fn in_stack(addr: u32, len: u32) -> bool {
        addr >= BASE && addr as u64 + len as u64 <= TOP as u64
    }

    fn read(&self, addr: u32, len: u32) -> Result<&[u8], Fault> {
        if !Self::in_stack(addr, len) {
            return Err(Fault::Unmapped { addr });
        }
        let o = (addr - BASE) as usize;
        Ok(&self.stack[o..o + len as usize])
    }

    fn write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        if !Self::in_stack(addr, bytes.len() as u32) {
            return Err(Fault::Unmapped { addr });
        }
        let o = (addr - BASE) as usize;
        self.stack[o..o + bytes.len()].copy_from_slice(bytes);
        self.mark(addr, bytes.len() as u32);
        Ok(())
    }

    fn mark(&mut self, addr: u32, len: u32) {
        if let (Some(d), true) = (&mut self.dirty, len > 0) {
            d.extend(MemoryLayout::page_of(addr)..=MemoryLayout::page_of(addr + len - 1));
        }
    }
}

fn data_pages(mem: &Memory) -> impl Iterator<Item = u32> {
    let (base, len) = (mem.data_base(), mem.data().len() as u32);
    MemoryLayout::page_of(base)..=MemoryLayout::page_of(base + len - 1)
}

/// A fresh image with its whole stack materialised from the model.
fn flat_twin(model: &Model) -> Memory {
    let mut twin = image();
    twin.restore_stack(&model.stack).expect("STACK_MAX fits");
    twin
}

fn image() -> Memory {
    Memory::new(vec![0x4e; 64], vec![7; 3 * PAGE as usize], 100)
}

fn check(mem: &Memory, model: &Model, rng: &mut Rng) {
    let sp = BASE.wrapping_sub(8) + rng.below(MAX + 16);
    let want = (BASE..=TOP)
        .contains(&sp)
        .then(|| &model.stack[(sp - BASE) as usize..]);
    assert_eq!(mem.stack_from(sp).as_deref(), want, "stack_from({sp:#x})");
    let page = MemoryLayout::page_of(BASE) - 1 + rng.below(MAX / PAGE + 2);
    let want = (MemoryLayout::page_of(BASE)..MemoryLayout::page_of(TOP))
        .contains(&page)
        .then(|| {
            let o = (MemoryLayout::page_addr(page) - BASE) as usize;
            &model.stack[o..o + PAGE as usize]
        });
    assert_eq!(mem.page_slice(page), want, "page_slice({page})");
    assert_eq!(
        mem.dirty_pages(),
        model.dirty.iter().flatten().copied().collect::<Vec<_>>()
    );
}

fn run(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut mem = image();
    let mut model = Model {
        stack: vec![0; MAX as usize],
        dirty: None,
    };
    for step in 0..STEPS {
        let ctx = format!("seed {seed} step {step}");
        match rng.below(12) {
            0..=2 => {
                let addr = rng.addr();
                let v = rng.next() as u32;
                let (got, want) = match rng.below(3) {
                    0 => (mem.write_u8(addr, v as u8), model.write(addr, &[v as u8])),
                    1 => (
                        mem.write_u16(addr, v as u16),
                        model.write(addr, &(v as u16).to_be_bytes()),
                    ),
                    _ => (mem.write_u32(addr, v), model.write(addr, &v.to_be_bytes())),
                };
                assert_eq!(got, want, "{ctx}: write at {addr:#x}");
            }
            3..=5 => {
                let addr = rng.addr();
                let be = |b: &[u8]| b.iter().fold(0u32, |a, &x| (a << 8) | x as u32);
                let (got, want) = match rng.below(3) {
                    0 => (
                        mem.read_u8(addr).map(u32::from),
                        model.read(addr, 1).map(be),
                    ),
                    1 => (
                        mem.read_u16(addr).map(u32::from),
                        model.read(addr, 2).map(be),
                    ),
                    _ => (mem.read_u32(addr), model.read(addr, 4).map(be)),
                };
                assert_eq!(got, want, "{ctx}: read at {addr:#x}");
            }
            6 => {
                let addr = rng.addr();
                let len = rng.below(3 * PAGE);
                let got = mem.read_bytes(addr, len);
                let got = got.as_deref().map_err(|&f| f);
                assert_eq!(got, model.read(addr, len), "{ctx}: read_bytes");
            }
            7 => {
                // Mostly short restores into a used image, sometimes the
                // whole region, sometimes one byte too many.
                let len = match rng.below(8) {
                    0 => MAX + 1,
                    1 => MAX,
                    _ => rng.below(3 * PAGE),
                };
                let contents = rng.bytes(len as usize);
                let want = (len <= MAX).then(|| TOP - len);
                assert_eq!(mem.restore_stack(&contents), want, "{ctx}: restore_stack");
                if want.is_some() {
                    model.stack.fill(0);
                    let o = (MAX - len) as usize;
                    model.stack[o..].copy_from_slice(&contents);
                    model.mark(BASE, MAX);
                }
            }
            8 => {
                let copy = mem.clone();
                assert!(copy == mem, "{ctx}: clone differs");
                mem = copy;
            }
            9 => {
                let page = MemoryLayout::page_of(BASE) + rng.below(MAX / PAGE);
                let bytes = rng.bytes(PAGE as usize);
                assert!(mem.install_page(page, &bytes), "{ctx}: install_page");
                assert!(!mem.install_page(page, &bytes[1..]), "{ctx}: short page");
                let o = (MemoryLayout::page_addr(page) - BASE) as usize;
                model.stack[o..o + PAGE as usize].copy_from_slice(&bytes);
            }
            10 => match rng.below(3) {
                0 => {
                    mem.enable_dirty_tracking();
                    let stack = MemoryLayout::page_of(BASE)..MemoryLayout::page_of(TOP);
                    model.dirty = Some(data_pages(&mem).chain(stack).collect());
                }
                1 => {
                    mem.disable_dirty_tracking();
                    model.dirty = None;
                }
                _ => {
                    let want: Vec<u32> = model
                        .dirty
                        .as_mut()
                        .map(std::mem::take)
                        .into_iter()
                        .flatten()
                        .collect();
                    assert_eq!(mem.take_dirty(), want, "{ctx}: take_dirty");
                }
            },
            _ => {
                // Equality sees the logical stack: an image grown only as
                // far as it was touched equals a fully materialised one,
                // and a single differing byte anywhere breaks it.
                let mut twin = flat_twin(&model);
                assert!(mem == twin, "{ctx}: differs from flat twin");
                assert!(twin == mem, "{ctx}: flat twin differs");
                let addr = BASE + rng.below(MAX);
                let b = twin.read_u8(addr).unwrap();
                twin.write_u8(addr, b ^ 0x80).unwrap();
                assert!(mem != twin, "{ctx}: byte {addr:#x} ignored");
                assert!(twin != mem, "{ctx}: byte {addr:#x} ignored by twin");
            }
        }
        check(&mem, &model, &mut rng);
    }
    // Debug prints the logical stack too.
    mem.disable_dirty_tracking();
    assert_eq!(format!("{mem:?}"), format!("{:?}", flat_twin(&model)));
}

#[test]
fn demand_grown_stack_matches_a_flat_model() {
    for seed in 0..8 {
        run(seed);
    }
}

#[test]
fn a_fresh_image_reads_zero_stack_and_grows_on_write() {
    let mut mem = image();
    assert_eq!(mem.read_u32(TOP - 4), Ok(0));
    assert_eq!(mem.read_u32(BASE), Ok(0));
    assert_eq!(mem.stack_from(BASE).unwrap().len(), MAX as usize);
    // A word straddling a page boundary, half of it untouched.
    mem.write_u16(TOP - PAGE - 1, 0xABCD).unwrap();
    assert_eq!(mem.read_u32(TOP - PAGE - 2), Ok(0x00AB_CD00));
    assert_eq!(
        mem,
        flat_twin(&Model {
            stack: {
                let mut s = vec![0; MAX as usize];
                s[(MAX - PAGE - 1) as usize] = 0xAB;
                s[(MAX - PAGE) as usize] = 0xCD;
                s
            },
            dirty: None,
        })
    );
}
