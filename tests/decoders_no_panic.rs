//! Adversarial inputs for every on-disk and in-memory decoder.
//!
//! A torn NFS file or a hostile a.out must never panic the host: the
//! decoders of the dump files (`filesXXXXX`, `stackXXXXX`,
//! `deltaXXXXX`), the a.out header and executable, the core file and
//! the VM instruction codec each return `Ok` or `Err` for any input.
//! This test feeds them three kinds of input from a fixed seed:
//!
//! - random byte strings, half of them behind the decoder's own magic
//!   number so the parse gets past the first check;
//! - every truncation of a valid encoding;
//! - every single-byte change of a valid encoding (one random nonzero
//!   XOR per position).
//!
//! The random source is an in-test splitmix64, so a failure names a
//! reproducible input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aout::{AoutHeader, CoreFile};
use dumpfmt::{DeltaFile, DeltaPage, FdRecord, FilesFile, SignalState, StackFile};
use m68vm::assemble;
use sysdefs::limits::NOFILE;
use sysdefs::{Credentials, Disposition, Gid, OpenFlags, TtyFlags, Uid};

/// splitmix64: a tiny, well-mixed deterministic generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// One decoder under test: its name, a valid encoding, and the call.
struct Decoder {
    name: &'static str,
    valid: Vec<u8>,
    decode: fn(&[u8]) -> bool,
}

/// Runs `d` on `input`, turning a panic into a test failure that names
/// the decoder, the kind of input and its first bytes.
fn must_not_panic(d: &Decoder, kind: &str, input: &[u8]) {
    if catch_unwind(AssertUnwindSafe(|| (d.decode)(input))).is_err() {
        panic!(
            "{} panicked on {kind} input ({} bytes, first 64: {:02x?})",
            d.name,
            input.len(),
            &input[..input.len().min(64)]
        );
    }
}

/// Decodes instructions front to back, as the loader and the icache
/// builder walk a text segment, until the bytes run out or one fails.
fn decode_insns(mut bytes: &[u8]) -> bool {
    while !bytes.is_empty() {
        match m68vm::encode::decode(bytes) {
            Ok((_, used)) => bytes = &bytes[used as usize..],
            Err(_) => return false,
        }
    }
    true
}

fn files_sample() -> Vec<u8> {
    let mut fds = vec![FdRecord::Unused; NOFILE];
    fds[0] = FdRecord::File {
        path: "/dev/tty0".into(),
        flags: OpenFlags::RDONLY,
        offset: 0,
    };
    fds[3] = FdRecord::File {
        path: "/n/brador/usr/alice/out.log".into(),
        flags: OpenFlags::WRONLY.with(OpenFlags::APPEND),
        offset: 8192,
    };
    fds[4] = FdRecord::Socket;
    FilesFile {
        host: "brick".into(),
        cwd: "/usr/alice".into(),
        fds,
        tty_flags: TtyFlags::raw_noecho(),
    }
    .encode()
    .expect("valid files record")
}

fn stack_sample() -> Vec<u8> {
    let mut sigs = SignalState::default();
    sigs.dispositions[1] = Disposition::Ignore;
    sigs.dispositions[13] = Disposition::Handler(0x1234);
    sigs.blocked = 0x8000_0001;
    StackFile {
        cred: Credentials::user(Uid(100), Gid(10)),
        stack: (0..96u8).collect(),
        regs: std::array::from_fn(|i| i as u32 * 0x0101_0101),
        sigs,
    }
    .encode()
    .expect("valid stack record")
}

fn delta_sample() -> Vec<u8> {
    DeltaFile {
        entry: 0x400,
        machtype: aout::MID_ISA1,
        data_base: 0x2000,
        data_len: 3 * 0x2000,
        pages: vec![
            DeltaPage {
                page: 1,
                bytes: vec![0xAB; 40],
            },
            DeltaPage {
                page: 3,
                bytes: vec![0xCD; 24],
            },
        ],
    }
    .encode()
    .expect("valid delta record")
}

fn core_sample() -> Vec<u8> {
    CoreFile {
        regs: std::array::from_fn(|i| 0xF000_0000 | i as u32),
        data: vec![7; 48],
        stack: vec![9; 32],
    }
    .encode()
}

/// The instruction stream at the front of a text segment: everything
/// before the first word that is not an instruction (the test program
/// pads its text with zeroed "library" space after its code).
fn code_prefix(text: &[u8]) -> Vec<u8> {
    let mut off = 0;
    while let Ok((_, used)) = m68vm::encode::decode(&text[off..]) {
        off += used as usize;
    }
    text[..off].to_vec()
}

fn decoders() -> Vec<Decoder> {
    let exe = aout::encode_object(&assemble(pmig::workloads::TEST_PROGRAM).unwrap());
    let code = code_prefix(aout::parse_executable(&exe).unwrap().text);
    assert!(code.len() >= 64, "the test program starts with code");
    vec![
        Decoder {
            name: "FilesFile::decode",
            valid: files_sample(),
            decode: |b| FilesFile::decode(b).is_ok(),
        },
        Decoder {
            name: "StackFile::decode",
            valid: stack_sample(),
            decode: |b| StackFile::decode(b).is_ok(),
        },
        Decoder {
            name: "DeltaFile::decode",
            valid: delta_sample(),
            decode: |b| DeltaFile::decode(b).is_ok(),
        },
        Decoder {
            name: "AoutHeader::decode",
            valid: exe.clone(),
            decode: |b| AoutHeader::decode(b).is_ok(),
        },
        Decoder {
            name: "aout::parse_executable",
            valid: exe,
            decode: |b| aout::parse_executable(b).is_ok(),
        },
        Decoder {
            name: "CoreFile::decode",
            valid: core_sample(),
            decode: |b| CoreFile::decode(b).is_ok(),
        },
        Decoder {
            name: "m68vm::encode::decode",
            valid: code,
            decode: decode_insns,
        },
    ]
}

#[test]
fn valid_samples_decode() {
    for d in decoders() {
        assert!(
            (d.decode)(&d.valid),
            "{}: the valid sample must decode",
            d.name
        );
    }
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = SplitMix(0x5EED_DEC0_DE00_0001);
    for d in decoders() {
        // The decoder's magic (or, for the codec, first word) as found
        // in the valid sample, so half the inputs get past it.
        let magic = d.valid[..4.min(d.valid.len())].to_vec();
        for i in 0..2_000 {
            let len = rng.below(2 * d.valid.len() as u64 + 64) as usize;
            let mut input = rng.bytes(len);
            if i % 2 == 0 {
                let n = magic.len().min(input.len());
                input[..n].copy_from_slice(&magic[..n]);
            }
            must_not_panic(&d, "random", &input);
        }
    }
}

#[test]
fn every_truncation_never_panics() {
    for d in decoders() {
        for len in 0..d.valid.len() {
            must_not_panic(&d, "truncated", &d.valid[..len]);
        }
    }
}

#[test]
fn every_single_byte_change_never_panics() {
    let mut rng = SplitMix(0x5EED_DEC0_DE00_0002);
    for d in decoders() {
        let mut input = d.valid.clone();
        for pos in 0..input.len() {
            let flip = (rng.below(255) + 1) as u8;
            input[pos] ^= flip;
            must_not_panic(&d, "byte-changed", &input);
            input[pos] ^= flip;
        }
    }
}
