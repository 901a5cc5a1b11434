//! The classic a.out exec header and whole-file executable codec.

use m68vm::{IsaLevel, Object};

/// OMAGIC: text is not write-protected by the original loaders; we keep
/// text read-only regardless, but the magic value is the traditional 0407.
pub const OMAGIC: u16 = 0o407;

/// Length of the encoded header in bytes: eight big-endian 32-bit words.
pub const AOUT_HEADER_LEN: usize = 32;

/// Machine id for the baseline ISA (Sun's `M_68010 == 1`).
pub const MID_ISA1: u16 = 1;
/// Machine id for the superset ISA (Sun's `M_68020 == 2`).
pub const MID_ISA2: u16 = 2;

/// An a.out parsing/validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AoutError {
    /// The file is shorter than its header claims.
    Truncated,
    /// The magic word is not OMAGIC.
    BadMagic(u16),
    /// The machine id names no known ISA level.
    BadMachine(u16),
    /// The entry point lies outside the text segment.
    BadEntry(u32),
}

impl core::fmt::Display for AoutError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AoutError::Truncated => write!(f, "a.out file truncated"),
            AoutError::BadMagic(m) => write!(f, "bad a.out magic {m:#o}"),
            AoutError::BadMachine(m) => write!(f, "unknown a.out machine id {m}"),
            AoutError::BadEntry(e) => write!(f, "entry point {e:#x} outside text"),
        }
    }
}

impl std::error::Error for AoutError {}

/// The 4.3BSD/SunOS `struct exec`, big-endian on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AoutHeader {
    /// Machine id (upper half of the first word on SunOS).
    pub a_machtype: u16,
    /// Magic number (lower half of the first word).
    pub a_magic: u16,
    /// Size of the text segment in bytes.
    pub a_text: u32,
    /// Size of the initialised data segment in bytes.
    pub a_data: u32,
    /// Size of the zero-filled bss in bytes.
    pub a_bss: u32,
    /// Size of the symbol table in bytes (always zero here).
    pub a_syms: u32,
    /// Entry point virtual address.
    pub a_entry: u32,
    /// Size of text relocation (always zero: images are pre-linked).
    pub a_trsize: u32,
    /// Size of data relocation (always zero).
    pub a_drsize: u32,
}

impl AoutHeader {
    /// Builds a header for the given segment sizes and ISA requirement.
    pub fn new(text: u32, data: u32, bss: u32, entry: u32, isa: IsaLevel) -> AoutHeader {
        AoutHeader {
            a_machtype: match isa {
                IsaLevel::Isa1 => MID_ISA1,
                IsaLevel::Isa2 => MID_ISA2,
            },
            a_magic: OMAGIC,
            a_text: text,
            a_data: data,
            a_bss: bss,
            a_syms: 0,
            a_entry: entry,
            a_trsize: 0,
            a_drsize: 0,
        }
    }

    /// The ISA level this executable requires.
    pub fn isa(&self) -> Result<IsaLevel, AoutError> {
        match self.a_machtype {
            MID_ISA1 => Ok(IsaLevel::Isa1),
            MID_ISA2 => Ok(IsaLevel::Isa2),
            m => Err(AoutError::BadMachine(m)),
        }
    }

    /// Serialises the header to its 32 on-disk bytes.
    pub fn encode(&self) -> [u8; AOUT_HEADER_LEN] {
        let mut out = [0u8; AOUT_HEADER_LEN];
        let word0 = ((self.a_machtype as u32) << 16) | self.a_magic as u32;
        let words = [
            word0,
            self.a_text,
            self.a_data,
            self.a_bss,
            self.a_syms,
            self.a_entry,
            self.a_trsize,
            self.a_drsize,
        ];
        for (i, w) in words.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Parses and validates the header from the front of a file.
    pub fn decode(bytes: &[u8]) -> Result<AoutHeader, AoutError> {
        if bytes.len() < AOUT_HEADER_LEN {
            return Err(AoutError::Truncated);
        }
        let word = |i: usize| {
            u32::from_be_bytes([
                bytes[i * 4],
                bytes[i * 4 + 1],
                bytes[i * 4 + 2],
                bytes[i * 4 + 3],
            ])
        };
        let w0 = word(0);
        let header = AoutHeader {
            a_machtype: (w0 >> 16) as u16,
            a_magic: (w0 & 0xffff) as u16,
            a_text: word(1),
            a_data: word(2),
            a_bss: word(3),
            a_syms: word(4),
            a_entry: word(5),
            a_trsize: word(6),
            a_drsize: word(7),
        };
        if header.a_magic != OMAGIC {
            return Err(AoutError::BadMagic(header.a_magic));
        }
        header.isa()?;
        Ok(header)
    }
}

/// A fully parsed executable: header plus segment bytes, borrowed from
/// the file, so a caller copies only the segments it keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executable<'a> {
    /// The validated header.
    pub header: AoutHeader,
    /// Text segment bytes.
    pub text: &'a [u8],
    /// Initialised data segment bytes.
    pub data: &'a [u8],
}

impl Executable<'_> {
    /// The ISA level required to run this image.
    pub fn isa(&self) -> IsaLevel {
        self.header.isa().expect("validated at parse time")
    }
}

/// Encodes segments into a complete a.out file.
pub fn encode_executable(text: &[u8], data: &[u8], bss: u32, entry: u32, isa: IsaLevel) -> Vec<u8> {
    let header = AoutHeader::new(text.len() as u32, data.len() as u32, bss, entry, isa);
    let mut out = Vec::with_capacity(AOUT_HEADER_LEN + text.len() + data.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(text);
    out.extend_from_slice(data);
    out
}

/// Encodes an assembled [`Object`] into a complete a.out file.
pub fn encode_object(obj: &Object) -> Vec<u8> {
    encode_executable(
        &obj.text,
        &obj.data,
        obj.bss_len,
        obj.entry,
        obj.required_isa,
    )
}

/// Parses and validates a complete a.out file.
pub fn parse_executable(bytes: &[u8]) -> Result<Executable<'_>, AoutError> {
    let header = AoutHeader::decode(bytes)?;
    let text_start = AOUT_HEADER_LEN;
    let text_end = text_start + header.a_text as usize;
    let data_end = text_end + header.a_data as usize;
    if bytes.len() < data_end {
        return Err(AoutError::Truncated);
    }
    let text = &bytes[text_start..text_end];
    let data = &bytes[text_end..data_end];
    let text_base = m68vm::MemoryLayout::TEXT_BASE;
    if header.a_text > 0
        && (header.a_entry < text_base || header.a_entry >= text_base + header.a_text)
    {
        return Err(AoutError::BadEntry(header.a_entry));
    }
    Ok(Executable { header, text, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m68vm::assemble;

    fn sample() -> Object {
        assemble(
            r#"
            start:  move.l  counter, d0
                    trap    #0
                    .data
            counter:.long   123
            "#,
        )
        .unwrap()
    }

    #[test]
    fn header_encode_decode_round_trip() {
        let h = AoutHeader::new(100, 200, 300, 0x1000, IsaLevel::Isa2);
        let bytes = h.encode();
        let back = AoutHeader::decode(&bytes).unwrap();
        assert_eq!(h, back);
        assert_eq!(back.isa().unwrap(), IsaLevel::Isa2);
    }

    #[test]
    fn magic_is_0407() {
        let h = AoutHeader::new(0, 0, 0, 0x1000, IsaLevel::Isa1);
        assert_eq!(h.a_magic, 0o407);
        let bytes = h.encode();
        // Second on-disk halfword is the magic.
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 0o407);
    }

    #[test]
    fn executable_round_trip() {
        let obj = sample();
        let file = encode_object(&obj);
        let exe = parse_executable(&file).unwrap();
        assert_eq!(exe.text, obj.text);
        assert_eq!(exe.data, obj.data);
        assert_eq!(exe.header.a_entry, obj.entry);
        assert_eq!(exe.isa(), IsaLevel::Isa1);
    }

    #[test]
    fn bad_magic_rejected() {
        let obj = sample();
        let mut file = encode_object(&obj);
        file[3] = 0; // Corrupt low byte of magic.
        assert!(matches!(
            parse_executable(&file),
            Err(AoutError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let obj = sample();
        let file = encode_object(&obj);
        assert_eq!(
            parse_executable(&file[..file.len() - 1]),
            Err(AoutError::Truncated)
        );
        assert_eq!(parse_executable(&file[..10]), Err(AoutError::Truncated));
    }

    #[test]
    fn unknown_machine_rejected() {
        let mut h = AoutHeader::new(0, 0, 0, 0x1000, IsaLevel::Isa1);
        h.a_machtype = 99;
        let bytes = h.encode();
        assert_eq!(AoutHeader::decode(&bytes), Err(AoutError::BadMachine(99)));
    }

    #[test]
    fn entry_outside_text_rejected() {
        let file = encode_executable(&[0u8; 8], &[], 0, 0x9999_0000, IsaLevel::Isa1);
        assert!(matches!(
            parse_executable(&file),
            Err(AoutError::BadEntry(_))
        ));
    }

    #[test]
    fn parsed_executable_runs() {
        use m68vm::{Cpu, IsaLevel, StepEvent};
        let obj = sample();
        let file = encode_object(&obj);
        let exe = parse_executable(&file).unwrap();
        let mut mem = m68vm::Memory::new(exe.text, exe.data.to_vec(), exe.header.a_bss);
        let mut cpu = Cpu::at_entry(exe.header.a_entry);
        loop {
            match cpu.step(&mut mem, IsaLevel::Isa1) {
                StepEvent::Executed { .. } => {}
                StepEvent::Trap { .. } => break,
                StepEvent::Faulted(f) => panic!("fault {f:?}"),
            }
        }
        assert_eq!(cpu.d[0], 123);
    }
}
