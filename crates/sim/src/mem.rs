//! Flat byte-addressed memory for the simulated embedded device.

use softcache_isa::inst::MemWidth;
use std::cell::Cell;

/// Memory access fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFault {
    /// Address beyond the configured memory size.
    OutOfRange {
        /// Faulting byte address.
        addr: u32,
    },
    /// Word/halfword access not naturally aligned.
    Misaligned {
        /// Faulting byte address.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::OutOfRange { addr } => write!(f, "address {addr:#x} out of range"),
            MemFault::Misaligned { addr, align } => {
                write!(f, "address {addr:#x} not {align}-byte aligned")
            }
        }
    }
}

impl std::error::Error for MemFault {}

/// Byte-addressable little-endian memory with a code-write barrier.
///
/// The barrier exists for the machine's superblock cache: any write landing
/// in a *watched* range (by default, all of memory; the [`crate::Machine`]
/// narrows it to the text + tcache regions) bumps a generation counter and
/// widens a dirty span, so the cache can drop exactly the lowered code the
/// cache controller backpatched and nothing else.
#[derive(Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// `[lo, hi)` address ranges whose writes count as code writes.
    watch: [(u32, u32); 2],
    code_gen: u64,
    dirty_lo: u32,
    dirty_hi: u32,
}

thread_local! {
    /// The bytes of the last [`Memory`] dropped on this thread. A run
    /// allocates one multi-megabyte image and drops it at the end; handing
    /// the next [`Memory::new`] of the same size this buffer, zeroed, keeps
    /// the allocator from having to fit a fresh block of that size into
    /// the hole the last one left, where a small allocation made in
    /// between can leave it short and grow the heap by a whole image.
    static SPARE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

impl Memory {
    /// Allocate `size` bytes of zeroed memory. All writes are initially
    /// treated as code writes (safe default); see
    /// [`Memory::set_code_watch`].
    pub fn new(size: u32) -> Memory {
        let mut bytes = SPARE.take();
        if bytes.len() == size as usize {
            bytes.fill(0);
        } else {
            bytes = vec![0; size as usize];
        }
        Memory {
            bytes,
            watch: [(0, u32::MAX), (0, 0)],
            code_gen: 0,
            dirty_lo: u32::MAX,
            dirty_hi: 0,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Restrict the code-write barrier to the given `[lo, hi)` ranges.
    /// Writes outside every range no longer bump the generation. Superblock
    /// lowering refuses unwatched PCs, which then run on the reference
    /// interpreter, so a wrong guess costs speed, not correctness.
    pub fn set_code_watch(&mut self, ranges: [(u32, u32); 2]) {
        self.watch = ranges;
        // Anything cached under the old watch policy may now be invisible
        // to the barrier; force consumers to resynchronise.
        self.code_gen += 1;
        self.dirty_lo = 0;
        self.dirty_hi = u32::MAX;
    }

    /// True if `addr` lies in a watched (code) range.
    #[inline]
    pub fn is_code_watched(&self, addr: u32) -> bool {
        let [(a_lo, a_hi), (b_lo, b_hi)] = self.watch;
        (addr >= a_lo && addr < a_hi) || (addr >= b_lo && addr < b_hi)
    }

    /// Generation counter bumped by every watched write.
    #[inline]
    pub fn code_gen(&self) -> u64 {
        self.code_gen
    }

    /// The accumulated dirty code span `[lo, hi)` since the last take,
    /// reset to empty. `None` when no watched write happened.
    pub fn take_dirty_code(&mut self) -> Option<(u32, u32)> {
        if self.dirty_lo >= self.dirty_hi {
            return None;
        }
        let span = (self.dirty_lo, self.dirty_hi);
        self.dirty_lo = u32::MAX;
        self.dirty_hi = 0;
        Some(span)
    }

    #[inline]
    fn note_write(&mut self, addr: u32, len: u32) {
        let end = addr.saturating_add(len);
        let [(a_lo, a_hi), (b_lo, b_hi)] = self.watch;
        if (addr < a_hi && end > a_lo) || (addr < b_hi && end > b_lo) {
            self.code_gen += 1;
            self.dirty_lo = self.dirty_lo.min(addr);
            self.dirty_hi = self.dirty_hi.max(end);
        }
    }

    #[inline]
    fn check(&self, addr: u32, width: u32) -> Result<usize, MemFault> {
        let a = addr as usize;
        if a.checked_add(width as usize)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(MemFault::OutOfRange { addr });
        }
        if !addr.is_multiple_of(width) {
            return Err(MemFault::Misaligned { addr, align: width });
        }
        Ok(a)
    }

    /// Read a 32-bit word.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.bytes[a],
            self.bytes[a + 1],
            self.bytes[a + 2],
            self.bytes[a + 3],
        ]))
    }

    /// Write a 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, val: u32) -> Result<(), MemFault> {
        let a = self.check(addr, 4)?;
        self.note_write(addr, 4);
        self.bytes[a..a + 4].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Read a 16-bit halfword.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemFault> {
        let a = self.check(addr, 2)?;
        Ok(u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]]))
    }

    /// Write a 16-bit halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, val: u16) -> Result<(), MemFault> {
        let a = self.check(addr, 2)?;
        self.note_write(addr, 2);
        self.bytes[a..a + 2].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemFault> {
        let a = self.check(addr, 1)?;
        Ok(self.bytes[a])
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) -> Result<(), MemFault> {
        let a = self.check(addr, 1)?;
        self.note_write(addr, 1);
        self.bytes[a] = val;
        Ok(())
    }

    /// Load (width + signedness) as the ISA defines it, returning the
    /// register value.
    #[inline]
    pub fn load(&self, addr: u32, width: MemWidth, signed: bool) -> Result<i32, MemFault> {
        Ok(match (width, signed) {
            (MemWidth::W, _) => self.read_u32(addr)? as i32,
            (MemWidth::H, true) => self.read_u16(addr)? as i16 as i32,
            (MemWidth::H, false) => self.read_u16(addr)? as i32,
            (MemWidth::B, true) => self.read_u8(addr)? as i8 as i32,
            (MemWidth::B, false) => self.read_u8(addr)? as i32,
        })
    }

    /// Store the low `width` bytes of `val`.
    #[inline]
    pub fn store(&mut self, addr: u32, width: MemWidth, val: i32) -> Result<(), MemFault> {
        match width {
            MemWidth::W => self.write_u32(addr, val as u32),
            MemWidth::H => self.write_u16(addr, val as u16),
            MemWidth::B => self.write_u8(addr, val as u8),
        }
    }

    /// Copy a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemFault> {
        let a = addr as usize;
        if a.checked_add(bytes.len())
            .is_none_or(|e| e > self.bytes.len())
        {
            return Err(MemFault::OutOfRange { addr });
        }
        self.note_write(addr, bytes.len() as u32);
        self.bytes[a..a + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Copy instruction words into memory at `addr` (must be word aligned).
    pub fn write_words(&mut self, addr: u32, words: &[u32]) -> Result<(), MemFault> {
        if !addr.is_multiple_of(4) {
            return Err(MemFault::Misaligned { addr, align: 4 });
        }
        let a = addr as usize;
        let len = words.len() * 4;
        if a.checked_add(len).is_none_or(|e| e > self.bytes.len()) {
            return Err(MemFault::OutOfRange { addr });
        }
        self.note_write(addr, len as u32);
        for (i, &w) in words.iter().enumerate() {
            self.bytes[a + i * 4..a + i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], MemFault> {
        let a = addr as usize;
        if a.checked_add(len as usize)
            .is_none_or(|e| e > self.bytes.len())
        {
            return Err(MemFault::OutOfRange { addr });
        }
        Ok(&self.bytes[a..a + len as usize])
    }
}

impl Drop for Memory {
    fn drop(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        // During thread exit the spare may already be gone; the buffer is
        // then simply freed.
        let _ = SPARE.try_with(|spare| spare.set(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = Memory::new(1024);
        m.write_u32(0, 0xDEADBEEF).unwrap();
        assert_eq!(m.read_u32(0).unwrap(), 0xDEADBEEF);
        assert_eq!(m.read_u8(0).unwrap(), 0xEF, "little endian");
        assert_eq!(m.read_u16(2).unwrap(), 0xDEAD);
        m.write_u8(100, 0x7F).unwrap();
        assert_eq!(m.load(100, MemWidth::B, true).unwrap(), 127);
        m.write_u8(100, 0x80).unwrap();
        assert_eq!(m.load(100, MemWidth::B, true).unwrap(), -128);
        assert_eq!(m.load(100, MemWidth::B, false).unwrap(), 128);
    }

    #[test]
    fn a_dropped_memory_hands_its_buffer_on_zeroed() {
        let mut m = Memory::new(64);
        m.write_bytes(0, &[0xAB; 64]).unwrap();
        let buffer = m.bytes.as_ptr();
        drop(m);
        // Had the buffer been freed, the allocator could hand it to this.
        let other = vec![1u8; 64];
        let m = Memory::new(64);
        assert_eq!(m.bytes.as_ptr(), buffer, "the same buffer");
        assert_eq!(m.read_bytes(0, 64).unwrap(), &[0; 64]);
        drop(other);
    }

    #[test]
    fn halfword_sign_extension() {
        let mut m = Memory::new(64);
        m.write_u16(8, 0x8000).unwrap();
        assert_eq!(m.load(8, MemWidth::H, true).unwrap(), -32768);
        assert_eq!(m.load(8, MemWidth::H, false).unwrap(), 32768);
    }

    #[test]
    fn faults() {
        let mut m = Memory::new(16);
        assert_eq!(m.read_u32(16), Err(MemFault::OutOfRange { addr: 16 }));
        assert_eq!(
            m.read_u32(2),
            Err(MemFault::Misaligned { addr: 2, align: 4 })
        );
        assert_eq!(
            m.read_u16(1),
            Err(MemFault::Misaligned { addr: 1, align: 2 })
        );
        assert!(m.write_u32(u32::MAX - 1, 0).is_err(), "no overflow panic");
        assert!(m.write_bytes(14, &[1, 2, 3]).is_err());
        assert!(m.read_bytes(14, 3).is_err());
    }

    #[test]
    fn bulk_writes() {
        let mut m = Memory::new(64);
        m.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_u32(4).unwrap(), 0x04030201);
        m.write_words(8, &[0x11111111, 0x22222222]).unwrap();
        assert_eq!(m.read_u32(12).unwrap(), 0x22222222);
        assert!(m.write_words(2, &[0]).is_err(), "misaligned word write");
    }
}
