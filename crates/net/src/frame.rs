//! Byte-level message framing.
//!
//! Protocol messages are built with [`FrameWriter`] and parsed with
//! [`FrameReader`]; all fields are little-endian. Keeping the wire format
//! explicit (rather than using a serialization library) mirrors the
//! prototype's hand-rolled TCP messages and makes the byte accounting of
//! the 60-byte-overhead experiment exact.

/// Builds a frame.
#[derive(Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Empty frame.
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Empty frame with room for `bytes` bytes, so a writer that knows
    /// its frame's size up front allocates once.
    pub fn with_capacity(bytes: usize) -> FrameWriter {
        FrameWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Append a byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed word list.
    pub fn put_words(&mut self, words: &[u32]) -> &mut Self {
        self.put_u32(words.len() as u32);
        for &w in words {
            self.put_u32(w);
        }
        self
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Finish, returning the frame.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Frame parse error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameError;

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated or malformed frame")
    }
}

impl std::error::Error for FrameError {}

/// Parses a frame.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> FrameReader<'a> {
        FrameReader { buf, pos: 0 }
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        let v = *self.buf.get(self.pos).ok_or(FrameError)?;
        self.pos += 1;
        Ok(v)
    }

    /// Next little-endian u32.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let end = self.pos.checked_add(4).ok_or(FrameError)?;
        let s = self.buf.get(self.pos..end).ok_or(FrameError)?;
        self.pos = end;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Next length-prefixed word list.
    pub fn words(&mut self) -> Result<Vec<u32>, FrameError> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / 4 {
            return Err(FrameError);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Next length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.u32()? as usize;
        let end = self.pos.checked_add(n).ok_or(FrameError)?;
        let s = self.buf.get(self.pos..end).ok_or(FrameError)?;
        self.pos = end;
        Ok(s.to_vec())
    }

    /// True when the whole frame has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut w = FrameWriter::new();
        w.put_u8(7)
            .put_u32(0xDEADBEEF)
            .put_words(&[1, 2, 3])
            .put_bytes(b"hello");
        let f = w.finish();
        let mut r = FrameReader::new(&f);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.words().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert!(r.at_end());
        // A writer sized up front builds the same frame without growing.
        let mut w = FrameWriter::with_capacity(f.len());
        w.put_u8(7)
            .put_u32(0xDEADBEEF)
            .put_words(&[1, 2, 3])
            .put_bytes(b"hello");
        let g = w.finish();
        assert_eq!(g, f);
        assert_eq!(g.capacity(), f.len(), "no reallocation");
    }

    #[test]
    fn truncation_detected() {
        let f = {
            let mut w = FrameWriter::new();
            w.put_u32(5);
            w.finish()
        };
        let mut r = FrameReader::new(&f[..2]);
        assert_eq!(r.u32(), Err(FrameError));
        // Length prefix larger than remaining payload.
        let mut w = FrameWriter::new();
        w.put_u32(1000);
        let f = w.finish();
        let mut r = FrameReader::new(&f);
        assert_eq!(r.words(), Err(FrameError));
        let mut r = FrameReader::new(&f);
        assert_eq!(r.bytes(), Err(FrameError));
    }

    #[test]
    fn empty_collections() {
        let f = {
            let mut w = FrameWriter::new();
            w.put_words(&[]).put_bytes(&[]);
            w.finish()
        };
        let mut r = FrameReader::new(&f);
        assert_eq!(r.words().unwrap(), Vec::<u32>::new());
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
        assert!(r.at_end());
    }
}
