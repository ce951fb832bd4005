//! A tiny deterministic binary codec for object contents.
//!
//! Gas accounting charges per stored byte, so object serialization must be
//! deterministic and compact. No general-purpose binary serializer is in
//! the approved offline dependency set, so contracts encode their state
//! with this writer/reader pair.

/// Serializer writing into an owned buffer.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes`, for encoders that
    /// know their size: one allocation instead of one per doubling (a
    /// wrong size costs a reallocation, nothing else).
    pub fn with_capacity(bytes: usize) -> Self {
        Writer { buf: Vec::with_capacity(bytes) }
    }

    /// Consumes the writer, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` big-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a `u32` big-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a `u64` big-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a `u128` big-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes fixed-size bytes verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed (u32) byte string.
    pub fn var_bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }
}

/// Deserializer reading from a slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decoding error: out of bounds or trailing bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("object decode error")
    }
}
impl std::error::Error for DecodeError {}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }

    /// Reads `N` fixed bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    /// Reads a length-prefixed byte string.
    pub fn var_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        self.var_slice().map(<[u8]>::to_vec)
    }

    /// Borrowed [`Self::var_bytes`]: the string stays in the buffer.
    pub fn var_slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Asserts the buffer is fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0x1234);
        w.u32(0xdeadbeef);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 1);
        w.bool(true);
        w.bytes(&[1, 2, 3]);
        w.var_bytes(b"hello");
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.array::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(r.var_bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_fails() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(DecodeError));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(DecodeError));
    }
}
