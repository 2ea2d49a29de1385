//! Bitstream file serialization.
//!
//! Real flows ship configurations as files; this module defines a small
//! container format for [`crate::Bitstream`]s so specialized
//! configurations can be stored, diffed offline, and reloaded:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "PFB1"
//! 4       4     frame_bits  (u32 LE)
//! 8       8     n_bits      (u64 LE)
//! 16      4     CRC-32 of the payload (u32 LE)
//! 20      ...   payload: ceil(n_bits/8) bytes, LSB-first
//! ```

use crate::bitstream::Bitstream;
use pfdbg_util::BitVec;

/// File-format errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitfileError {
    /// File too short or wrong magic.
    BadHeader,
    /// Payload shorter than the header promises.
    Truncated,
    /// CRC mismatch (corruption).
    BadChecksum {
        /// CRC stored in the header.
        expected: u32,
        /// CRC of the actual payload.
        actual: u32,
    },
}

impl std::fmt::Display for BitfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitfileError::BadHeader => write!(f, "not a PFB1 bitstream file"),
            BitfileError::Truncated => write!(f, "bitstream file truncated"),
            BitfileError::BadChecksum { expected, actual } => {
                write!(f, "bitstream CRC mismatch: header {expected:08x}, payload {actual:08x}")
            }
        }
    }
}

impl std::error::Error for BitfileError {}

const MAGIC: &[u8; 4] = b"PFB1";

/// CRC-32 (IEEE 802.3, reflected), table-free bitwise implementation.
/// Besides whole bitfiles it checks every ICAP frame write:
/// `pfdbg_pconf::icap::frame_crc` runs it twice per frame written, once
/// over the words sent and once over the readback.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Fold `data` into a running CRC-32 register: `crc32(a ++ b)` is
/// `!crc32_update(crc32_update(0xFFFF_FFFF, a), b)`, so a caller can
/// checksum data it holds in pieces without first collecting it.
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc
}

/// Serialize a bitstream (with its frame size, so a reader can address
/// frames without the original layout).
pub fn write(bs: &Bitstream, frame_bits: usize) -> Vec<u8> {
    let n_bits = bs.len();
    let n_bytes = n_bits.div_ceil(8);
    let mut payload = vec![0u8; n_bytes];
    for (w, &word) in bs.words().iter().enumerate() {
        let bytes = word.to_le_bytes();
        for (b, &byte) in bytes.iter().enumerate() {
            let idx = w * 8 + b;
            if idx < n_bytes {
                payload[idx] = byte;
            }
        }
    }
    let mut out = Vec::with_capacity(20 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(frame_bits as u32).to_le_bytes());
    out.extend_from_slice(&(n_bits as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parse a serialized bitstream; returns `(bitstream, frame_bits)`.
pub fn read(data: &[u8]) -> Result<(Bitstream, usize), BitfileError> {
    if data.len() < 20 || &data[0..4] != MAGIC {
        return Err(BitfileError::BadHeader);
    }
    let frame_bits = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
    let n_bits = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes")) as usize;
    let expected = u32::from_le_bytes(data[16..20].try_into().expect("4 bytes"));
    let n_bytes = n_bits.div_ceil(8);
    let payload = &data[20..];
    if payload.len() < n_bytes {
        return Err(BitfileError::Truncated);
    }
    let payload = &payload[..n_bytes];
    let actual = crc32(payload);
    if actual != expected {
        return Err(BitfileError::BadChecksum { expected, actual });
    }
    let mut bits = BitVec::zeros(n_bits);
    for i in 0..n_bits {
        if (payload[i / 8] >> (i % 8)) & 1 == 1 {
            bits.set(i, true);
        }
    }
    Ok((Bitstream::from_bits(bits), frame_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitstreamLayout;
    use crate::device::{ArchSpec, Device};
    use crate::rrg::build_rrg;

    fn sample() -> (Bitstream, BitstreamLayout) {
        let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 2, 2);
        let rrg = build_rrg(&dev);
        let layout = BitstreamLayout::new(&dev, &rrg, 1312);
        let mut bs = layout.empty_bitstream();
        for i in (0..layout.n_bits).step_by(7) {
            bs.set(i, true);
        }
        (bs, layout)
    }

    #[test]
    fn round_trip_identity() {
        let (bs, layout) = sample();
        let bytes = write(&bs, layout.frame_bits);
        let (back, fb) = read(&bytes).unwrap();
        assert_eq!(fb, layout.frame_bits);
        assert_eq!(back, bs);
    }

    #[test]
    fn corruption_detected() {
        let (bs, layout) = sample();
        let mut bytes = write(&bs, layout.frame_bits);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        match read(&bytes) {
            Err(BitfileError::BadChecksum { .. }) => {}
            other => panic!("expected CRC failure, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let (bs, layout) = sample();
        let bytes = write(&bs, layout.frame_bits);
        assert_eq!(read(&bytes[..bytes.len() - 5]).unwrap_err(), BitfileError::Truncated);
        assert_eq!(read(&bytes[..10]).unwrap_err(), BitfileError::BadHeader);
        assert_eq!(read(b"NOPE").unwrap_err(), BitfileError::BadHeader);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_bitstream_round_trips() {
        let bs = Bitstream::from_bits(BitVec::zeros(0));
        let bytes = write(&bs, 1312);
        let (back, _) = read(&bytes).unwrap();
        assert_eq!(back.len(), 0);
    }
}
