//! EPC identifiers and the Gen-2 CRC (EPCglobal Class 1 Generation 2 \[15\]).
//!
//! Every tag carries a 96-bit Electronic Product Code; its uniqueness is
//! what lets RF-IDraw distinguish multiple users writing simultaneously
//! (§2). Tag replies are protected by the Gen-2 CRC-16 (CCITT polynomial
//! 0x1021, preset 0xFFFF, inverted), and singulation uses 16-bit random
//! handles (RN16).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A 96-bit EPC identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Epc(pub [u8; 12]);

impl Epc {
    /// An EPC from its 12 bytes.
    pub const fn new(bytes: [u8; 12]) -> Self {
        Self(bytes)
    }

    /// A compact test/demo EPC derived from a small integer.
    pub fn from_index(index: u32) -> Self {
        let mut b = [0u8; 12];
        b[8..].copy_from_slice(&index.to_be_bytes());
        // A recognizable header (GS1 SGTIN-96 header is 0x30).
        b[0] = 0x30;
        Self(b)
    }

    /// The Gen-2 CRC-16 over the EPC bytes.
    pub fn crc(&self) -> u16 {
        crc16_gen2(&self.0)
    }
}

impl std::fmt::Display for Epc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.0 {
            write!(f, "{b:02X}")?;
        }
        Ok(())
    }
}

/// A 16-bit random number handle used during singulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rn16(pub u16);

impl Rn16 {
    /// Draws a fresh handle.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self(rng.gen())
    }
}

/// The Gen-2 CRC-16: polynomial 0x1021, preset 0xFFFF, output inverted
/// (ISO/IEC 18000-6C Annex F).
pub fn crc16_gen2(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    !crc
}

/// Verifies a frame whose last two bytes are its big-endian CRC.
pub fn check_frame(frame: &[u8]) -> bool {
    if frame.len() < 2 {
        return false;
    }
    let (payload, crc_bytes) = frame.split_at(frame.len() - 2);
    let expected = u16::from_be_bytes([crc_bytes[0], crc_bytes[1]]);
    crc16_gen2(payload) == expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crc_matches_known_vector() {
        // CRC-16/GENIBUS (= Gen-2 CRC) of "123456789" is 0xD64E.
        assert_eq!(crc16_gen2(b"123456789"), 0xD64E);
    }

    #[test]
    fn crc_of_empty_is_inverted_preset() {
        assert_eq!(crc16_gen2(&[]), !0xFFFF);
    }

    #[test]
    fn frame_roundtrip_validates() {
        let payload = [0x30, 0x11, 0x22, 0x33];
        let crc = crc16_gen2(&payload);
        let mut frame = payload.to_vec();
        frame.extend_from_slice(&crc.to_be_bytes());
        assert!(check_frame(&frame));
        // Any single-bit corruption must be caught.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(!check_frame(&bad), "corruption at {byte}:{bit} passed");
            }
        }
    }

    #[test]
    fn check_frame_rejects_short_input() {
        assert!(!check_frame(&[]));
        assert!(!check_frame(&[0x12]));
    }

    #[test]
    fn epc_from_index_is_unique_and_displayable() {
        let a = Epc::from_index(1);
        let b = Epc::from_index(2);
        assert_ne!(a, b);
        assert_eq!(a.to_string().len(), 24);
        assert!(a.to_string().starts_with("30"));
    }

    #[test]
    fn epc_crc_is_stable() {
        let e = Epc::from_index(7);
        assert_eq!(e.crc(), e.crc());
        assert_ne!(e.crc(), Epc::from_index(8).crc());
    }

    #[test]
    fn rn16_uses_rng() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Rn16::random(&mut rng);
        let b = Rn16::random(&mut rng);
        // Overwhelmingly likely distinct under a fixed seed.
        assert_ne!(a, b);
    }
}
