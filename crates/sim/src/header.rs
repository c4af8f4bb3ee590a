//! The one-word Æthereal packet header.
//!
//! §4.1 of the paper: *"A packet header consists of the routing information
//! (NI address for destination routing, and path for source routing), remote
//! queue id (i.e., the queue of the remote NI in which the data will be
//! stored), and piggybacked credits."*
//!
//! Bit layout of the 32-bit header used here (documented design decision
//! D3 in `DESIGN.md`):
//!
//! ```text
//!  31..27   26      25..21   20..0
//!  credits  flush   qid      path (7 hops × 3 bits, terminator-filled)
//! ```
//!
//! * `credits` — piggybacked end-to-end flow-control credits, bounded to
//!   [`MAX_HEADER_CREDITS`] "by implementation to the given number of bits
//!   in the packet header" (paper, §4.1).
//! * `flush` — mirrors the per-channel flush that temporarily overrides the
//!   scheduling thresholds (§4.1); carried so the remote side can account
//!   flushed packets in statistics.
//! * `qid` — the destination queue in the remote NI ([`MAX_QUEUES`] queues
//!   per NI).
//! * `path` — the source route, shifted by every router (see
//!   [`Path`]).

use crate::path::{Path, PATH_BITS};
use crate::word::Word;

/// Bits for piggybacked credits.
pub const CREDIT_BITS: u32 = 5;

/// Maximum credits a single header can piggyback (`2^CREDIT_BITS - 1`).
pub const MAX_HEADER_CREDITS: u32 = (1 << CREDIT_BITS) - 1;

/// Bits for the remote queue id.
pub const QID_BITS: u32 = 5;

/// Maximum number of destination queues addressable per NI.
pub const MAX_QUEUES: usize = 1 << QID_BITS;

const FLUSH_SHIFT: u32 = PATH_BITS + QID_BITS;
const CREDIT_SHIFT: u32 = FLUSH_SHIFT + 1;
const QID_SHIFT: u32 = PATH_BITS;

/// A decoded packet header.
///
/// # Example
///
/// ```
/// use noc_sim::{PacketHeader, Path};
/// let h = PacketHeader {
///     path: Path::new(&[1, 2, 4]).unwrap(),
///     qid: 3,
///     credits: 12,
///     flush: false,
/// };
/// assert_eq!(PacketHeader::unpack(h.pack()), h);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PacketHeader {
    /// Remaining source route.
    pub path: Path,
    /// Destination queue id in the remote NI.
    pub qid: u8,
    /// Piggybacked credits (≤ [`MAX_HEADER_CREDITS`]).
    pub credits: u32,
    /// Flush indication (threshold override, §4.1).
    pub flush: bool,
}

impl PacketHeader {
    /// Packs the header into one 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `credits` exceeds [`MAX_HEADER_CREDITS`] or `qid` is not
    /// below [`MAX_QUEUES`]; both are NI invariants enforced upstream.
    pub fn pack(&self) -> Word {
        Self::pack_encoded(self.path.encode(), self.qid, self.credits, self.flush)
    }

    /// Packs a header whose path is already encoded — the NI packetizer's
    /// allocation-free form of [`PacketHeader::pack`]. `path_bits` must be
    /// a canonical encoding ([`Path::canonical_encoded`]).
    ///
    /// # Panics
    ///
    /// Panics if `credits` exceeds [`MAX_HEADER_CREDITS`] or `qid` is not
    /// below [`MAX_QUEUES`].
    pub fn pack_encoded(path_bits: u32, qid: u8, credits: u32, flush: bool) -> Word {
        assert!(
            credits <= MAX_HEADER_CREDITS,
            "credits {credits} exceed the {CREDIT_BITS}-bit header field"
        );
        assert!(
            usize::from(qid) < MAX_QUEUES,
            "qid {qid} exceeds the {QID_BITS}-bit header field"
        );
        debug_assert_eq!(path_bits, Path::canonical_encoded(path_bits));
        (credits << CREDIT_SHIFT)
            | (u32::from(flush) << FLUSH_SHIFT)
            | (u32::from(qid) << QID_SHIFT)
            | path_bits
    }

    /// Unpacks a header from a 32-bit word.
    pub fn unpack(word: Word) -> Self {
        PacketHeader {
            path: Path::decode(word & ((1 << PATH_BITS) - 1)),
            qid: ((word >> QID_SHIFT) & ((1 << QID_BITS) - 1)) as u8,
            credits: (word >> CREDIT_SHIFT) & ((1 << CREDIT_BITS) - 1),
            flush: (word >> FLUSH_SHIFT) & 1 == 1,
        }
    }

    /// Extracts only the credits field from a packed header (hot path in the
    /// depacketizer).
    #[inline]
    pub fn credits_of(word: Word) -> u32 {
        (word >> CREDIT_SHIFT) & ((1 << CREDIT_BITS) - 1)
    }

    /// Extracts only the queue id field from a packed header.
    #[inline]
    pub fn qid_of(word: Word) -> u8 {
        ((word >> QID_SHIFT) & ((1 << QID_BITS) - 1)) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PacketHeader {
        PacketHeader {
            path: Path::new(&[1, 2, 4]).unwrap(),
            qid: 3,
            credits: 12,
            flush: true,
        }
    }

    /// The packetizer packs headers straight from a channel's route
    /// register: for every 21-bit route pattern the encoded form must equal
    /// the `Path::decode`/`encode` round trip it replaces, alone and inside
    /// a packed header.
    #[test]
    fn encoded_pack_matches_decode_encode_for_every_route_pattern() {
        for bits in 0..1u32 << PATH_BITS {
            let canonical = Path::canonical_encoded(bits);
            let path = Path::decode(bits);
            assert_eq!(canonical, path.encode(), "route bits {bits:#08x}");
            let header = PacketHeader {
                path,
                qid: 7,
                credits: 19,
                flush: bits % 2 == 1,
            };
            assert_eq!(
                PacketHeader::pack_encoded(canonical, 7, 19, bits % 2 == 1),
                header.pack(),
                "route bits {bits:#08x}"
            );
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        assert_eq!(PacketHeader::unpack(h.pack()), h);
    }

    #[test]
    fn roundtrip_extremes() {
        let h = PacketHeader {
            path: Path::new(&[5, 5, 5, 5, 5, 5, 5]).unwrap(),
            qid: (MAX_QUEUES - 1) as u8,
            credits: MAX_HEADER_CREDITS,
            flush: true,
        };
        assert_eq!(PacketHeader::unpack(h.pack()), h);
        let h0 = PacketHeader {
            path: Path::empty(),
            qid: 0,
            credits: 0,
            flush: false,
        };
        assert_eq!(PacketHeader::unpack(h0.pack()), h0);
    }

    #[test]
    fn field_extractors_match_unpack() {
        let w = sample().pack();
        assert_eq!(PacketHeader::credits_of(w), 12);
        assert_eq!(PacketHeader::qid_of(w), 3);
    }

    #[test]
    #[should_panic(expected = "credits")]
    fn overflow_credits_panics() {
        let mut h = sample();
        h.credits = MAX_HEADER_CREDITS + 1;
        let _ = h.pack();
    }

    #[test]
    #[should_panic(expected = "qid")]
    fn overflow_qid_panics() {
        let mut h = sample();
        h.qid = MAX_QUEUES as u8;
        let _ = h.pack();
    }

    #[test]
    fn fields_do_not_alias() {
        // Flip each field independently and ensure the others survive.
        let base = sample();
        let mut c = base.clone();
        c.credits = 1;
        let u = PacketHeader::unpack(c.pack());
        assert_eq!(u.qid, base.qid);
        assert_eq!(u.path, base.path);
        assert_eq!(u.flush, base.flush);

        let mut q = base.clone();
        q.qid = 9;
        let u = PacketHeader::unpack(q.pack());
        assert_eq!(u.credits, base.credits);
        assert_eq!(u.path, base.path);
    }

    #[test]
    fn header_fits_32_bits() {
        // 5 credits + 1 flush + 5 qid + 21 path = 32.
        assert_eq!(CREDIT_BITS + 1 + QID_BITS + PATH_BITS, 32);
    }
}
