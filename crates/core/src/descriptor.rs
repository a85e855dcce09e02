//! Migration descriptors (§IV-B): the 128-byte records DMA'd across
//! PCIe as single bursts.

use crate::services::desc_layout as L;
use std::fmt;

/// The four descriptor kinds of Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DescKind {
    /// Host calls an NxP function.
    HostToNxpCall = 1,
    /// NxP calls a host function.
    NxpToHostCall = 2,
    /// Host function finished; value returns to the NxP.
    HostToNxpReturn = 3,
    /// NxP function finished; value returns to the host.
    NxpToHostReturn = 4,
}

impl DescKind {
    /// Wire tag.
    pub fn tag(self) -> u64 {
        self as u64
    }

    /// Parses a wire tag.
    pub fn from_tag(t: u64) -> Option<DescKind> {
        match t {
            1 => Some(DescKind::HostToNxpCall),
            2 => Some(DescKind::NxpToHostCall),
            3 => Some(DescKind::HostToNxpReturn),
            4 => Some(DescKind::NxpToHostReturn),
            _ => None,
        }
    }

    /// True for the two call kinds.
    pub fn is_call(self) -> bool {
        matches!(self, DescKind::HostToNxpCall | DescKind::NxpToHostCall)
    }

    /// Short trace label.
    pub fn label(self) -> &'static str {
        match self {
            DescKind::HostToNxpCall => "h2n-call",
            DescKind::NxpToHostCall => "n2h-call",
            DescKind::HostToNxpReturn => "h2n-ret",
            DescKind::NxpToHostReturn => "n2h-ret",
        }
    }
}

impl fmt::Display for DescKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Why a received descriptor was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DescError {
    /// Buffer shorter than the 128-byte wire size.
    TooShort,
    /// The checksum did not cover the payload — the burst was damaged
    /// in flight. Carries the stored and recomputed values.
    BadChecksum {
        /// Checksum carried on the wire.
        stored: u64,
        /// Checksum recomputed from the payload.
        computed: u64,
    },
    /// The kind tag is not one of the four descriptor kinds.
    BadKind(u64),
}

impl fmt::Display for DescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescError::TooShort => write!(f, "descriptor buffer too short"),
            DescError::BadChecksum { stored, computed } => write!(
                f,
                "descriptor checksum mismatch (wire {stored:#x}, computed {computed:#x})"
            ),
            DescError::BadKind(t) => write!(f, "unknown descriptor kind tag {t}"),
        }
    }
}

impl std::error::Error for DescError {}

/// FNV-1a-64 over `bytes`, skipping the 8-byte checksum field itself.
/// Any single corrupted byte changes the digest (each step is injective
/// in the running hash), which is the property the DMA recovery path
/// needs; this models the link-layer CRC real PCIe provides for free.
fn fnv1a_except_crc(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let crc = L::CRC as usize;
    bytes[..crc]
        .iter()
        .chain(&bytes[crc + 8..])
        .fold(OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
}

/// One migration descriptor.
///
/// Carries everything §IV-B1 lists: target address, the argument
/// registers, the return value (for return kinds), the PID used to wake
/// the right thread, the CR3/PTBR so the NxP walks the same page
/// tables, and the thread's NxP stack pointer. On top of the paper's
/// fields the wire format carries a per-direction sequence number (so
/// receivers can discard retransmitted duplicates) and a checksum (so
/// corrupted bursts are detected and NAKed instead of trusted).
///
/// # Examples
///
/// ```
/// use flick::{DescKind, MigrationDescriptor};
///
/// let d = MigrationDescriptor {
///     kind: DescKind::HostToNxpCall,
///     target: 0x40_2000,
///     ret: 0,
///     args: [1, 2, 3, 4, 5, 6],
///     pid: 9,
///     cr3: 0x1000,
///     nxp_sp: 0x6000_0000_fff0,
///     seq: 1,
///     span: 1,
/// };
/// let bytes = d.to_bytes();
/// assert_eq!(bytes.len(), 128);
/// assert_eq!(MigrationDescriptor::from_bytes(&bytes).unwrap(), d);
/// assert_eq!(MigrationDescriptor::from_bytes_checked(&bytes), Ok(d));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationDescriptor {
    /// Kind tag.
    pub kind: DescKind,
    /// Target function VA (call kinds).
    pub target: u64,
    /// Return value (return kinds).
    pub ret: u64,
    /// The six argument registers `a0`–`a5`, verbatim.
    pub args: [u64; 6],
    /// Thread id.
    pub pid: u64,
    /// Page-table base register value.
    pub cr3: u64,
    /// NxP stack pointer for this thread.
    pub nxp_sp: u64,
    /// Per-direction sequence number (unchanged across retransmits).
    pub seq: u64,
    /// Observability span id attributing both sides' lifecycle marks to
    /// one migration. Assigned deterministically whether or not span
    /// recording is enabled, so observability never changes wire bytes.
    pub span: u64,
}

impl MigrationDescriptor {
    /// Serialises to the 128-byte wire format, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = vec![0u8; L::SIZE as usize];
        let put = |b: &mut Vec<u8>, at: u64, v: u64| {
            b[at as usize..at as usize + 8].copy_from_slice(&v.to_le_bytes());
        };
        put(&mut b, L::KIND, self.kind.tag());
        put(&mut b, L::TARGET, self.target);
        put(&mut b, L::RET, self.ret);
        for (i, a) in self.args.iter().enumerate() {
            put(&mut b, L::ARGS + 8 * i as u64, *a);
        }
        put(&mut b, L::PID, self.pid);
        put(&mut b, L::CR3, self.cr3);
        put(&mut b, L::NXP_SP, self.nxp_sp);
        put(&mut b, L::SEQ, self.seq);
        put(&mut b, L::SPAN, self.span);
        let crc = fnv1a_except_crc(&b);
        put(&mut b, L::CRC, crc);
        b
    }

    /// Parses the wire format without verifying the checksum (trusting
    /// local, non-DMA copies such as the process descriptor page).
    ///
    /// Returns `None` for short buffers or unknown kind tags.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < L::SIZE as usize {
            return None;
        }
        let get = |at: u64| u64::from_le_bytes(b[at as usize..at as usize + 8].try_into().unwrap());
        let kind = DescKind::from_tag(get(L::KIND))?;
        let mut args = [0u64; 6];
        for (i, a) in args.iter_mut().enumerate() {
            *a = get(L::ARGS + 8 * i as u64);
        }
        Some(MigrationDescriptor {
            kind,
            target: get(L::TARGET),
            ret: get(L::RET),
            args,
            pid: get(L::PID),
            cr3: get(L::CR3),
            nxp_sp: get(L::NXP_SP),
            seq: get(L::SEQ),
            span: get(L::SPAN),
        })
    }

    /// Parses and *verifies* the wire format — the entry point for
    /// bytes that crossed the link. Checksum is verified before the
    /// kind tag so a corrupted tag reports as corruption, not protocol
    /// breakage.
    ///
    /// # Errors
    ///
    /// [`DescError::TooShort`] for truncated buffers,
    /// [`DescError::BadChecksum`] for in-flight corruption, and
    /// [`DescError::BadKind`] for a clean buffer with an invalid tag.
    pub fn from_bytes_checked(b: &[u8]) -> Result<Self, DescError> {
        if b.len() < L::SIZE as usize {
            return Err(DescError::TooShort);
        }
        let get = |at: u64| u64::from_le_bytes(b[at as usize..at as usize + 8].try_into().unwrap());
        let stored = get(L::CRC);
        let computed = fnv1a_except_crc(&b[..L::SIZE as usize]);
        if stored != computed {
            return Err(DescError::BadChecksum { stored, computed });
        }
        let tag = get(L::KIND);
        Self::from_bytes(b).ok_or(DescError::BadKind(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: DescKind) -> MigrationDescriptor {
        MigrationDescriptor {
            kind,
            target: 0xDEAD_0000,
            ret: 0xFEED,
            args: [10, 11, 12, 13, 14, 15],
            pid: 3,
            cr3: 0x7000,
            nxp_sp: 0x6000_0001_0000,
            seq: 42,
            span: 7,
        }
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            DescKind::HostToNxpCall,
            DescKind::NxpToHostCall,
            DescKind::HostToNxpReturn,
            DescKind::NxpToHostReturn,
        ] {
            let d = sample(kind);
            assert_eq!(MigrationDescriptor::from_bytes(&d.to_bytes()), Some(d));
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut b = sample(DescKind::HostToNxpCall).to_bytes();
        b[0] = 99;
        assert_eq!(MigrationDescriptor::from_bytes(&b), None);
    }

    #[test]
    fn short_buffer_rejected() {
        let b = sample(DescKind::HostToNxpCall).to_bytes();
        assert_eq!(MigrationDescriptor::from_bytes(&b[..100]), None);
    }

    #[test]
    fn checked_parse_accepts_clean_wire_bytes() {
        let d = sample(DescKind::NxpToHostReturn);
        assert_eq!(MigrationDescriptor::from_bytes_checked(&d.to_bytes()), Ok(d));
    }

    #[test]
    fn checked_parse_rejects_flipped_byte_anywhere() {
        let d = sample(DescKind::HostToNxpCall);
        let clean = d.to_bytes();
        for i in 0..clean.len() {
            let mut b = clean.clone();
            b[i] ^= 0x40;
            assert!(
                matches!(
                    MigrationDescriptor::from_bytes_checked(&b),
                    Err(DescError::BadChecksum { .. })
                ),
                "flip at byte {i} not caught"
            );
        }
    }

    #[test]
    fn checked_parse_reports_short_buffer() {
        let b = sample(DescKind::HostToNxpCall).to_bytes();
        assert_eq!(
            MigrationDescriptor::from_bytes_checked(&b[..64]),
            Err(DescError::TooShort)
        );
    }

    #[test]
    fn seq_survives_round_trip_and_is_covered_by_crc() {
        let mut d = sample(DescKind::HostToNxpCall);
        d.seq = 0x0123_4567_89AB_CDEF;
        let b = d.to_bytes();
        assert_eq!(MigrationDescriptor::from_bytes_checked(&b).unwrap().seq, d.seq);
        // A different seq must change the checksum.
        let mut d2 = d;
        d2.seq += 1;
        let b2 = d2.to_bytes();
        assert_ne!(b[104..112], b2[104..112], "CRC must cover SEQ");
    }

    #[test]
    fn span_survives_round_trip_and_is_covered_by_crc() {
        use crate::services::desc_layout as L;
        let mut d = sample(DescKind::NxpToHostCall);
        d.span = 0xAB54_A98C_EB1F_0AD2;
        let b = d.to_bytes();
        assert_eq!(
            MigrationDescriptor::from_bytes_checked(&b).unwrap().span,
            d.span
        );
        // A different span id must change the checksum: the id rides in
        // formerly-reserved padding but is link-protected like any field.
        let mut d2 = d;
        d2.span += 1;
        let b2 = d2.to_bytes();
        let crc = L::CRC as usize;
        assert_ne!(b[crc..crc + 8], b2[crc..crc + 8], "CRC must cover SPAN");
    }

    #[test]
    fn checksum_of_a_fixed_descriptor_is_pinned() {
        // The wire digest is part of the simulated machine's observable
        // bytes: any change to how it is computed must keep this value.
        let b = sample(DescKind::HostToNxpCall).to_bytes();
        let crc = u64::from_le_bytes(b[L::CRC as usize..L::CRC as usize + 8].try_into().unwrap());
        assert_eq!(crc, 0x98d5_e1ad_5629_6c8e);
    }

    #[test]
    fn kind_properties() {
        assert!(DescKind::HostToNxpCall.is_call());
        assert!(!DescKind::NxpToHostReturn.is_call());
        assert_eq!(DescKind::NxpToHostCall.to_string(), "n2h-call");
    }
}
