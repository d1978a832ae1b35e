//! The QUIC version registry.
//!
//! The paper observes three wire versions in backscatter (§5.2, Fig. 9):
//! IETF `draft-29` (78 % of Google backscatter), Facebook's
//! `mvfst-draft-27` (95 % of Facebook backscatter) and the final QUIC v1.
//! Version Negotiation packets carry version 0, and greased versions use
//! the `0x?a?a?a?a` reserved pattern (RFC 9000 §15).

use std::fmt;

/// A QUIC version identifier as carried in long headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Version {
    /// Version Negotiation packets carry the special version 0.
    Negotiation,
    /// QUIC version 1, RFC 9000 (`0x00000001`).
    V1,
    /// QUIC version 2, RFC 9369 (`0x6b3343cf`) — post-2021 deployments
    /// drift toward it while v1 remains on the wire.
    V2,
    /// IETF draft-27 (`0xff00001b`).
    Draft27,
    /// IETF draft-29 (`0xff00001d`) — dominant in Google backscatter.
    Draft29,
    /// Facebook mvfst draft-27 (`0xfaceb002`) — dominant in Facebook
    /// backscatter.
    MvfstDraft27,
    /// A version matching the reserved `0x?a?a?a?a` greasing pattern.
    Grease(u32),
    /// Any other (unknown to us) version number.
    Unknown(u32),
}

impl Version {
    /// Wire value of QUIC v1.
    pub const V1_WIRE: u32 = 0x0000_0001;
    /// Wire value of QUIC v2 (RFC 9369).
    pub const V2_WIRE: u32 = 0x6b33_43cf;
    /// Wire value of IETF draft-27.
    pub const DRAFT27_WIRE: u32 = 0xff00_001b;
    /// Wire value of IETF draft-29.
    pub const DRAFT29_WIRE: u32 = 0xff00_001d;
    /// Wire value of Facebook mvfst draft-27.
    pub const MVFST_D27_WIRE: u32 = 0xface_b002;

    /// Parses a wire value into a version.
    pub fn from_wire(value: u32) -> Self {
        match value {
            0 => Version::Negotiation,
            Self::V1_WIRE => Version::V1,
            Self::V2_WIRE => Version::V2,
            Self::DRAFT27_WIRE => Version::Draft27,
            Self::DRAFT29_WIRE => Version::Draft29,
            Self::MVFST_D27_WIRE => Version::MvfstDraft27,
            v if Self::is_grease_pattern(v) => Version::Grease(v),
            v => Version::Unknown(v),
        }
    }

    /// The 32-bit value placed in the long header.
    pub fn to_wire(self) -> u32 {
        match self {
            Version::Negotiation => 0,
            Version::V1 => Self::V1_WIRE,
            Version::V2 => Self::V2_WIRE,
            Version::Draft27 => Self::DRAFT27_WIRE,
            Version::Draft29 => Self::DRAFT29_WIRE,
            Version::MvfstDraft27 => Self::MVFST_D27_WIRE,
            Version::Grease(v) | Version::Unknown(v) => v,
        }
    }

    /// Whether `value` matches the `0x?a?a?a?a` reserved greasing pattern
    /// (RFC 9000 §15). Such versions are never deployed and force version
    /// negotiation.
    pub fn is_grease_pattern(value: u32) -> bool {
        value != 0 && value & 0x0f0f_0f0f == 0x0a0a_0a0a
    }

    /// Whether a conforming endpoint of this crate can complete a
    /// handshake with this version.
    pub fn is_supported(self) -> bool {
        matches!(
            self,
            Version::V1 | Version::V2 | Version::Draft27 | Version::Draft29 | Version::MvfstDraft27
        )
    }

    /// The label the paper uses for this version (Fig. 9 legend).
    pub fn label(self) -> String {
        match self {
            Version::Negotiation => "negotiation".to_string(),
            Version::V1 => "v1".to_string(),
            Version::V2 => "v2".to_string(),
            Version::Draft27 => "draft-27".to_string(),
            Version::Draft29 => "draft-29".to_string(),
            Version::MvfstDraft27 => "mvfst-draft-27".to_string(),
            Version::Grease(v) => format!("grease-{v:08x}"),
            Version::Unknown(v) => format!("unknown-{v:08x}"),
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_versions_roundtrip() {
        for v in [
            Version::Negotiation,
            Version::V1,
            Version::V2,
            Version::Draft27,
            Version::Draft29,
            Version::MvfstDraft27,
        ] {
            assert_eq!(Version::from_wire(v.to_wire()), v);
        }
    }

    #[test]
    fn wire_values_match_registry() {
        assert_eq!(Version::V1.to_wire(), 1);
        assert_eq!(Version::V2.to_wire(), 0x6b33_43cf);
        assert_eq!(Version::Draft29.to_wire(), 0xff00_001d);
        assert_eq!(Version::Draft27.to_wire(), 0xff00_001b);
        assert_eq!(Version::MvfstDraft27.to_wire(), 0xface_b002);
    }

    #[test]
    fn grease_pattern_detection() {
        assert!(Version::is_grease_pattern(0x0a0a_0a0a));
        assert!(Version::is_grease_pattern(0x1a2a_3a4a));
        assert!(!Version::is_grease_pattern(0x0000_0001));
        assert!(!Version::is_grease_pattern(0));
        assert!(matches!(
            Version::from_wire(0x5a6a_7a8a),
            Version::Grease(0x5a6a_7a8a)
        ));
    }

    #[test]
    fn support_matrix() {
        assert!(Version::V1.is_supported());
        assert!(Version::V2.is_supported());
        assert!(Version::Draft29.is_supported());
        assert!(Version::MvfstDraft27.is_supported());
        assert!(!Version::Negotiation.is_supported());
        assert!(!Version::Grease(0x0a0a_0a0a).is_supported());
        assert!(!Version::Unknown(0xdead_beef).is_supported());
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(Version::Draft29.label(), "draft-29");
        assert_eq!(Version::V2.label(), "v2");
        assert_eq!(Version::MvfstDraft27.label(), "mvfst-draft-27");
        assert_eq!(Version::V1.to_string(), "v1");
    }

    proptest! {
        #[test]
        fn prop_from_to_wire_roundtrip(value in any::<u32>()) {
            // from_wire . to_wire must be the identity on wire values.
            prop_assert_eq!(Version::from_wire(value).to_wire(), value);
        }

        #[test]
        fn prop_grease_never_classified_unknown(a in 0u32..16, b in 0u32..16, c in 0u32..16, d in 0u32..16) {
            let v = 0x0a0a_0a0a | (a << 28) | (b << 20) | (c << 12) | (d << 4);
            // Construction places 0xa in each low nibble, so this matches
            // the grease pattern and must never be Unknown.
            prop_assert!(!matches!(Version::from_wire(v), Version::Unknown(_)));
        }
    }
}
