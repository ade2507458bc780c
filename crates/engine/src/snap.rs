//! Solver-neutral checkpoint vocabulary: the per-step observation a
//! tracked run emits ([`StepRecord`]) and the bit-exact body comparison
//! every resume contract is pinned against.
//!
//! The actual snapshot store — chunking, content addressing, manifests,
//! structural diffing — lives in the `snapstore` crate; this module holds
//! only what the [`crate::Backend`] trait needs so that solvers can emit
//! observations without depending on the storage layer.
//!
//! It also holds the one **bit-exact hex codec** the store's chunks and
//! manifests, the state digest and the `bhserve` wire protocol share:
//! fixed-width big-endian hex of a value's bits ([`push_hex_u64`] for an
//! `f64`'s IEEE bits, [`push_hex_u32`], [`push_hex_bytes`] for a digest),
//! appended to a caller-owned buffer so an encoder allocates nothing per
//! value.  Encoders emit lowercase only.  The decoders ([`parse_hex_u64`],
//! [`parse_hex_u32`]) take *exactly* the fixed width in hex digits — no
//! sign, no whitespace, no `0x` — and accept either letter case, so nothing
//! the earlier `from_str_radix` decoders rightly accepted is now refused.

use nbody::Body;

/// Byte -> its two lowercase hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = [DIGITS[byte >> 4], DIGITS[byte & 15]];
        byte += 1;
    }
    table
};

/// ASCII byte -> the value of that hex digit, `0xff` for every other byte.
const HEX_NIBBLE: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut digit = 0;
    while digit < 10 {
        table[b'0' as usize + digit] = digit as u8;
        digit += 1;
    }
    let mut letter = 0;
    while letter < 6 {
        table[b'a' as usize + letter] = 10 + letter as u8;
        table[b'A' as usize + letter] = 10 + letter as u8;
        letter += 1;
    }
    table
};

/// Appends two lowercase hex digits per byte of `bytes`, in order.
pub fn push_hex_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.reserve(2 * bytes.len());
    for &byte in bytes {
        out.extend_from_slice(&HEX_PAIRS[byte as usize]);
    }
}

/// [`push_hex_bytes`] into a fresh `String` — for the one-value callers (a
/// digest, a manifest field, a wire field) that need text, not a buffer.
pub fn hex_string(bytes: &[u8]) -> String {
    let mut out = Vec::new();
    push_hex_bytes(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Appends `v` as 16 lowercase hex digits — `format!("{v:016x}")` without
/// the `String`.
pub fn push_hex_u64(out: &mut Vec<u8>, v: u64) {
    push_hex_bytes(out, &v.to_be_bytes());
}

/// Appends `v` as 8 lowercase hex digits.
pub fn push_hex_u32(out: &mut Vec<u8>, v: u32) {
    push_hex_bytes(out, &v.to_be_bytes());
}

/// Folds exactly `DIGITS` hex digits into their value; `None` on any other
/// length and on any byte that is not a hex digit (a sign included).
fn parse_hex<const DIGITS: usize>(text: &[u8]) -> Option<u64> {
    if text.len() != DIGITS {
        return None;
    }
    let mut value = 0u64;
    for &byte in text {
        let nibble = HEX_NIBBLE[byte as usize];
        if nibble == 0xff {
            return None;
        }
        value = value << 4 | nibble as u64;
    }
    Some(value)
}

/// Decodes [`push_hex_u64`]: exactly 16 hex digits, either case.
pub fn parse_hex_u64(text: &[u8]) -> Option<u64> {
    parse_hex::<16>(text)
}

/// Decodes [`push_hex_u32`]: exactly 8 hex digits, either case.
pub fn parse_hex_u32(text: &[u8]) -> Option<u32> {
    parse_hex::<8>(text).map(|v| v as u32)
}

/// One observation from a step-tracked run ([`crate::Backend::run_tracked`]),
/// emitted after every completed time step with all ranks quiesced.
///
/// `anchor_step` is the earliest step a bit-exact resume must restart from:
/// for stateless-per-step configurations (per-step rebuild, merged/subspace
/// builds) it is `step + 1` — resume simply continues from `bodies` — while
/// under a persistent tree it is the step of the last full rebuild, because
/// the incrementally updated tree's structure is a function of the body
/// history since that rebuild.  Resuming replays `anchor_step..` from the
/// bodies that *entered* the anchor step; the first replayed step rebuilds
/// from scratch exactly as the uninterrupted run's anchor step did, so the
/// replay reproduces the interrupted trajectory bit for bit.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// 0-based index of the time step that just completed.
    pub step: usize,
    /// Absolute step a bit-exact resume must replay from (see above).
    pub anchor_step: usize,
    /// Tree generation after this step (0 when the solver keeps no
    /// persistent tree); bumps exactly on full rebuilds.
    pub tree_generation: u64,
    /// Every body's state after this step, sorted by id.
    pub bodies: Vec<Body>,
}

/// `true` when the two body sets are bit-for-bit identical: same length and
/// every field of every body — position, velocity, acceleration, potential,
/// mass (by `f64::to_bits`), cost and id — equal.  This is the resume
/// contract's equality, strictly stronger than any epsilon comparison.
pub fn bodies_bits_equal(a: &[Body], b: &[Body]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| body_bits_equal(x, y))
}

fn body_bits_equal(a: &Body, b: &Body) -> bool {
    let v3 = |p: &nbody::Vec3, q: &nbody::Vec3| {
        p.x.to_bits() == q.x.to_bits()
            && p.y.to_bits() == q.y.to_bits()
            && p.z.to_bits() == q.z.to_bits()
    };
    a.id == b.id
        && a.cost == b.cost
        && a.mass.to_bits() == b.mass.to_bits()
        && a.phi.to_bits() == b.phi.to_bits()
        && v3(&a.pos, &b.pos)
        && v3(&a.vel, &b.vel)
        && v3(&a.acc, &b.acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::Vec3;

    fn hex64(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        push_hex_u64(&mut out, v);
        out
    }

    #[test]
    fn encoders_match_the_format_macro() {
        for v in [0, 1, 0xdead_beef, u64::MAX, 1.5f64.to_bits(), (-0.0f64).to_bits()] {
            assert_eq!(hex64(v), format!("{v:016x}").into_bytes());
            assert_eq!(parse_hex_u64(&hex64(v)), Some(v));
        }
        let mut out = b"id ".to_vec();
        push_hex_u32(&mut out, 0x0102_a0ff);
        push_hex_bytes(&mut out, &[0x00, 0x9f]);
        assert_eq!(out, b"id 0102a0ff009f", "appends, never clears");
        assert_eq!(parse_hex_u32(b"0102a0ff"), Some(0x0102_a0ff));
        assert_eq!(hex_string(&[0xab, 0x01]), "ab01");
    }

    #[test]
    fn decoders_take_exactly_the_digits_and_nothing_else() {
        // `u64::from_str_radix` takes a sign, so the decoders this replaced
        // read "+fffffffffffffff" (16 bytes) as a value.
        assert_eq!(parse_hex_u64(b"+fffffffffffffff"), None);
        assert_eq!(parse_hex_u64(b"-fffffffffffffff"), None);
        assert_eq!(parse_hex_u32(b"+fffffff"), None);
        assert_eq!(parse_hex_u64(b"fffffffffffffff"), None, "15 digits");
        assert_eq!(parse_hex_u64(b"fffffffffffffffff"), None, "17 digits");
        assert_eq!(parse_hex_u64(b"000000000000000g"), None);
        assert_eq!(parse_hex_u64(b" 00000000000000f"), None);
        assert_eq!(parse_hex_u64(b"0x0000000000000f"), None);
        assert_eq!(parse_hex_u64("00000000000000\u{e9}".as_bytes()), None, "non-ASCII");
        assert_eq!(parse_hex_u64(b""), None);
        // Either case decodes; only lowercase is ever written.
        assert_eq!(parse_hex_u64(b"3FF8000000000000"), Some(1.5f64.to_bits()));
        assert_eq!(parse_hex_u64(b"3ff8000000000000"), Some(1.5f64.to_bits()));
        assert_eq!(parse_hex_u32(b"FFFFFFFF"), Some(u32::MAX));
    }

    #[test]
    fn bit_equality_sees_every_field() {
        let base = Body::at_rest(3, Vec3::new(1.0, 2.0, 3.0), 0.5);
        assert!(bodies_bits_equal(&[base], &[base]));
        assert!(!bodies_bits_equal(&[base], &[]));

        let mut tweaked = base;
        tweaked.pos.x = f64::from_bits(tweaked.pos.x.to_bits() ^ 1);
        assert!(!bodies_bits_equal(&[base], &[tweaked]));

        let mut tweaked = base;
        tweaked.cost += 1;
        assert!(!bodies_bits_equal(&[base], &[tweaked]));

        // -0.0 == 0.0 under `==` but differs in bits: the resume contract
        // must see the difference.
        let mut zero = base;
        zero.phi = 0.0;
        let mut negzero = base;
        negzero.phi = -0.0;
        assert!(!bodies_bits_equal(&[zero], &[negzero]));
    }
}
