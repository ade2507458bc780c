//! Vendored SHA-256 (FIPS 180-4), used to content-address snapshot chunks
//! and to digest body states.
//!
//! The build environment has no network access, so the hash is implemented
//! here rather than pulled from a crate.  The store only needs collision
//! resistance good enough to key identical chunk payloads to identical
//! object files (and to detect on-disk corruption on read); cryptographic
//! strength comes for free with the standard construction.
//!
//! Every block goes through one entry point, `compress_blocks`.  On an
//! x86-64 CPU that reports the SHA extensions (Intel SHA Extensions,
//! Gulley et al., 2013) it runs the `sha256rnds2` / `sha256msg1` /
//! `sha256msg2` kernel in `shani`, selected once per process by runtime
//! detection; everywhere else it runs `compress_scalar`, the reference.
//! The tests pin the two to each other bit for bit on every length up to
//! 1 KiB and every 64·k ± 1 up to 1 MiB.  `shani` is the only module in
//! the workspace the `unsafe_code` lint admits.

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buflen: usize,
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 { state: H0, buf: [0; 64], buflen: 0, total: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish_with(compress_blocks)
    }

    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buflen > 0 {
            let take = rest.len().min(64 - self.buflen);
            self.buf[self.buflen..self.buflen + take].copy_from_slice(&rest[..take]);
            self.buflen += take;
            rest = &rest[take..];
            if self.buflen < 64 {
                // Everything fit in the partial block; the tail below must
                // not clobber `buflen` with `rest.len() == 0`.
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buflen = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        compress(&mut self.state, &rest[..whole]);
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buflen = tail.len();
    }

    /// The digest of everything absorbed so far; the hasher is unchanged.
    fn finish_with(&self, compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        // The buffered tail, 0x80, zeros and the 64-bit message length in
        // bits: one block, or two when the length no longer fits after the
        // tail.
        let mut pad = [0u8; 128];
        pad[..self.buflen].copy_from_slice(&self.buf[..self.buflen]);
        pad[self.buflen] = 0x80;
        let len = if self.buflen < 56 { 64 } else { 128 };
        pad[len - 8..len].copy_from_slice(&self.total.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        compress(&mut state, &pad[..len]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses each 64-byte block of `blocks` into `state`, in order: with
/// the SHA extensions when the CPU has them, with [`compress_scalar`]
/// otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    scalar_blocks(state, blocks);
}

/// [`compress_scalar`] over each 64-byte block of `blocks`.
fn scalar_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress_scalar(state, block.try_into().expect("64-byte chunk"));
    }
}

/// The FIPS 180-4 compression function, one block: the reference every
/// other path must equal.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-NI kernel.  Its one `unsafe` block is the call into the
/// `#[target_feature]` function, made only after runtime detection; the
/// kernel itself uses only safe intrinsics.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use super::K;

    /// Whether this CPU reports the SHA extensions and the SSE levels the
    /// kernel also uses.  Probed on first use, cached for the process.
    pub(super) fn detected() -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Compresses each 64-byte block of `blocks` into `state` and returns
    /// true, or returns false with `state` untouched when the CPU lacks the
    /// SHA extensions.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `kernel` is compiled for sha, sse2, ssse3 and sse4.1, and
        // `detected()` has just confirmed with `is_x86_feature_detected!`
        // that this CPU has all four.
        unsafe { kernel(state, blocks) };
        true
    }

    /// The standard round sequence: four rounds per `sha256rnds2` pair, the
    /// message schedule four words at a time by `sha256msg1`/`sha256msg2`.
    /// The state lives as ABEF and CDGH, the order `sha256rnds2` takes.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Byte-swaps each 32-bit lane: the message words are big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w: [__m128i; 4] = std::array::from_fn(|i| {
                let half =
                    |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
                _mm_shuffle_epi8(_mm_set_epi64x(half(16 * i + 8), half(16 * i)), be_words)
            });
            // Sixteen groups of four rounds, unrolled so that the schedule
            // stays in registers.  In group `i`, `w[0]` holds its four
            // schedule words, `w[1]` the partial sum of the next group's and
            // `w[3]` the previous group's.
            macro_rules! groups {
                ($($i:literal)*) => {$({
                    let k = &K[4 * $i..4 * $i + 4];
                    let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
                    let wk = _mm_add_epi32(w[0], k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    if (3..15).contains(&$i) {
                        let w7 = _mm_alignr_epi8(w[0], w[3], 4);
                        w[1] = _mm_sha256msg2_epu32(_mm_add_epi32(w[1], w7), w[0]);
                    }
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                    if (1..13).contains(&$i) {
                        w[3] = _mm_sha256msg1_epu32(w[3], w[0]);
                    }
                    w = [w[1], w[2], w[3], w[0]];
                })*};
            }
            groups!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|w| w as u32);
    }
}

/// One-shot digest of `data`.
pub fn digest(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest of `data` as a lowercase 64-character hex string — the
/// store's chunk-address format.
pub fn hex_digest(data: &[u8]) -> String {
    engine::snap::hex_string(&digest(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    type Blocks = fn(&mut [u32; 8], &[u8]);

    /// The block functions to hold against each other: the scalar
    /// reference, and the SHA-NI kernel when this CPU has it.
    fn kernels() -> Vec<(&'static str, Blocks)> {
        let mut out: Vec<(&'static str, Blocks)> = vec![("scalar", scalar_blocks)];
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            out.push(("sha-ni", |state, blocks| assert!(shani::compress_blocks(state, blocks))));
        }
        if out.len() == 1 {
            eprintln!("this CPU lacks the SHA extensions: the accelerated half is skipped");
        }
        out
    }

    fn digest_via(data: &[u8], compress: Blocks) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_with(data, compress);
        h.finish_with(compress)
    }

    const VECTORS: [(&[u8], &str); 3] = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];

    #[test]
    fn fips_180_4_test_vectors() {
        for (data, want) in VECTORS {
            assert_eq!(hex_digest(data), want);
            for (name, compress) in kernels() {
                assert_eq!(engine::snap::hex_string(&digest_via(data, compress)), want, "{name}");
            }
        }
    }

    #[test]
    fn incremental_updates_match_one_shot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let one_shot = digest(&data);
        // Feed in awkward split sizes to cross every buffering path.
        for split in [1usize, 7, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for chunk in data.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "split {split}");
            for (name, compress) in kernels() {
                let mut h = Sha256::new();
                for chunk in data.chunks(split) {
                    h.update_with(chunk, compress);
                }
                assert_eq!(h.finish_with(compress), one_shot, "{name}, split {split}");
            }
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(hex_digest(&data), want);
        for (name, compress) in kernels() {
            assert_eq!(engine::snap::hex_string(&digest_via(&data, compress)), want, "{name}");
        }
    }

    #[test]
    fn accelerated_kernel_equals_the_scalar_reference_at_every_length() {
        let kernels = kernels();
        let Some(&(_, fast)) = kernels.get(1) else { return };
        // Every length 0..=1024, then 64·k ± 1 up to 1 MiB: each one-, two-
        // and many-block padding case, on pseudo-random bytes.
        let mut lengths: Vec<usize> = (0..=1024).collect();
        lengths.extend((17..=1 << 14).flat_map(|k| [64 * k - 1, 64 * k + 1]));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..=1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let (mut reference, mut accelerated) = (Sha256::new(), Sha256::new());
        let mut fed = 0;
        for len in lengths {
            reference.update_with(&data[fed..len], scalar_blocks);
            accelerated.update_with(&data[fed..len], fast);
            fed = len;
            assert_eq!(
                accelerated.finish_with(fast),
                reference.finish_with(scalar_blocks),
                "length {len}"
            );
        }
        assert_eq!(fed, data.len());
    }
}
