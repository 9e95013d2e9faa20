//! SHA-256 hashing and the [`Hash`](struct@Hash) digest type.
//!
//! The workspace deliberately avoids external cryptography crates; this is a
//! from-scratch FIPS 180-4 SHA-256 implementation used for transaction
//! hashes, Merkle roots, block identifiers and IBC packet commitments.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 256-bit digest.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::hash::{sha256, Hash};
///
/// let digest: Hash = sha256(b"abc");
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// The all-zero digest, used as a sentinel for "no hash".
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Returns the raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from(NIBBLES[usize::from(b >> 4)]));
            s.push(char::from(NIBBLES[usize::from(b & 0xf)]));
        }
        s
    }

    /// A short 8-character prefix of the hex rendering, for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// `true` if this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// The first eight bytes of the digest interpreted as a big-endian `u64`,
    /// handy for deterministic pseudo-random decisions derived from hashes.
    pub fn to_u64(&self) -> u64 {
        let b = &self.0;
        u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({})", self.short())
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash {
    fn from(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// `update` streams: it compresses whole 64-byte blocks straight from its
/// input and buffers only a trailing partial block, so hashing costs time
/// linear in the input however it is split across calls.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::hash::{sha256, Sha256};
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The pending partial block; only `buffer[..buffered]` is meaningful.
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            let (head, rest) = data.split_at(take);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(head);
            self.buffered += take;
            data = rest;
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Hash {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, making
        // one final block, or two when fewer than 9 bytes are left in this one.
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let tail_len = if self.buffered < 56 { 64 } else { 128 };
        tail[tail_len - 8..tail_len].copy_from_slice(&self.length_bits.to_be_bytes());
        for block in tail[..tail_len].as_chunks::<64>().0 {
            compress(&mut self.state, block);
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        Hash(out)
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Convenience helper hashing `data` in one call.
pub fn sha256(data: &[u8]) -> Hash {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Hashes several byte fields, each prefixed by its length as a big-endian
/// `u64` so that no two field lists share an encoding.
pub fn hash_fields(fields: &[&[u8]]) -> Hash {
    let mut hasher = FieldHasher::new();
    for field in fields {
        hasher.field(field);
    }
    hasher.finalize()
}

/// [`hash_fields`] as a stream: each field goes into one [`Sha256`] as soon
/// as it is known, so a caller that derives its fields in a loop needs no
/// list of them. A field may be given in parts, which are hashed as their
/// concatenation.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::hash::{hash_fields, FieldHasher};
///
/// let mut hasher = FieldHasher::new();
/// hasher.field(b"alice");
/// hasher.field_parts(&[b"uatom", &7u64.to_be_bytes()]);
/// let mut joined = b"uatom".to_vec();
/// joined.extend_from_slice(&7u64.to_be_bytes());
/// assert_eq!(hasher.finalize(), hash_fields(&[b"alice", &joined]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FieldHasher(Sha256);

impl FieldHasher {
    /// Creates a hasher with no fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one field.
    pub fn field(&mut self, field: &[u8]) {
        self.field_parts(&[field]);
    }

    /// Appends one field whose bytes are the concatenation of `parts`.
    pub fn field_parts(&mut self, parts: &[&[u8]]) {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        self.0.update(&(len as u64).to_be_bytes());
        for part in parts {
            self.0.update(part);
        }
    }

    /// The digest of the fields appended so far, equal to [`hash_fields`] of
    /// the same fields.
    pub fn finalize(self) -> Hash {
        self.0.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// Every chunk size from 1 to 130 bytes, so the partial-block top-up
    /// meets every buffer fill level and chunks both shorter and longer
    /// than a block.
    #[test]
    fn long_input_matches_incremental() {
        let data = patterned(1_000);
        let one_shot = sha256(&data);
        for size in 1..=130 {
            let mut h = Sha256::new();
            for chunk in data.chunks(size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {size}");
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hash_fields_is_not_ambiguous() {
        // Without length prefixes these two would collide.
        let a = hash_fields(&[b"ab", b"c"]);
        let b = hash_fields(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_type_helpers() {
        let h = sha256(b"abc");
        assert_eq!(h.short().len(), 8);
        assert!(!h.is_zero());
        assert!(Hash::ZERO.is_zero());
        assert_eq!(format!("{h}"), h.to_hex());
        assert_eq!(format!("{h:?}"), format!("Hash({})", h.short()));
        assert_eq!(h.to_u64(), u64::from_be_bytes(h.0[..8].try_into().unwrap()));
    }

    /// Inputs of `len` bytes with a fixed, position-dependent pattern.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    /// Reference digests, checked against an independent SHA-256
    /// implementation. The lengths straddle every padding boundary: the
    /// empty input, one byte, the last length that pads within one block
    /// (55), the first that needs a second padding block (56), exact blocks
    /// and their neighbours.
    #[test]
    fn digests_pinned_across_padding_boundaries() {
        let lengths = [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1_000];
        let digests = [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",
            "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",
            "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",
            "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",
            "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",
            "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0",
            "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe",
            "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656",
            "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356",
            "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179",
        ];
        for (len, hex) in lengths.into_iter().zip(digests) {
            assert_eq!(sha256(&patterned(len)).to_hex(), hex, "length {len}");
        }
    }

    #[test]
    fn empty_updates_change_nothing() {
        let mut h = Sha256::new();
        h.update(b"");
        h.update(b"ab");
        h.update(b"");
        h.update(b"c");
        assert_eq!(h.finalize(), sha256(b"abc"));
    }

    #[test]
    fn field_hashing_follows_its_definition_whole_or_in_parts() {
        let fields: Vec<Vec<u8>> = (0..9).map(|n| patterned(n * 23)).collect();
        let refs: Vec<&[u8]> = fields.iter().map(Vec::as_slice).collect();
        // Each field prefixed by its length as a big-endian u64, hashed as
        // one message.
        let mut framed = Vec::new();
        for field in &fields {
            framed.extend_from_slice(&(field.len() as u64).to_be_bytes());
            framed.extend_from_slice(field);
        }
        let expected = sha256(&framed);
        assert_eq!(hash_fields(&refs), expected);
        assert_eq!(hash_fields(&[]), sha256(b""));
        // Streamed with each field split in two parts, at every cut point.
        for cut in 0..=fields.iter().map(Vec::len).max().unwrap_or(0) {
            let mut hasher = FieldHasher::new();
            for field in &fields {
                let (head, tail) = field.split_at(cut.min(field.len()));
                hasher.field_parts(&[head, tail]);
            }
            assert_eq!(hasher.finalize(), expected, "cut {cut}");
        }
    }
}
