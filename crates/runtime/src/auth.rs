//! Pre-shared-key authentication for the wire protocol: a hand-rolled
//! SHA-256 / HMAC-SHA-256 challenge–response, used by the worker
//! daemon and the serve acceptor to reject peers that do not hold the
//! fleet's key (see `PROTOCOL.md` for the handshake transcript).
//!
//! The build environment has no registry access (no `sha2`/`hmac`
//! crates), so the primitives are implemented here from the FIPS 180-4
//! / RFC 2104 specifications and checked against their published test
//! vectors in this module's tests.
//!
//! ## Security model
//!
//! The goal is *authentication on a private-ish network*: a peer must
//! prove possession of the key before any job bytes are interpreted,
//! and a captured handshake must not be replayable (both sides
//! contribute a fresh random nonce to the MAC input). The transport is
//! **not** encrypted — job programs and results still cross the wire
//! in the clear — so this is a fleet-membership gate, not a substitute
//! for TLS (see ROADMAP).

use std::fmt;
use std::path::Path;

/// Length of the nonces each side contributes to the handshake MACs.
pub const NONCE_LEN: usize = 32;

/// Domain-separation prefix for the client→server proof.
pub(crate) const CLIENT_PROOF_CONTEXT: &[u8] = b"EQWP-auth-client-v1";

/// Domain-separation prefix for the server→client proof. Distinct from
/// the client context so a server cannot satisfy a challenge by
/// echoing the client's own proof back at it.
pub(crate) const SERVER_PROOF_CONTEXT: &[u8] = b"EQWP-auth-server-v1";

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// ---------------------------------------------------------------------

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

/// Incremental SHA-256, enough API for HMAC and nonce hashing.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length so far, in bytes.
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hash state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.process_block(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.process_block(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Pads, finalizes and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length goes in directly (not via update, which would count
        // it into `total`).
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.process_block(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
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
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// HMAC-SHA-256 (RFC 2104) of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finish();
    let mut outer = Sha256::new();
    let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finish()
}

/// Constant-time byte-slice comparison, so a MAC check cannot leak a
/// matching prefix length through timing.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

// ---------------------------------------------------------------------
// Pre-shared key
// ---------------------------------------------------------------------

/// A fleet pre-shared key. Wraps raw bytes; the `Debug` impl redacts
/// them so a key can never leak through diagnostics formatting.
#[derive(Clone, PartialEq, Eq)]
pub struct Psk(Vec<u8>);

impl Psk {
    /// A key from raw bytes.
    ///
    /// # Errors
    ///
    /// Rejects an empty key: an empty HMAC key would authenticate
    /// everyone who knows the protocol.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Result<Psk, String> {
        let bytes = bytes.into();
        if bytes.is_empty() {
            return Err("pre-shared key must not be empty".to_owned());
        }
        Ok(Psk(bytes))
    }

    /// Loads a key from a file (`--psk-file`). A single trailing
    /// newline is stripped — `echo secret > key` must mean the same
    /// key as `printf secret > key` — but interior whitespace is kept
    /// verbatim.
    ///
    /// # Errors
    ///
    /// I/O failures and empty keys, rendered as strings for CLI use.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Psk, String> {
        let path = path.as_ref();
        let mut bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read PSK file {}: {e}", path.display()))?;
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
        }
        Psk::new(bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The proof a client sends for (`server_nonce`, `client_nonce`).
    pub fn client_proof(&self, server_nonce: &[u8], client_nonce: &[u8]) -> [u8; 32] {
        self.proof(CLIENT_PROOF_CONTEXT, server_nonce, client_nonce)
    }

    /// The proof a server returns for the same nonce pair, under a
    /// distinct domain-separation context (an attacker cannot reflect
    /// the client's proof back as the server's).
    pub fn server_proof(&self, server_nonce: &[u8], client_nonce: &[u8]) -> [u8; 32] {
        self.proof(SERVER_PROOF_CONTEXT, server_nonce, client_nonce)
    }

    fn proof(&self, context: &[u8], server_nonce: &[u8], client_nonce: &[u8]) -> [u8; 32] {
        let mut message =
            Vec::with_capacity(context.len() + server_nonce.len() + client_nonce.len());
        message.extend_from_slice(context);
        message.extend_from_slice(server_nonce);
        message.extend_from_slice(client_nonce);
        hmac_sha256(&self.0, &message)
    }
}

impl fmt::Debug for Psk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Psk(<{} bytes redacted>)", self.0.len())
    }
}

/// A fresh random handshake nonce. Reads the OS entropy pool where one
/// exists; the fallback mixes the clock, a process-wide counter and
/// ASLR-randomized addresses through SHA-256 — weaker entropy, but the
/// nonce only needs uniqueness per connection for replay rejection,
/// not secrecy.
pub fn fresh_nonce() -> [u8; NONCE_LEN] {
    #[cfg(unix)]
    {
        use std::io::Read as _;
        if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
            let mut nonce = [0u8; NONCE_LEN];
            if f.read_exact(&mut nonce).is_ok() {
                return nonce;
            }
        }
    }
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut h = Sha256::new();
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    h.update(&now.as_nanos().to_le_bytes());
    h.update(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    h.update(&(&COUNTER as *const _ as usize).to_le_bytes());
    h.update(&(fresh_nonce as *const () as usize).to_le_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_fips_vectors() {
        // FIPS 180-4 / NIST example vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a's, exercising many block rounds and the
        // buffered-update path.
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex(&h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_padding_boundaries() {
        // Messages straddling the 55/56-byte padding boundary (where
        // the length no longer fits the final block) must not corrupt.
        for len in 50..70 {
            let msg = vec![0x61u8; len];
            let once = sha256(&msg);
            let mut split = Sha256::new();
            split.update(&msg[..len / 2]);
            split.update(&msg[len / 2..]);
            assert_eq!(once, split.finish(), "len {len}");
        }
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: "Jefe".
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 6: key longer than one block (hashed first).
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn proofs_are_domain_separated_and_nonce_bound() {
        let psk = Psk::new(b"fleet-secret".to_vec()).unwrap();
        let sn = [1u8; NONCE_LEN];
        let cn = [2u8; NONCE_LEN];
        assert_ne!(
            psk.client_proof(&sn, &cn),
            psk.server_proof(&sn, &cn),
            "client and server proofs must differ for the same nonces"
        );
        assert_ne!(
            psk.client_proof(&sn, &cn),
            psk.client_proof(&[3u8; NONCE_LEN], &cn),
            "a different server nonce must change the proof (replay rejection)"
        );
        let other = Psk::new(b"wrong".to_vec()).unwrap();
        assert_ne!(psk.client_proof(&sn, &cn), other.client_proof(&sn, &cn));
    }

    #[test]
    fn ct_eq_compares() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
    }

    #[test]
    fn nonces_are_unique() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
    }

    #[test]
    fn psk_file_strips_one_trailing_newline() {
        let dir = std::env::temp_dir().join(format!("eqasm-psk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("key");
        std::fs::write(&path, b"secret\n").unwrap();
        let a = Psk::from_file(&path).unwrap();
        std::fs::write(&path, b"secret").unwrap();
        let b = Psk::from_file(&path).unwrap();
        assert_eq!(a, b);
        std::fs::write(&path, b"\n").unwrap();
        assert!(Psk::from_file(&path).is_err(), "empty key rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
