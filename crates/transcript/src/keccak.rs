//! Keccak-f[1600] permutation and the SHA3-256 / Keccak-256 sponges.
//!
//! The paper's accelerator instantiates an OpenCores SHA3 IP block to derive
//! SumCheck round challenges in hardware (§II-C3, §V); this module is the
//! functional equivalent used by the Fiat–Shamir transcript.

const ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rotation offsets for the rho step, indexed by lane `x + 5 y`.
const RHO: [u32; 25] = [
    0, 1, 62, 28, 27, //
    36, 44, 6, 55, 20, //
    3, 10, 43, 25, 39, //
    41, 45, 15, 21, 8, //
    18, 2, 61, 56, 14,
];

/// Applies the 24-round Keccak-f[1600] permutation in place.
pub fn keccak_f(state: &mut [u64; 25]) {
    for &rc in &ROUND_CONSTANTS {
        // Theta.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // Rho + pi.
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = state[x + 5 * y].rotate_left(RHO[x + 5 * y]);
            }
        }
        // Chi.
        for x in 0..5 {
            for y in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // Iota.
        state[0] ^= rc;
    }
}

const RATE: usize = 136; // 1600/8 - 2*256/8 bytes for 256-bit digests

fn sponge_256(data: &[u8], domain: u8) -> [u8; 32] {
    let mut state = [0u64; 25];
    let mut offset = 0;

    let absorb_block = |state: &mut [u64; 25], block: &[u8]| {
        debug_assert_eq!(block.len(), RATE);
        for (lane, chunk) in state.iter_mut().zip(block.chunks_exact(8)) {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            *lane ^= u64::from_le_bytes(word);
        }
        keccak_f(state);
    };

    while data.len() - offset >= RATE {
        absorb_block(&mut state, &data[offset..offset + RATE]);
        offset += RATE;
    }

    // Final (padded) block: multi-rate padding `domain .. 0x80`.
    let mut last = [0u8; RATE];
    let tail = &data[offset..];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] ^= domain;
    last[RATE - 1] ^= 0x80;
    absorb_block(&mut state, &last);

    let mut out = [0u8; 32];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&state[i].to_le_bytes());
    }
    out
}

/// Computes the SHA3-256 digest (FIPS 202, domain byte `0x06`).
///
/// # Examples
///
/// ```
/// let digest = zkphire_transcript::sha3_256(b"");
/// assert_eq!(digest[0], 0xa7);
/// ```
pub fn sha3_256(data: &[u8]) -> [u8; 32] {
    sponge_256(data, 0x06)
}

/// Computes the legacy Keccak-256 digest (pre-standard padding, `0x01`).
pub fn keccak_256(data: &[u8]) -> [u8; 32] {
    sponge_256(data, 0x01)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha3_256_empty() {
        assert_eq!(
            hex(&sha3_256(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn sha3_256_abc() {
        assert_eq!(
            hex(&sha3_256(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn sha3_256_long_input_crosses_rate_boundary() {
        // 200 bytes of 0xa3, the FIPS 202 extended test input.
        let data = [0xa3u8; 200];
        assert_eq!(
            hex(&sha3_256(&data)),
            "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787"
        );
    }

    #[test]
    fn keccak_256_empty() {
        assert_eq!(
            hex(&keccak_256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn exact_rate_block_uses_extra_padding_block() {
        // 136-byte input forces an all-padding final block; just check
        // determinism and that it differs from the truncated input.
        let a = sha3_256(&[7u8; RATE]);
        let b = sha3_256(&[7u8; RATE - 1]);
        assert_ne!(a, b);
        assert_eq!(a, sha3_256(&[7u8; RATE]));
    }
}
