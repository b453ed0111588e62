//! Fiat–Shamir transcript for the zkPHIRE protocol stack.
//!
//! zkPHIRE's SumCheck rounds are made non-interactive by hashing the round
//! polynomial evaluations with SHA3 to derive the verifier challenge
//! (paper §II-C3 and Fig. 1: "hash → challenge"). [`Transcript`] is the
//! functional realization used by both prover and verifier so their
//! challenge streams agree.
//!
//! # Examples
//!
//! ```
//! use zkphire_transcript::Transcript;
//! use zkphire_field::Fr;
//!
//! let mut prover = Transcript::new(b"example");
//! prover.append_fr(b"claim", &Fr::from_u64(42));
//! let c1 = prover.challenge_fr(b"r");
//!
//! let mut verifier = Transcript::new(b"example");
//! verifier.append_fr(b"claim", &Fr::from_u64(42));
//! assert_eq!(c1, verifier.challenge_fr(b"r"));
//! ```

mod keccak;

pub use keccak::{keccak_256, keccak_f, sha3_256};

use zkphire_field::Fr;

/// A deterministic, domain-separated Fiat–Shamir transcript over SHA3-256.
///
/// Every absorbed message is framed as `len(label) || label || len(data) ||
/// data`, so distinct message sequences can never collide byte-wise.
/// Challenges chain the running state, making each challenge depend on the
/// entire history.
#[derive(Clone, Debug)]
pub struct Transcript {
    state: [u8; 32],
    pending: Vec<u8>,
}

impl Transcript {
    /// Creates a transcript bound to a protocol domain label.
    pub fn new(domain: &[u8]) -> Self {
        let mut t = Self {
            state: [0u8; 32],
            pending: Vec::new(),
        };
        t.append_bytes(b"domain", domain);
        t
    }

    /// Absorbs a labeled byte string.
    pub fn append_bytes(&mut self, label: &[u8], data: &[u8]) {
        self.pending
            .extend_from_slice(&(label.len() as u64).to_le_bytes());
        self.pending.extend_from_slice(label);
        self.pending
            .extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.pending.extend_from_slice(data);
    }

    /// Absorbs a labeled scalar-field element.
    pub fn append_fr(&mut self, label: &[u8], value: &Fr) {
        self.append_bytes(label, &value.to_le_bytes());
    }

    /// Absorbs a labeled slice of scalar-field elements.
    pub fn append_frs(&mut self, label: &[u8], values: &[Fr]) {
        self.pending
            .extend_from_slice(&(label.len() as u64).to_le_bytes());
        self.pending.extend_from_slice(label);
        self.pending
            .extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            self.pending.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Absorbs a labeled unsigned integer (e.g. a problem size).
    pub fn append_u64(&mut self, label: &[u8], value: u64) {
        self.append_bytes(label, &value.to_le_bytes());
    }

    fn squeeze(&mut self, label: &[u8]) -> [u8; 32] {
        let mut input = Vec::with_capacity(32 + self.pending.len() + label.len() + 8);
        input.extend_from_slice(&self.state);
        input.extend_from_slice(&self.pending);
        input.extend_from_slice(&(label.len() as u64).to_le_bytes());
        input.extend_from_slice(label);
        let digest = sha3_256(&input);
        self.state = digest;
        self.pending.clear();
        digest
    }

    /// Derives a labeled challenge scalar from everything absorbed so far.
    pub fn challenge_fr(&mut self, label: &[u8]) -> Fr {
        let digest = self.squeeze(label);
        Fr::from_le_bytes_mod_order(&digest)
    }

    /// Derives `n` labeled challenge scalars.
    pub fn challenge_frs(&mut self, label: &[u8], n: usize) -> Vec<Fr> {
        (0..n)
            .map(|i| {
                let mut l = label.to_vec();
                l.extend_from_slice(&(i as u64).to_le_bytes());
                self.challenge_fr(&l)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut t = Transcript::new(b"test");
            t.append_u64(b"n", 16);
            t.append_fr(b"x", &Fr::from_u64(99));
            (t.challenge_fr(b"a"), t.challenge_fr(b"b"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn challenges_chain_history() {
        let mut t1 = Transcript::new(b"test");
        let mut t2 = Transcript::new(b"test");
        let a1 = t1.challenge_fr(b"a");
        let a2 = t2.challenge_fr(b"a");
        assert_eq!(a1, a2);
        t1.append_u64(b"m", 1);
        t2.append_u64(b"m", 2);
        assert_ne!(t1.challenge_fr(b"b"), t2.challenge_fr(b"b"));
    }

    #[test]
    fn labels_are_domain_separating() {
        let mut t1 = Transcript::new(b"test");
        let mut t2 = Transcript::new(b"test");
        t1.append_bytes(b"ab", b"c");
        t2.append_bytes(b"a", b"bc");
        assert_ne!(t1.challenge_fr(b"x"), t2.challenge_fr(b"x"));
    }

    #[test]
    fn distinct_domains_distinct_challenges() {
        let mut t1 = Transcript::new(b"proto-1");
        let mut t2 = Transcript::new(b"proto-2");
        assert_ne!(t1.challenge_fr(b"x"), t2.challenge_fr(b"x"));
    }

    #[test]
    fn challenge_frs_are_distinct() {
        let mut t = Transcript::new(b"test");
        let cs = t.challenge_frs(b"batch", 8);
        for i in 0..cs.len() {
            for j in (i + 1)..cs.len() {
                assert_ne!(cs[i], cs[j]);
            }
        }
    }

    #[test]
    fn append_frs_framing_differs_from_split_appends() {
        let mut t1 = Transcript::new(b"test");
        let mut t2 = Transcript::new(b"test");
        t1.append_frs(b"v", &[Fr::from_u64(1), Fr::from_u64(2)]);
        t2.append_frs(b"v", &[Fr::from_u64(1)]);
        t2.append_frs(b"v", &[Fr::from_u64(2)]);
        assert_ne!(t1.challenge_fr(b"x"), t2.challenge_fr(b"x"));
    }
}
