//! Cross-crate integration tests for the zkPHIRE workspace.
//!
//! The suites live in `tests/`: gate-library coverage (every Table I row
//! through the functional prover), model/functional consistency (shared
//! op-count oracle, scheduler invariants), full-system model invariants
//! and end-to-end protocol attacks.

/// FNV-1a over `bytes`: the hash the golden files and the proof-bytes
/// pins store.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
