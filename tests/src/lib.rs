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

/// FNV-1a over every tier front and then the global front of a
/// full-system DSE: each front's length, then each point's runtime and
/// area bits and its `Debug` configuration. Any change in which points
/// reach a front, their order or their figures changes it.
pub fn dse_fronts_hash(dse: &zkphire_dse::space::FullSystemDse) -> u64 {
    let mut bytes = Vec::new();
    for front in dse.tier_fronts.iter().chain([&dse.global_front]) {
        bytes.extend_from_slice(&(front.len() as u64).to_le_bytes());
        for p in front {
            bytes.extend_from_slice(&p.runtime_ms.to_bits().to_le_bytes());
            bytes.extend_from_slice(&p.area_mm2.to_bits().to_le_bytes());
            bytes.extend_from_slice(format!("{:?}", p.config).as_bytes());
        }
    }
    fnv1a(&bytes)
}
