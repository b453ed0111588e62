//! zkPHIRE: the programmable SumCheck accelerator and full-system
//! performance model — the primary contribution of the paper.
//!
//! The crate models the hardware at the same altitude as the paper's own
//! methodology (§V): HLS-derived pipeline constants + analytical
//! bandwidth/cycle models, driven by the *same* composite-polynomial IR
//! the functional prover executes.
//!
//! * [`profile`] — hardware-facing polynomial profiles;
//! * [`sched`] — the Fig. 2 graph-decomposition scheduler;
//! * [`sumcheck_unit`] — the programmable SumCheck unit cycle model (§III);
//! * [`msm_unit`], [`forest`], [`permquot`], [`mle_combine`] — the other
//!   zkPHIRE modules (§IV-B);
//! * [`system`] — full-chip area/power (Table V) and peak on-chip port
//!   bandwidth (§IV-B6);
//! * [`protocol`] — the five-step HyperPlonk schedule with Masked
//!   ZeroCheck (§IV-A);
//! * [`costdb`] — memoized protocol-cost queries (the service-time
//!   oracle behind the `zkphire-fleet` discrete-event simulator);
//! * [`workloads`] — the Tables VI/VII workload suite.
//!
//! # Examples
//!
//! ```
//! use zkphire_core::protocol::{simulate_protocol, Gate};
//! use zkphire_core::system::ZkphireConfig;
//!
//! let cfg = ZkphireConfig::exemplar();
//! let report = simulate_protocol(&cfg, Gate::Jellyfish, 20, true);
//! assert!(report.total_ms > 0.0);
//! println!("2^20 Jellyfish gates: {:.3} ms", report.total_ms);
//! ```

pub mod costdb;
pub mod forest;
pub mod memory;
pub mod mle_combine;
pub mod msm_unit;
pub mod permquot;
pub mod profile;
pub mod protocol;
pub mod sched;
pub mod sumcheck_unit;
pub mod system;
pub mod tech;
pub mod workloads;

pub use costdb::CostModel;
pub use memory::MemoryConfig;
pub use profile::PolyProfile;
pub use sumcheck_unit::{simulate_sumcheck, SumcheckPlan, SumcheckReport, SumcheckUnitConfig};
pub use system::{AreaBreakdown, PowerBreakdown, ZkphireConfig};
pub use tech::PrimeMode;
