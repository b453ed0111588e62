//! Design-space exploration (paper §VI-A1 objective, §VI-B1 Pareto
//! methodology, Table III knobs).
//!
//! Two explorations mirror the paper's:
//!
//! * [`sumcheck_dse`] — standalone programmable-SumCheck designs under an
//!   area cap, selected by the λ-objective
//!   `min (1-λ)·geomean(slowdown) + λ·(1-mean(utilization))` over a
//!   polynomial training set (Fig. 6/7);
//! * [`full_system_dse`] — the Table III cross-product over full zkPHIRE
//!   designs, yielding per-bandwidth and global Pareto frontiers over
//!   (runtime, area) for a `2^µ`-gate workload (Fig. 10 / Table IV).
//!
//! A third exploration goes beyond the paper, to deployment altitude:
//!
//! * [`fleet_objective`] — sizes a *fleet* of chips against a p99
//!   latency SLO and traffic level via the `zkphire-fleet`
//!   discrete-event simulator, reporting the area/power cost roll-up
//!   ([`size_fleet`]), and buys redundancy by sizing for the SLO with
//!   `k` chips down ([`size_fleet_n_minus_k`]).

pub mod fleet_objective;
pub mod objective;
pub mod pareto;
pub mod space;

pub use fleet_objective::{size_fleet, size_fleet_n_minus_k, FleetCost, FleetSizing, FleetSlo};
pub use objective::{select_design, sumcheck_dse, DesignScore, SumcheckDseResult};
pub use pareto::{pareto_front, ParetoPoint};
pub use space::{full_system_dse, DseSpace, FullSystemPoint};
