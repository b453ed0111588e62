//! `zkphire-serve`: an in-process asynchronous proving service — the
//! live counterpart of the `zkphire-fleet` discrete-event simulator.
//!
//! The fleet DES predicts what a proving fleet *would* do from the
//! paper's cycle model; this crate *runs* one, with real HyperPlonk
//! provers standing in for the simulated chips:
//!
//! ```text
//! submit() ──► admission ──► dispatcher ──► worker pool ──► ServeReport
//!              (Admission-    (Lifecycle:    (prove +        (same
//!               Ledger:        queue, retry   verify per      summarizer
//!               tenant caps,   backoff,       request, real   as the DES)
//!               capacity)      brown-out)     wall clock)
//! ```
//!
//! The policy is not shared by imitation: admission, queueing, retry
//! backoff, re-admission, brown-out shedding and batch selection are
//! calls into the simulator's own rules module
//! ([`zkphire_fleet::lifecycle`]: [`zkphire_fleet::AdmissionLedger`],
//! [`zkphire_fleet::Lifecycle`]), configured by the same
//! [`zkphire_fleet::PolicyKind`], [`zkphire_fleet::RetryPolicy`] and
//! [`zkphire_fleet::BrownOutConfig`] values, and both sides reduce the same
//! [`zkphire_fleet::RequestRecord`]s through the same summarizer. Replay
//! one arrival trace through both ([`loadgen::replay`] live,
//! [`zkphire_fleet::simulate`] modeled) and the per-tenant latency
//! quantiles are directly comparable; `repro serve` automates exactly
//! that check. See `docs/SERVE.md` for the architecture and the
//! sim-vs-wall methodology.
//!
//! The run is observable in wall time as well: with
//! `zkphire-telemetry`'s `record` feature on and the service started
//! inside a [`zkphire_telemetry::Session`], every lifecycle transition
//! (admission, dispatch, prove, verify, retry parking, shedding,
//! terminal outcome) records a [`zkphire_telemetry::WallEvent`] into
//! that session; rebuild its finished profile into a
//! [`zkphire_telemetry::WallTimeline`] and [`reconcile_wall`] asserts
//! it agrees with the [`ServeReport`] exactly — outcome counts as
//! integers, worker busy integrals bitwise. Terminal outcomes can also
//! stream live through [`ServeConfig::with_outcome_stream`], and
//! [`ServeReport::dispatch_wakeup_us`] /
//! [`LoadGenReport::arrival_error_us`] decompose the sim-vs-wall
//! latency gap into its named contributors. See
//! `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```no_run
//! use zkphire_core::protocol::Gate;
//! use zkphire_fleet::RequestClass;
//! use zkphire_serve::{ProvingService, ServeConfig, ServeOpts};
//!
//! let class = RequestClass::new(Gate::Vanilla, 6);
//! let cfg = ServeConfig::new(vec![class])
//!     .with_opts(ServeOpts::default().with_workers(2));
//! let service = ProvingService::start(cfg).expect("startup");
//! let id = service.submit(class, 0).expect("admitted");
//! let report = service.shutdown().expect("clean drain");
//! assert_eq!(report.summary.completed, 1);
//! assert_eq!(report.records[0].id, id);
//! ```

//!
//! The service also has a network face: [`net::NetServer`] fronts a
//! [`ProvingService`] with a length-prefixed TCP protocol ([`codec`]) —
//! bounded handler pool, hard connection cap, per-connection read
//! deadlines and an idle reaper, admission rejections mapped to
//! distinct wire status frames with live retry-after hints, and a
//! drain-on-shutdown that still satisfies [`reconcile_wall`]. The
//! protocol and its failure-mode matrix are documented in
//! `docs/SERVE.md`; [`loadgen::NetClient`] and the deterministic
//! [`loadgen::chaos`] client exercise it.

pub mod codec;
pub mod error;
pub mod loadgen;
pub mod net;
pub mod opts;
pub mod recon;
pub mod service;

pub use codec::{Frame, FrameError};
pub use error::ServeError;
pub use loadgen::{chaos, replay, replay_net, ChaosMode, LoadGenReport, NetClient, SubmitResult};
pub use net::{NetReport, NetServer, NetStats};
pub use opts::ServeOpts;
pub use recon::reconcile_wall;
pub use service::{ProvingService, ServeConfig, ServeReport};
