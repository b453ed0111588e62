//! Environment-tunable service knobs with `available_parallelism`-aware
//! defaults.
//!
//! Every knob reads `ZKPHIRE_SERVE_*` once at [`ServeOpts::from_env`].
//! Unset vars fall back to the default; a var that is *set but does not
//! parse* is a startup error ([`ServeError::InvalidEnv`]) naming the
//! variable — a typo'd `ZKPHIRE_SERVE_WORKERS=eight` must not silently
//! run with the baked-in worker count.
//!
//! | env var                         | meaning                           | default                    |
//! |---------------------------------|-----------------------------------|----------------------------|
//! | `ZKPHIRE_SERVE_WORKERS`         | prover worker threads             | `max(1, cores / 4)`        |
//! | `ZKPHIRE_SERVE_PROVER_THREADS`  | SumCheck threads per worker       | `max(1, cores / workers)`  |
//! | `ZKPHIRE_SERVE_MAX_BATCH`       | max requests per dispatch batch   | `8`                        |
//! | `ZKPHIRE_SERVE_QUEUE_CAP`       | shared admission queue capacity   | unbounded                  |
//! | `ZKPHIRE_SERVE_ADDR`            | TCP front-end bind address        | `127.0.0.1:0`              |
//! | `ZKPHIRE_SERVE_MAX_CONNS`       | hard concurrent-connection cap    | `32`                       |
//! | `ZKPHIRE_SERVE_READ_TIMEOUT_MS` | mid-frame read deadline (ms)      | `2000`                     |
//! | `ZKPHIRE_SERVE_IDLE_TIMEOUT_MS` | between-frame idle reaper (ms)    | `30000`                    |

use std::net::SocketAddr;
use std::str::FromStr;

use crate::error::ServeError;

/// Execution-shape knobs for [`crate::service::ProvingService`]. These
/// tune *where the work runs*, not *what the service computes* — proofs
/// and admission decisions are identical for every setting; only
/// wall-clock latency moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOpts {
    /// Concurrent prover workers (the live analogue of the simulated
    /// chip pool size).
    pub workers: usize,
    /// Threads each worker's HyperPlonk prover uses
    /// ([`zkphire_hyperplonk::ProverConfig::threads`]). `workers ×
    /// prover_threads` defaults to about the machine's core count so
    /// saturating the pool does not oversubscribe.
    pub prover_threads: usize,
    /// Maximum requests per dispatched batch (same meaning as
    /// [`zkphire_fleet::FleetConfig::max_batch`]).
    pub max_batch: usize,
    /// Shared admission queue capacity; `None` = unbounded, `Some(0)`
    /// rejects everything that would have to wait.
    pub queue_capacity: Option<usize>,
    /// Bind address for the TCP front-end ([`crate::net::NetServer`]).
    /// Port `0` asks the OS for an ephemeral port; the bound address
    /// is reported by [`crate::net::NetServer::local_addr`].
    pub addr: SocketAddr,
    /// Hard cap on concurrently served connections. A connection past
    /// the cap gets a `Busy` frame with a retry-after hint and an
    /// immediate close instead of a queue slot.
    pub max_conns: usize,
    /// How long a connection may sit mid-frame (bytes of a frame
    /// arrived, the rest has not) before the server answers with a
    /// `stalled` error and closes — the slow-loris deadline.
    pub read_timeout_ms: u64,
    /// How long a connection may sit idle between frames before the
    /// idle-reaper closes it.
    pub idle_timeout_ms: u64,
}

/// Cores the OS reports, floored at 1 (the query can fail in minimal
/// containers).
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `Ok(Some(parsed))` when the var is set and parses, `Ok(None)` when
/// unset, and [`ServeError::InvalidEnv`] naming the variable when set
/// but malformed. Split from the env read so the failure path is
/// testable without mutating process env in a threaded test runner.
fn parse_env<T: FromStr>(var: &'static str, raw: Option<&str>) -> Result<Option<T>, ServeError> {
    match raw {
        None => Ok(None),
        Some(v) => v
            .trim()
            .parse()
            .map(Some)
            .map_err(|_| ServeError::InvalidEnv {
                var,
                value: v.to_string(),
            }),
    }
}

/// Reads and parses one `ZKPHIRE_SERVE_*` var from the process env.
fn env<T: FromStr>(var: &'static str) -> Result<Option<T>, ServeError> {
    let raw = std::env::var(var).ok();
    parse_env(var, raw.as_deref())
}

/// Default loopback bind with an OS-assigned port. Built from parts
/// rather than parsed so the default path has no fallible step.
fn default_addr() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

impl Default for ServeOpts {
    fn default() -> Self {
        let workers = (cores() / 4).max(1);
        Self {
            workers,
            prover_threads: (cores() / workers).max(1),
            max_batch: 8,
            queue_capacity: None,
            addr: default_addr(),
            max_conns: 32,
            read_timeout_ms: 2000,
            idle_timeout_ms: 30_000,
        }
    }
}

impl ServeOpts {
    /// Defaults overridden by any `ZKPHIRE_SERVE_*` env vars set. A set
    /// but malformed var fails with [`ServeError::InvalidEnv`] naming
    /// it, rather than silently degrading to the default.
    pub fn from_env() -> Result<Self, ServeError> {
        let mut o = Self::default();
        if let Some(w) = env::<usize>("ZKPHIRE_SERVE_WORKERS")? {
            o.workers = w.max(1);
            // Re-derive the per-worker thread budget for the explicit
            // worker count before its own override is consulted.
            o.prover_threads = (cores() / o.workers).max(1);
        }
        if let Some(t) = env::<usize>("ZKPHIRE_SERVE_PROVER_THREADS")? {
            o.prover_threads = t.max(1);
        }
        if let Some(b) = env::<usize>("ZKPHIRE_SERVE_MAX_BATCH")? {
            o.max_batch = b.max(1);
        }
        if let Some(c) = env::<usize>("ZKPHIRE_SERVE_QUEUE_CAP")? {
            o.queue_capacity = Some(c);
        }
        if let Some(a) = env::<SocketAddr>("ZKPHIRE_SERVE_ADDR")? {
            o.addr = a;
        }
        if let Some(c) = env::<usize>("ZKPHIRE_SERVE_MAX_CONNS")? {
            o.max_conns = c.max(1);
        }
        if let Some(ms) = env::<u64>("ZKPHIRE_SERVE_READ_TIMEOUT_MS")? {
            o.read_timeout_ms = ms.max(1);
        }
        if let Some(ms) = env::<u64>("ZKPHIRE_SERVE_IDLE_TIMEOUT_MS")? {
            o.idle_timeout_ms = ms.max(1);
        }
        Ok(o)
    }

    /// Sets the worker count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets per-worker prover threads (builder style).
    pub fn with_prover_threads(mut self, threads: usize) -> Self {
        self.prover_threads = threads.max(1);
        self
    }

    /// Sets the batch cap (builder style).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the shared queue capacity (builder style).
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    /// Sets the hard connection cap (builder style).
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Sets the mid-frame read deadline in ms (builder style).
    pub fn with_read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = ms.max(1);
        self
    }

    /// Sets the idle-reaper deadline in ms (builder style).
    pub fn with_idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_track_available_parallelism() {
        let o = ServeOpts::default();
        assert!(o.workers >= 1);
        assert!(o.prover_threads >= 1);
        // The product stays near the core count: no oversubscription by
        // more than the rounding slack of the two divisions.
        assert!(o.workers * o.prover_threads <= cores().max(4) * 2);
        assert_eq!(o.max_batch, 8);
        assert_eq!(o.queue_capacity, None);
        assert_eq!(o.addr, default_addr());
        assert_eq!(o.max_conns, 32);
        assert_eq!(o.read_timeout_ms, 2000);
        assert_eq!(o.idle_timeout_ms, 30_000);
    }

    #[test]
    fn builders_clamp_to_one() {
        let o = ServeOpts::default()
            .with_workers(0)
            .with_prover_threads(0)
            .with_max_batch(0);
        assert_eq!(o.workers, 1);
        assert_eq!(o.prover_threads, 1);
        assert_eq!(o.max_batch, 1);
    }

    #[test]
    fn unset_vars_fall_back_to_defaults() {
        assert_eq!(parse_env::<usize>("ZKPHIRE_SERVE_WORKERS", None), Ok(None));
        // from_env against the real (clean) env parses to the defaults.
        if std::env::var_os("ZKPHIRE_SERVE_WORKERS").is_none() {
            assert!(ServeOpts::from_env().is_ok());
        }
    }

    #[test]
    fn set_vars_parse_with_whitespace_tolerance() {
        assert_eq!(
            parse_env::<usize>("ZKPHIRE_SERVE_MAX_BATCH", Some(" 16 ")),
            Ok(Some(16))
        );
        assert_eq!(
            parse_env::<usize>("ZKPHIRE_SERVE_QUEUE_CAP", Some("0")),
            Ok(Some(0))
        );
    }

    #[test]
    fn net_builders_clamp_and_set() {
        let o = ServeOpts::default()
            .with_max_conns(0)
            .with_read_timeout_ms(0)
            .with_idle_timeout_ms(0);
        assert_eq!(o.max_conns, 1);
        assert_eq!(o.read_timeout_ms, 1);
        assert_eq!(o.idle_timeout_ms, 1);
    }

    #[test]
    fn net_vars_parse_with_whitespace_tolerance() {
        assert_eq!(
            parse_env::<SocketAddr>("ZKPHIRE_SERVE_ADDR", Some(" 127.0.0.1:7000 ")),
            Ok(Some(SocketAddr::from(([127, 0, 0, 1], 7000))))
        );
        assert_eq!(
            parse_env::<usize>("ZKPHIRE_SERVE_MAX_CONNS", Some("4")),
            Ok(Some(4))
        );
        assert_eq!(
            parse_env::<u64>("ZKPHIRE_SERVE_READ_TIMEOUT_MS", Some(" 250 ")),
            Ok(Some(250))
        );
        assert_eq!(
            parse_env::<u64>("ZKPHIRE_SERVE_IDLE_TIMEOUT_MS", Some("1000")),
            Ok(Some(1000))
        );
        assert_eq!(
            parse_env::<SocketAddr>("ZKPHIRE_SERVE_ADDR", None),
            Ok(None)
        );
        assert_eq!(
            parse_env::<u64>("ZKPHIRE_SERVE_READ_TIMEOUT_MS", None),
            Ok(None)
        );
    }

    #[test]
    fn malformed_net_vars_fail_naming_the_variable() {
        let addr_err = parse_env::<SocketAddr>("ZKPHIRE_SERVE_ADDR", Some("localhost-no-port"))
            .expect_err("hostless addr must fail");
        assert_eq!(
            addr_err,
            ServeError::InvalidEnv {
                var: "ZKPHIRE_SERVE_ADDR",
                value: "localhost-no-port".to_string()
            }
        );
        for (var, bad) in [
            ("ZKPHIRE_SERVE_MAX_CONNS", "many"),
            ("ZKPHIRE_SERVE_READ_TIMEOUT_MS", "1.5s"),
            ("ZKPHIRE_SERVE_IDLE_TIMEOUT_MS", "-3"),
        ] {
            let err = if var == "ZKPHIRE_SERVE_MAX_CONNS" {
                parse_env::<usize>(var, Some(bad)).expect_err("malformed must fail")
            } else {
                parse_env::<u64>(var, Some(bad)).expect_err("malformed must fail")
            };
            let msg = err.to_string();
            assert!(msg.contains(var), "message names the variable: {msg}");
            assert!(
                msg.contains(&format!("{bad:?}")),
                "message quotes the value: {msg}"
            );
        }
    }

    #[test]
    fn malformed_vars_fail_naming_the_variable() {
        for (var, bad) in [
            ("ZKPHIRE_SERVE_WORKERS", "eight"),
            ("ZKPHIRE_SERVE_PROVER_THREADS", "2.5"),
            ("ZKPHIRE_SERVE_MAX_BATCH", "-1"),
            ("ZKPHIRE_SERVE_QUEUE_CAP", ""),
        ] {
            let err = parse_env::<usize>(var, Some(bad)).expect_err("malformed must fail");
            assert_eq!(
                err,
                ServeError::InvalidEnv {
                    var,
                    value: bad.to_string()
                }
            );
            let msg = err.to_string();
            assert!(msg.contains(var), "message names the variable: {msg}");
            assert!(
                msg.contains(&format!("{bad:?}")),
                "message quotes the value: {msg}"
            );
        }
    }
}
