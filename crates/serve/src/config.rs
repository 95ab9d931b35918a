//! Server configuration: the tuning knobs, their flag/env spellings and
//! the structured errors produced when a knob carries a bad value.
//!
//! Every error names the *knob the user actually turned* — the
//! `--flag` or the `MSPEC_*` environment variable — never a bare
//! "invalid value".

use mspec_lang::vm::VmOpt;
use std::fmt;

/// One tunable server knob. Each knob has a command-line flag and an
/// environment-variable fallback; the flag wins when both are set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKnob {
    /// TCP port to listen on (`0` is *not* an error for this knob only
    /// via the OS convention — but we require explicitness, so 0 means
    /// "OS-assigned" and is accepted).
    Port,
    /// Maximum simultaneously connected clients.
    MaxClients,
    /// Bound on the request queue; a full queue sheds load.
    QueueDepth,
    /// Default/maximum per-request wall-clock deadline, milliseconds.
    DeadlineMs,
    /// Per-connection step-fuel account for admission control.
    ClientFuel,
    /// Worker threads executing requests.
    Workers,
    /// Entry cap on each resident cache (programs, artefact sets, memo,
    /// compiled residuals); oldest entries are evicted past it.
    MemoCap,
    /// Byte budget for the persistent disk cache: at startup the server
    /// prunes `.resid` files oldest-first until the cache fits.
    CacheGcBytes,
}

impl ServeKnob {
    /// The command-line flag spelling.
    pub fn flag(self) -> &'static str {
        match self {
            ServeKnob::Port => "--port",
            ServeKnob::MaxClients => "--max-clients",
            ServeKnob::QueueDepth => "--queue-depth",
            ServeKnob::DeadlineMs => "--deadline-ms",
            ServeKnob::ClientFuel => "--client-fuel",
            ServeKnob::Workers => "--threads",
            ServeKnob::MemoCap => "--memo-cap",
            ServeKnob::CacheGcBytes => "--cache-gc-bytes",
        }
    }

    /// The environment-variable spelling.
    pub fn env(self) -> &'static str {
        match self {
            ServeKnob::Port => "MSPEC_SERVE_PORT",
            ServeKnob::MaxClients => "MSPEC_MAX_CLIENTS",
            ServeKnob::QueueDepth => "MSPEC_QUEUE_DEPTH",
            ServeKnob::DeadlineMs => "MSPEC_DEADLINE_MS",
            ServeKnob::ClientFuel => "MSPEC_CLIENT_FUEL",
            ServeKnob::Workers => "MSPEC_THREADS",
            ServeKnob::MemoCap => "MSPEC_MEMO_CAP",
            ServeKnob::CacheGcBytes => "MSPEC_CACHE_GC_BYTES",
        }
    }

    /// Whether `0` is a meaningful setting for this knob. Only the port
    /// admits it (OS-assigned port, which the tests rely on).
    pub fn zero_ok(self) -> bool {
        matches!(self, ServeKnob::Port)
    }
}

/// Where a knob's value came from, so errors blame the right spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobOrigin {
    /// The command-line flag.
    Flag,
    /// The environment variable.
    Env,
}

/// The knob's user-facing name under the given origin.
fn knob_name(knob: ServeKnob, origin: KnobOrigin) -> &'static str {
    match origin {
        KnobOrigin::Flag => knob.flag(),
        KnobOrigin::Env => knob.env(),
    }
}

/// A structured configuration error: the user turned a knob to a value
/// the server cannot run with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `0` was requested for a knob that needs at least 1.
    Zero {
        /// Which knob.
        knob: ServeKnob,
        /// Which spelling carried the zero.
        origin: KnobOrigin,
    },
    /// The value did not parse as an unsigned integer (or overflowed
    /// the knob's width).
    Invalid {
        /// Which knob.
        knob: ServeKnob,
        /// Which spelling carried the value.
        origin: KnobOrigin,
        /// The offending text.
        value: String,
    },
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::Zero { knob, origin } => {
                write!(f, "{} requires at least 1 (got 0)", knob_name(*knob, *origin))
            }
            ServeConfigError::Invalid { knob, origin, value } => {
                write!(
                    f,
                    "{} expects a positive integer, got `{value}`",
                    knob_name(*knob, *origin)
                )
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Parses one knob value (flag or env text) as a `u64`.
///
/// # Errors
///
/// [`ServeConfigError::Zero`] for `0` on knobs where zero is
/// meaningless, [`ServeConfigError::Invalid`] for non-numeric text.
pub fn parse_knob(
    knob: ServeKnob,
    origin: KnobOrigin,
    value: &str,
) -> Result<u64, ServeConfigError> {
    let trimmed = value.trim();
    let n: u64 = trimmed
        .parse()
        .map_err(|_| ServeConfigError::Invalid { knob, origin, value: trimmed.to_string() })?;
    if n == 0 && !knob.zero_ok() {
        return Err(ServeConfigError::Zero { knob, origin });
    }
    Ok(n)
}

/// The resolved server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port (0 = OS-assigned). Ignored in stdio mode.
    pub port: u16,
    /// Maximum simultaneously connected clients; further connections
    /// are answered with one `overloaded` reply and closed.
    pub max_clients: usize,
    /// Request-queue bound; a full queue sheds (`overloaded`).
    pub queue_depth: usize,
    /// Maximum (and default) per-request wall-clock deadline in
    /// milliseconds; request-supplied deadlines are clamped to this.
    pub deadline_ms: u64,
    /// Per-connection step-fuel account; each request reserves its fuel
    /// budget from this account at admission and refunds what it did
    /// not use. A request that cannot fit is refused (`budget-denied`).
    pub client_fuel: u64,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Honour `fault` requests (chaos testing). Off by default.
    pub chaos: bool,
    /// Write a JSONL telemetry trace to this path on shutdown.
    pub trace_path: Option<String>,
    /// Bytecode tier for `run` requests: [`VmOpt::Fuse`] sends every
    /// residual through the superinstruction pass before it enters the
    /// compiled-program cache (`--vm-opt fuse`).
    pub vm_opt: VmOpt,
    /// Entry cap per resident cache; oldest-inserted entries are
    /// evicted past it (`serve.cache.evictions` counts them).
    pub memo_cap: usize,
    /// Root of the persistent residual cache (`--cache-dir`, or the
    /// `MSPEC_CACHE_DIR` environment variable). `None` disables the
    /// disk tier.
    pub cache_dir: Option<String>,
    /// Startup garbage-collection byte budget for the disk cache
    /// (`--cache-gc-bytes`); `None` skips the startup sweep.
    pub cache_gc_bytes: Option<u64>,
    /// Directory crash dumps are written to (`--crash-dir`); `None`
    /// means the daemon's working directory.
    pub crash_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            max_clients: 32,
            queue_depth: 64,
            deadline_ms: 30_000,
            client_fuel: 2_000_000_000,
            workers: 2,
            chaos: false,
            trace_path: None,
            vm_opt: VmOpt::None,
            memo_cap: 1024,
            cache_dir: None,
            cache_gc_bytes: None,
            crash_dir: None,
        }
    }
}

impl ServeConfig {
    /// Applies one flag value to the config.
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] naming the flag when the value is bad.
    pub fn set_flag(&mut self, knob: ServeKnob, value: &str) -> Result<(), ServeConfigError> {
        self.set(knob, KnobOrigin::Flag, value)
    }

    /// Reads every knob's environment variable, for knobs not already
    /// pinned by a flag (`pinned` lists those).
    ///
    /// # Errors
    ///
    /// [`ServeConfigError`] naming the environment variable.
    pub fn apply_env(&mut self, pinned: &[ServeKnob]) -> Result<(), ServeConfigError> {
        for knob in [
            ServeKnob::Port,
            ServeKnob::MaxClients,
            ServeKnob::QueueDepth,
            ServeKnob::DeadlineMs,
            ServeKnob::ClientFuel,
            ServeKnob::Workers,
            ServeKnob::MemoCap,
            ServeKnob::CacheGcBytes,
        ] {
            if pinned.contains(&knob) {
                continue;
            }
            if let Ok(v) = std::env::var(knob.env()) {
                self.set(knob, KnobOrigin::Env, &v)?;
            }
        }
        Ok(())
    }

    fn set(
        &mut self,
        knob: ServeKnob,
        origin: KnobOrigin,
        value: &str,
    ) -> Result<(), ServeConfigError> {
        let n = parse_knob(knob, origin, value)?;
        match knob {
            ServeKnob::Port => {
                self.port = u16::try_from(n).map_err(|_| ServeConfigError::Invalid {
                    knob,
                    origin,
                    value: value.trim().to_string(),
                })?;
            }
            ServeKnob::MaxClients => self.max_clients = n as usize,
            ServeKnob::QueueDepth => self.queue_depth = n as usize,
            ServeKnob::DeadlineMs => self.deadline_ms = n,
            ServeKnob::ClientFuel => self.client_fuel = n,
            ServeKnob::Workers => self.workers = n as usize,
            ServeKnob::MemoCap => self.memo_cap = n as usize,
            ServeKnob::CacheGcBytes => self.cache_gc_bytes = Some(n),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn errors_name_the_flag() {
        let mut cfg = ServeConfig::default();
        let err = cfg.set_flag(ServeKnob::QueueDepth, "0").unwrap_err();
        assert_eq!(err.to_string(), "--queue-depth requires at least 1 (got 0)");
        let err = cfg.set_flag(ServeKnob::DeadlineMs, "soon").unwrap_err();
        assert_eq!(err.to_string(), "--deadline-ms expects a positive integer, got `soon`");
        let err = cfg.set_flag(ServeKnob::MaxClients, "-3").unwrap_err();
        assert_eq!(err.to_string(), "--max-clients expects a positive integer, got `-3`");
    }

    #[test]
    fn errors_name_the_env_var() {
        let mut cfg = ServeConfig::default();
        let err = cfg.set(ServeKnob::ClientFuel, KnobOrigin::Env, "lots").unwrap_err();
        assert_eq!(err.to_string(), "MSPEC_CLIENT_FUEL expects a positive integer, got `lots`");
        let err = cfg.set(ServeKnob::MaxClients, KnobOrigin::Env, "0").unwrap_err();
        assert_eq!(err.to_string(), "MSPEC_MAX_CLIENTS requires at least 1 (got 0)");
    }

    #[test]
    fn port_zero_means_os_assigned() {
        let mut cfg = ServeConfig::default();
        cfg.set_flag(ServeKnob::Port, "0").unwrap();
        assert_eq!(cfg.port, 0);
        let err = cfg.set_flag(ServeKnob::Port, "70000").unwrap_err();
        assert_eq!(err.to_string(), "--port expects a positive integer, got `70000`");
    }

    #[test]
    fn memo_cap_knob_applies_and_rejects_zero() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.memo_cap, 1024);
        cfg.set_flag(ServeKnob::MemoCap, "8").unwrap();
        assert_eq!(cfg.memo_cap, 8);
        let err = cfg.set_flag(ServeKnob::MemoCap, "0").unwrap_err();
        assert_eq!(err.to_string(), "--memo-cap requires at least 1 (got 0)");
        let err = cfg.set(ServeKnob::MemoCap, KnobOrigin::Env, "many").unwrap_err();
        assert_eq!(err.to_string(), "MSPEC_MEMO_CAP expects a positive integer, got `many`");
    }

    #[test]
    fn workers_knob_applies_and_rejects_zero() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.workers, 2);
        cfg.set_flag(ServeKnob::Workers, "4").unwrap();
        assert_eq!(cfg.workers, 4);
        let err = cfg.set_flag(ServeKnob::Workers, "0").unwrap_err();
        assert_eq!(err.to_string(), "--threads requires at least 1 (got 0)");
        let err = cfg.set(ServeKnob::Workers, KnobOrigin::Env, "many").unwrap_err();
        assert_eq!(err.to_string(), "MSPEC_THREADS expects a positive integer, got `many`");
    }

    #[test]
    fn cache_gc_bytes_knob_applies() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.cache_gc_bytes, None);
        cfg.set_flag(ServeKnob::CacheGcBytes, "65536").unwrap();
        assert_eq!(cfg.cache_gc_bytes, Some(65_536));
        let err = cfg.set_flag(ServeKnob::CacheGcBytes, "0").unwrap_err();
        assert_eq!(err.to_string(), "--cache-gc-bytes requires at least 1 (got 0)");
    }

    #[test]
    fn flags_apply_and_values_land() {
        let mut cfg = ServeConfig::default();
        cfg.set_flag(ServeKnob::QueueDepth, "7").unwrap();
        cfg.set_flag(ServeKnob::DeadlineMs, " 250 ").unwrap();
        cfg.set_flag(ServeKnob::ClientFuel, "123456").unwrap();
        cfg.set_flag(ServeKnob::MaxClients, "3").unwrap();
        assert_eq!(cfg.queue_depth, 7);
        assert_eq!(cfg.deadline_ms, 250);
        assert_eq!(cfg.client_fuel, 123_456);
        assert_eq!(cfg.max_clients, 3);
    }
}
