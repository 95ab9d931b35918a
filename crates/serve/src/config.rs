//! Server configuration: the daemon's settings, which `mspec serve`
//! fills from its flags.

use mspec_lang::vm::VmOpt;

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
    /// Root of the persistent residual cache (`--cache-dir`). `None`
    /// disables the disk tier.
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
