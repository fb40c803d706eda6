#![forbid(unsafe_code)]
//! The workspace sync facade (`bsync` = BGPStream sync).
//!
//! Every crate in the workspace imports its concurrency primitives —
//! locks, condvars, channels, atomics, thread spawning, and the
//! [`time::Clock`] used for deadlines and backoff — from here instead
//! of `std::sync`/`parking_lot`/`crossbeam` directly (`crates/xcheck`
//! enforces this). In a normal build the facade re-exports the real
//! primitives with zero overhead; under `--features loom-lite` the
//! same import surface resolves to [`loom-lite`]'s instrumented types,
//! so every lock/channel/atomic operation becomes a decision point for
//! the schedule-exploring model checker.
//!
//! [`loom-lite`]: https://github.com/tokio-rs/loom
//!
//! ```text
//!   mq / broker / analytics / corsaro / core
//!                    │  use bsync::{Mutex, channel, atomic, thread}
//!                    ▼
//!     ┌──────────── bsync ────────────┐
//!     │ default          --features loom-lite
//!     │   │                     │
//!     ▼   ▼                     ▼
//!  parking_lot, std       vendor/loom-lite
//!  (real primitives)      (exploring scheduler)
//! ```
//!
//! Model tests live in downstream crates as `tests/loom_*.rs`, gated
//! `#![cfg(feature = "loom-lite")]`, and drive the checker through
//! `bsync::model` (the re-exported loom-lite API; present only under
//! the feature, so no intra-doc link).

#[cfg(feature = "loom-lite")]
pub use loom_lite::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
#[cfg(not(feature = "loom-lite"))]
pub use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

/// A cell written once and read by every thread after. The same
/// `std::sync::OnceLock` in both builds: loom-lite does not model it,
/// so its initialisation is not a decision point of the model checker.
/// Keep it for values computed from immutable inputs, where which
/// thread initialises the cell cannot change what any thread reads.
pub use std::sync::OnceLock;

/// The model-checker API, available only under `--features loom-lite`
/// so model tests can `use bsync::model::{explore, Builder}`.
#[cfg(feature = "loom-lite")]
pub mod model {
    pub use loom_lite::{explore, model, Builder, Failure, Report};
}

pub mod atomic {
    //! Atomics behind the facade. In a normal build these are exactly
    //! `std::sync::atomic`'s types, so swapping imports is free.
    #[cfg(feature = "loom-lite")]
    pub use loom_lite::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(feature = "loom-lite"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

pub mod channel;
pub mod thread;
pub mod time;
