//! Thread spawning behind the facade. Under `--features loom-lite`,
//! threads spawned here become model threads of the active scheduler
//! (and plain named std threads when no model is running); in a normal
//! build they are always named `std::thread`s.

#[cfg(feature = "loom-lite")]
pub use loom_lite::thread::{spawn, spawn_named, JoinHandle};

#[cfg(not(feature = "loom-lite"))]
mod real {
    pub struct JoinHandle<T>(std::thread::JoinHandle<T>);

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            self.0.join()
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        JoinHandle(std::thread::spawn(f))
    }

    pub fn spawn_named<F, T>(name: &str, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        JoinHandle(
            std::thread::Builder::new()
                .name(name.to_owned())
                .spawn(f)
                // xcheck:allow(unwrap) — spawn failure (OS resource exhaustion) has no recovery path
                .expect("spawn thread"),
        )
    }
}

#[cfg(not(feature = "loom-lite"))]
pub use real::{spawn, spawn_named, JoinHandle};
