//! Shared helpers for the `tables` binary: wall-clock measurement and
//! thread-pool pinning — plus one experiment module per table and figure
//! of the paper (see [`experiments`]).

pub mod experiments;

use std::time::{Duration, Instant};

/// Runs `f` once and returns its wall-clock time with the result.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// Runs `f` inside a rayon pool of exactly `threads` threads — the harness's
/// analogue of the paper's `T = 16` pinning.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build thread pool")
        .install(f)
}

/// Median of several timed runs of `f` (the measurement loop behind every
/// timing row the table harness prints).
pub fn median_time<R>(samples: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(samples >= 1);
    let mut times: Vec<Duration> = (0..samples).map(|_| time_once(&mut f).0).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (d, r) = time_once(|| 41 + 1);
        assert_eq!(r, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn with_threads_pins_pool_size() {
        let seen = with_threads(3, rayon::current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut i = 0;
        let d = median_time(5, || {
            i += 1;
            std::thread::sleep(Duration::from_micros(10));
        });
        assert_eq!(i, 5);
        assert!(d >= Duration::from_micros(5));
    }
}
