//! The process-wide worker count.
//!
//! One setting sizes every parallel loop in the workspace: the row-slab
//! split of [`gemm_nt_micro`](crate::ops::gemm_nt_micro) and the NCHW
//! write of [`conv2d_im2col`](crate::ops::conv2d_im2col) here, and the
//! sweep pool of `sm_core::parallel`, which re-exports these functions.
//! The count resolves in priority order:
//!
//! 1. an explicit override, applied via [`set_threads`] (the binaries'
//!    `--threads <n>` flag lands here);
//! 2. the `SM_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by [`threads`]. `None` or
/// `Some(0)` clears the override.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count parallel work uses: the [`set_threads`] override if
/// set, else `SM_THREADS` if parseable and non-zero, else the machine's
/// available parallelism (1 when even that is unknown).
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `SM_THREADS` as a positive worker count, when set and well-formed.
fn env_threads() -> Option<usize> {
    std::env::var("SM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Runs `f(i, chunk)` for every `(i, chunk)` of
/// `out.chunks_mut(chunk_len).enumerate()`, one scoped thread per chunk, or
/// inline when there is only one chunk.
pub(crate) fn for_each_chunk<T: Send>(
    out: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if out.len() <= chunk_len {
        f(0, out);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            scope.spawn(move || f(i, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_resolution_is_sane() {
        // Whatever the environment, the resolved count is positive.
        assert!(threads() >= 1);
    }
}
