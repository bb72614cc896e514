//! Software prefetch for the memory-bound routing hot path.
//!
//! PR 2 made the distance arithmetic ~2× faster, which moved the search
//! bottleneck to the two dependent cache misses every expansion pays —
//! the neighbor list, then each neighbor's vector — before any arithmetic
//! starts. These helpers let the routers overlap those misses with useful
//! work by requesting lines a few iterations ahead.
//!
//! Prefetching is a pure hardware hint: it never changes what is read or
//! computed, so results, NDC, and hops are bit-identical with it on or
//! off. It is therefore toggled at *runtime* (a relaxed atomic read per
//! search call, not per line) so one binary can A/B it — the
//! `layout.prefetch_qps_ratio` row of `benchmark/run.sh --trace 1`
//! measures both states.
//!
//! On non-x86_64 targets the hint compiles to nothing.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide prefetch switch. Default on: the hint is free when the
/// data is already cached and hides DRAM/L3 latency when it is not.
static PREFETCH: AtomicBool = AtomicBool::new(true);

/// Enables or disables all software prefetch hints (process-wide).
pub fn set_prefetch_enabled(on: bool) {
    PREFETCH.store(on, Ordering::Relaxed);
}

/// Current state of the prefetch switch. Hot paths read this once per
/// search call and branch on a local.
#[inline]
pub fn prefetch_enabled() -> bool {
    PREFETCH.load(Ordering::Relaxed)
}

/// Requests the cache line containing `p` (T0 hint: into all levels).
/// Safe to call with any address — prefetch never faults.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // SAFETY: PREFETCHT0 is a hint; it performs no access and cannot
        // fault even on invalid addresses.
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Prefetches the first two cache lines of a `len`-element span starting
/// at `p`. Its callers are walks that may never score the row they
/// request (a neighbor list, a candidate's vector ahead of a pruning
/// check), so only the head is asked for; the hardware stride prefetcher
/// follows once those lines are touched. A row that is scored whole as
/// soon as it arrives wants [`prefetch_lines`].
#[inline(always)]
pub fn prefetch_span<T>(p: *const T, len: usize) {
    prefetch_read(p);
    if len * std::mem::size_of::<T>() > 64 {
        // `wrapping_add`: an address past the span is still only a hint.
        prefetch_read((p as *const u8).wrapping_add(64));
    }
}

/// Requests every cache line of `v`, for a row that is about to be read
/// whole (RNN-Descent scores each candidate against its full vector).
#[inline]
pub fn prefetch_lines(v: &[f32]) {
    // 16 floats are one 64-byte line; the last element closes a row whose
    // start is not line-aligned.
    for line in v.chunks(16) {
        prefetch_read(line.as_ptr());
    }
    if let Some(last) = v.last() {
        prefetch_read(last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_roundtrips() {
        let initial = prefetch_enabled();
        set_prefetch_enabled(false);
        assert!(!prefetch_enabled());
        set_prefetch_enabled(true);
        assert!(prefetch_enabled());
        set_prefetch_enabled(initial);
    }

    #[test]
    fn prefetch_accepts_any_address() {
        let v = [1.0f32; 32];
        prefetch_read(v.as_ptr());
        prefetch_span(v.as_ptr(), v.len());
        // A span claimed past its allocation is still only a hint.
        prefetch_span(v[31..].as_ptr(), 17);
        // Dangling/null addresses are fine too — prefetch never faults.
        prefetch_read(std::ptr::null::<f32>());
    }

    #[test]
    fn prefetch_lines_reads_nothing_and_takes_any_row() {
        let v: Vec<f32> = (0..300).map(|i| i as f32).collect();
        for len in [0, 1, 15, 16, 17, 256, 299] {
            // Unaligned starts too: the row's last line is still asked for.
            prefetch_lines(&v[1..=len]);
            prefetch_lines(&v[..len]);
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f32));
    }
}
