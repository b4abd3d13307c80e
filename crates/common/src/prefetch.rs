//! Software prefetch: the one place the workspace asks the CPU to start a
//! cache miss it will pay for later.
//!
//! A batch of independent lookups whose keys are known up front (an
//! admission footprint) stalls on one miss at a time when each lookup
//! takes its miss on first touch. Prefetching every
//! target first and touching them afterwards overlaps those misses — the
//! AMAC / coroutine-interleaving remedy of Kocberber et al. (VLDB 2015) and
//! Psaropoulos et al. (VLDB 2017).

/// Cache-line size the prefetch loop steps by.
const LINE: usize = 64;

/// Hints the CPU to pull every cache line of `[start, start + len)` into
/// the cache. A hint only: nothing is read, so any address — dangling,
/// null, unmapped — is fine, and on targets without a prefetch intrinsic
/// this is a no-op.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch(start: *const u8, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let end = start.wrapping_add(len);
        // From the line that holds `start`, so a range that straddles a
        // line boundary gets both lines.
        let mut line = start.wrapping_sub(start.addr() % LINE);
        while line < end {
            // SAFETY: `prefetch` instructions never fault and have no
            // architectural effect, whatever the address (Intel SDM,
            // PREFETCHh); the pointer is never dereferenced.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.cast()) };
            line = line.wrapping_add(LINE);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (start, len);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_address_is_a_harmless_hint() {
        let data = [7u8; 300];
        prefetch(data.as_ptr(), data.len());
        prefetch(std::ptr::null(), 4096);
        prefetch(usize::MAX as *const u8, 64);
        prefetch(data.as_ptr(), 0);
        assert_eq!(data[299], 7);
    }
}
