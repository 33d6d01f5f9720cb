//! The probe-kernel selector, the probe scratch and the prefetch shim.
//!
//! Both kernels are *host-side* choices: simulated observables (matches,
//! compares, bytes, virtual times) are byte-identical between them, because
//! the two-bit fingerprint filter only ever skips run scans whose
//! comparison count it can charge exactly, and the long-run match memo only
//! ever repeats a count the same run gave the same key (see
//! [`crate::JoinHashTable::probe_batch_with`]).
//! [`ProbeKernel::Scalar`] is the tuple-at-a-time reference the
//! differential tests compare against; [`ProbeKernel::Batched`] is the
//! production path, which tests a whole block's tags before it scans the
//! runs of the probes that got through, in batch order.

/// Issues a best-effort cache prefetch for the line holding `p`. A no-op on
/// architectures without a prefetch hint.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never dereferences the pointer and is
    // architecturally defined for any address, valid or not.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is the architectural prefetch hint; like its x86
    // counterpart it never faults and never dereferences. The stable-Rust
    // spelling is inline asm (`core::arch::aarch64::_prefetch` is unstable).
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{ptr}]",
            ptr = in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Which probe implementation a join node runs. Both produce byte-identical
/// simulated observables; they differ only in host wall-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeKernel {
    /// Tuple-at-a-time scan with no filter and no prefetch — the
    /// differential-test reference.
    Scalar,
    /// Bulk positions, then per block a branch-free tag filter over the
    /// block and a run scan or memo read per survivor, both prefetched
    /// (DESIGN §4e). The default.
    #[default]
    Batched,
}

impl ProbeKernel {
    /// Both kernels, reference first (differential test matrix).
    pub const ALL: [Self; 2] = [Self::Scalar, Self::Batched];

    /// Stable lowercase name (differential-test labels).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Batched => "batched",
        }
    }
}

impl std::fmt::Display for ProbeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Caller-owned scratch for the batched probe kernel, so steady-state
/// probing allocates nothing: the hashed positions of the current batch,
/// which the caller may read back instead of hashing the batch again.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Position of every tuple in the batch (pass-1 bulk hash output).
    pub(crate) positions: Vec<u32>,
}

impl ProbeScratch {
    /// Creates empty scratch (the buffer grows to batch size on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The positions computed for the most recent batch, in batch order.
    #[must_use]
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_labels_round_trip() {
        for k in ProbeKernel::ALL {
            assert_eq!(k.to_string(), k.label());
        }
        assert_ne!(ProbeKernel::Scalar.label(), ProbeKernel::Batched.label());
    }

    #[test]
    fn default_kernel_is_batched() {
        assert_eq!(ProbeKernel::default(), ProbeKernel::Batched);
    }
}
