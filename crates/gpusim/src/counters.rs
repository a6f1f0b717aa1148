//! Operation counters charged to a launch.
//!
//! The counters separate "useful" floating-point work (what GFLOPS figures
//! are computed from) from integer bookkeeping and memory traffic (what the
//! timing model charges for separately). They are analytic counts per
//! iteration, scaled by each solve's iteration count, not counted inside
//! the `symtensor` hot loops, so the library kernels stay clean.

/// Operation counts for one thread (or aggregated over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Floating-point additions/subtractions.
    pub fadd: u64,
    /// Floating-point multiplications.
    pub fmul: u64,
    /// Fused multiply-adds (count as 2 useful flops each).
    pub ffma: u64,
    /// Floating-point divisions.
    pub fdiv: u64,
    /// Square roots.
    pub fsqrt: u64,
    /// Integer/address operations (index updates, loop bookkeeping).
    pub int_ops: u64,
    /// Words read from block-shared memory.
    pub shared_loads: u64,
    /// Words written to block-shared memory.
    pub shared_stores: u64,
    /// Words read from device (global) memory.
    pub global_loads: u64,
    /// Words written to device (global) memory.
    pub global_stores: u64,
}

impl OpCounters {
    /// Useful floating-point operations (FMA counted as two).
    pub fn useful_flops(&self) -> u64 {
        self.fadd + self.fmul + 2 * self.ffma + self.fdiv + self.fsqrt
    }

    /// All issued arithmetic instructions (FMA counted once, since it is
    /// one instruction), which is what the issue-rate model charges for.
    pub fn arithmetic_instructions(&self) -> u64 {
        self.fadd + self.fmul + self.ffma + self.fdiv + self.fsqrt + self.int_ops
    }

    /// All shared-memory accesses.
    pub fn shared_accesses(&self) -> u64 {
        self.shared_loads + self.shared_stores
    }

    /// All global-memory words moved.
    pub fn global_words(&self) -> u64 {
        self.global_loads + self.global_stores
    }

    /// Every count multiplied by `k`: the counters of `k` identical
    /// executions.
    pub fn scaled(&self, k: u64) -> OpCounters {
        OpCounters {
            fadd: self.fadd * k,
            fmul: self.fmul * k,
            ffma: self.ffma * k,
            fdiv: self.fdiv * k,
            fsqrt: self.fsqrt * k,
            int_ops: self.int_ops * k,
            shared_loads: self.shared_loads * k,
            shared_stores: self.shared_stores * k,
            global_loads: self.global_loads * k,
            global_stores: self.global_stores * k,
        }
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &OpCounters) {
        self.fadd += other.fadd;
        self.fmul += other.fmul;
        self.ffma += other.ffma;
        self.fdiv += other.fdiv;
        self.fsqrt += other.fsqrt;
        self.int_ops += other.int_ops;
        self.shared_loads += other.shared_loads;
        self.shared_stores += other.shared_stores;
        self.global_loads += other.global_loads;
        self.global_stores += other.global_stores;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn useful_flops_counts_fma_twice() {
        let c = OpCounters {
            fadd: 3,
            fmul: 5,
            ffma: 7,
            fdiv: 1,
            fsqrt: 1,
            ..Default::default()
        };
        assert_eq!(c.useful_flops(), 3 + 5 + 14 + 1 + 1);
        assert_eq!(c.arithmetic_instructions(), 3 + 5 + 7 + 1 + 1);
    }

    #[test]
    fn scaled_multiplies_every_field() {
        let c = OpCounters {
            fadd: 3,
            ffma: 2,
            global_stores: 4,
            ..Default::default()
        };
        let mut twice = c;
        twice.merge(&c);
        assert_eq!(c.scaled(2), twice);
        assert_eq!(c.scaled(0), OpCounters::default());
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = OpCounters {
            fadd: 1,
            global_loads: 10,
            ..Default::default()
        };
        let b = OpCounters {
            fadd: 2,
            shared_stores: 4,
            global_stores: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.fadd, 3);
        assert_eq!(a.shared_accesses(), 4);
        assert_eq!(a.global_words(), 15);
    }

    #[test]
    fn default_is_zero() {
        let c = OpCounters::default();
        assert_eq!(c.useful_flops(), 0);
        assert_eq!(c.arithmetic_instructions(), 0);
    }
}
