//! Facts about the machine and build recorded with every result, the
//! process clocks the end-to-end metrics read, and the multiply-add peak
//! the kernel layer is compared against.

use std::hint::black_box;
use std::time::Instant;
use symtensor::Scalar;

/// Process CPU time (user + system, all threads, live or joined), seconds.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The machine and build this result was measured on.
pub struct HostFacts {
    pub cpu_model: String,
    pub logical_cores: usize,
    pub physical_cores: usize,
    pub l2: String,
    pub l3: String,
}

impl HostFacts {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let logical_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Distinct (physical id, core id) pairs; hypervisors that hide the
        // topology fall back to the logical count.
        let mut cores = std::collections::BTreeSet::new();
        let mut package = "";
        for l in cpuinfo.lines() {
            if let Some(v) = l.strip_prefix("physical id") {
                package = v;
            } else if let Some(v) = l.strip_prefix("core id") {
                cores.insert((package.to_string(), v.to_string()));
            }
        }
        let physical_cores = if cores.is_empty() {
            logical_cores
        } else {
            cores.len()
        };
        HostFacts {
            cpu_model,
            logical_cores,
            physical_cores,
            l2: cache_size(2),
            l3: cache_size(3),
        }
    }

    /// The facts plus the build's, as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\":{:?},\"logical_cores\":{},\"physical_cores\":{},\"l2\":{:?},\
             \"l3\":{:?},\"rustc\":{:?},\"profile\":{:?},\"commit\":{:?}}}",
            self.cpu_model,
            self.logical_cores,
            self.physical_cores,
            self.l2,
            self.l3,
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_PROFILE"),
            env!("PERFBENCH_COMMIT"),
        )
    }
}

/// Size of cpu0's unified or data cache at `level`, as sysfs reports it.
fn cache_size(level: u32) -> String {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        if read("level").ok().and_then(|l| l.parse::<u32>().ok()) == Some(level)
            && read("type").is_ok_and(|t| t != "Instruction")
        {
            if let Ok(size) = read("size") {
                return size;
            }
        }
    }
    "unknown".to_string()
}

/// Independent accumulator chains: enough to hide the multiply and add
/// latencies on two floating-point ports, few enough to stay in the
/// sixteen SSE registers with the two operands.
const CHAINS: usize = 10;

/// One `acc = acc * b + c` step on every chain, as scalar instructions.
/// A plain Rust loop would let the compiler pack the independent chains
/// into vector instructions, which is not the scalar peak.
#[cfg(target_arch = "x86_64")]
macro_rules! scalar_step {
    ($acc:expr, $b:expr, $c:expr, $mul:literal, $add:literal) => {
        for a in $acc.iter_mut() {
            // SAFETY: register-only arithmetic on the named operands; no
            // memory, stack or flags are touched.
            unsafe {
                std::arch::asm!(
                    concat!($mul, " {a}, {b}"),
                    concat!($add, " {a}, {c}"),
                    a = inout(xmm_reg) *a,
                    b = in(xmm_reg) $b,
                    c = in(xmm_reg) $c,
                    options(pure, nomem, nostack),
                );
            }
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
macro_rules! scalar_step {
    ($acc:expr, $b:expr, $c:expr, $mul:literal, $add:literal) => {
        for a in black_box(&mut $acc).iter_mut() {
            *a = *a * $b + $c;
        }
    };
}

/// Measured scalar multiply-add peak in `S` (f32 or f64), GFLOP/s:
/// `CHAINS` independent `acc = acc * b + c` chains, two flops per step. The
/// workspace builds without a fused-multiply-add target feature, so this is
/// the instruction mix the kernels compile to. Median of seven batches.
pub fn mul_add_peak_gflops<S: Scalar>() -> f64 {
    let single = std::mem::size_of::<S>() == 4;
    let steps = 400_000usize;
    let mut rates = Vec::new();
    for _ in 0..7 {
        let started = Instant::now();
        if single {
            let (b, c) = (black_box(0.999_999f32), black_box(1e-7f32));
            let mut acc = [0.5f32; CHAINS];
            for _ in 0..steps {
                scalar_step!(acc, b, c, "mulss", "addss");
            }
            black_box(acc);
        } else {
            let (b, c) = (black_box(0.999_999f64), black_box(1e-7f64));
            let mut acc = [0.5f64; CHAINS];
            for _ in 0..steps {
                scalar_step!(acc, b, c, "mulsd", "addsd");
            }
            black_box(acc);
        }
        let secs = started.elapsed().as_secs_f64();
        rates.push((2 * CHAINS * steps) as f64 / secs / 1e9);
    }
    crate::metrics::median(&mut rates)
}

/// A fixed loop of the benchmark's own code, timed between repetitions to
/// measure how fast the shared host is running. No change to the libraries
/// moves it. Each workload uses the loop whose instruction mix matches
/// where it spends its time, because the two mixes slow down by different
/// amounts when other work shares the physical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceLoop {
    /// Scalar arithmetic with small allocations, like the per-tensor
    /// solver path.
    Scalar,
    /// Eight-lane `f32` multiply-adds over a structure-of-arrays panel,
    /// like the lockstep lane kernels.
    Lanes,
}

impl ReferenceLoop {
    /// The loop's duration on the host this benchmark was written on (a
    /// 2-vCPU Intel Xeon VM at 2.1 GHz, unloaded): end-to-end times are
    /// reported as if every repetition ran at that speed.
    pub fn reference_seconds(self) -> f64 {
        match self {
            ReferenceLoop::Scalar => 0.020,
            ReferenceLoop::Lanes => 0.015,
        }
    }

    /// Run the loop once; returns its duration in seconds.
    pub fn run(self) -> f64 {
        let started = Instant::now();
        match self {
            ReferenceLoop::Scalar => {
                black_box(scalar_loop());
            }
            ReferenceLoop::Lanes => {
                black_box(lane_loop());
            }
        }
        started.elapsed().as_secs_f64()
    }
}

/// 120,000 steps of an SS-HOPM-like iteration on a fixed dense 3×3×3×3
/// tensor, with a Frobenius norm and two small allocations per step.
// The per-step vectors are heap-allocated on purpose: allocation is part of
// the mix the loop must share with the solver path.
#[allow(clippy::useless_vec)]
fn scalar_loop() -> Vec<f64> {
    let a: Vec<f64> = (0..81)
        .map(|i| ((i * 37 % 17) as f64 - 8.0) / 10.0)
        .collect();
    let mut x = vec![0.6f64, 0.0, 0.8];
    for _ in 0..120_000 {
        let mut y = vec![0.0f64; 3];
        for (i, yi) in y.iter_mut().enumerate() {
            for j in 0..3 {
                for k in 0..3 {
                    for l in 0..3 {
                        *yi += a[((i * 3 + j) * 3 + k) * 3 + l] * x[j] * x[k] * x[l];
                    }
                }
            }
        }
        let alpha = 3.0 * black_box(&a).iter().map(|v| v * v).sum::<f64>().sqrt();
        for (yi, xi) in y.iter_mut().zip(&x) {
            *yi += alpha * xi;
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        x = black_box(y.iter().map(|v| v / norm).collect());
    }
    x
}

/// 250,000 steps of `A·x⁴` over an eight-lane panel of order-4, dimension-3
/// tensors (15 index classes), each followed by a small normalized update of
/// every lane's vector.
fn lane_loop() -> [f32; 3 * LANES] {
    let soa: Vec<f32> = (0..15 * LANES)
        .map(|i| ((i * 37 % 17) as f32 - 8.0) / 10.0)
        .collect();
    let mut classes: Vec<[usize; 4]> = Vec::new();
    for a in 0..3 {
        for b in a..3 {
            for c in b..3 {
                for d in c..3 {
                    classes.push([a, b, c, d]);
                }
            }
        }
    }
    let mut xs = [0.5f32; 3 * LANES];
    for _ in 0..250_000 {
        let mut out = [0f32; LANES];
        for (u, class) in classes.iter().enumerate() {
            let mut xhat = [1f32; LANES];
            for &i in class {
                for (h, x) in xhat.iter_mut().zip(&xs[i * LANES..(i + 1) * LANES]) {
                    *h *= x;
                }
            }
            for ((o, a), h) in out.iter_mut().zip(&soa[u * LANES..]).zip(&xhat) {
                *o += a * h;
            }
        }
        for (w, o) in out.iter().enumerate() {
            let mut norm = 0f32;
            for i in 0..3 {
                xs[i * LANES + w] += 1e-3 * o;
                norm += xs[i * LANES + w] * xs[i * LANES + w];
            }
            let inv = 1.0 / norm.sqrt();
            for i in 0..3 {
                xs[i * LANES + w] *= inv;
            }
        }
        black_box(&mut xs);
    }
    xs
}

const LANES: usize = 8;
