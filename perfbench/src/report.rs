//! Result line, host block and the small statistics both need.

use std::fmt::Write as _;

use crate::Args;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Self {
        Self {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The end-to-end result of an untraced run; `ops_ok_frac` and
    /// `peak_rss_mb` are derived here.
    pub fn end_to_end(
        correct: bool,
        attempted: u64,
        failed: u64,
        setup_s: f64,
        qps: f64,
        p50_us: f64,
    ) -> Self {
        let mut out = Self::new(correct, attempted, failed);
        let ok = 1.0 - ratio(failed as f64, out.attempted as f64);
        out.push("setup_s", setup_s, "s");
        out.push("query_qps", qps, "1/s");
        out.push("query_p50_us", p50_us, "us");
        out.push("ops_ok_frac", ok, "ratio");
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
        out
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The host block printed with every result.
pub struct Host {
    pub nproc: usize,
    pub rayon_threads: usize,
    pub avx2_kernel: bool,
    pub git_rev: String,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
}

impl Host {
    pub fn probe(args: &Args) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            avx2_kernel: avx2_kernel(),
            git_rev: git_rev(),
            workload: args.workload.clone(),
            seed: args.seed,
            trace: args.trace,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"rayon_threads\": {}, \"avx2_kernel\": {}, \
             \"git_rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}}}}}",
            self.nproc,
            self.rayon_threads,
            self.avx2_kernel,
            escape(&self.git_rev),
            escape(&self.workload),
            self.seed,
            self.trace
        )
    }
}

/// The leaf kernel's own selection rule: AVX2 when the CPU has it,
/// unless `PANDA_NO_AVX2` is set to anything but `""` or `"0"`.
fn avx2_kernel() -> bool {
    let opted_out = std::env::var_os("PANDA_NO_AVX2").is_some_and(|v| !v.is_empty() && v != "0");
    #[cfg(target_arch = "x86_64")]
    let has = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let has = false;
    has && !opted_out
}

/// The checked-out commit, read from `.git` in the working directory;
/// `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Process high-water resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Deterministic generator for workload decisions (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f32 {
        let u1 = self.f64().max(f64::EPSILON);
        let u2 = self.f64();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}
