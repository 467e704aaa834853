//! Statistics, the result line, and small helpers shared by the workloads.

use std::path::PathBuf;
use std::time::Instant;

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linearly interpolated percentile, `q` in `[0, 1]`; 0 if empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 if empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's input generator, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Runs `job(k)` for k = 0, 1, ... while the next job is expected to end
/// within `seconds` of the first one's start, and at least `min_jobs`
/// times. Each call returns its own wall time in seconds.
pub fn timed_jobs(seconds: f64, min_jobs: usize, mut job: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(job(walls.len()));
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= min_jobs && elapsed + median(&walls) > seconds {
            return walls;
        }
    }
}

/// Scratch directory for one run's result stores, inside the working
/// directory; removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The store directory `name`, removed if a previous job left it.
    pub fn store(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails harmlessly while another run's directory remains.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// The result line: every metric with its unit, plus the op counts.
#[derive(Debug)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted: attempted.max(1),
            failed,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!("{name:<34} {value:>16.6} {unit}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// One-line JSON; values keep every digit (shortest round-trip form).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
