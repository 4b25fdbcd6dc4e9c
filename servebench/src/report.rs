//! Statistics, host readings and output formatting.

use std::fmt::Write as _;
use std::path::Path;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// CPU time (user + system) of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100
    // on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    match (f.get(11), f.get(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
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

/// Host-wide CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total: u64 = f.iter().take(8).sum();
    (f.get(7).copied().unwrap_or(0), total)
}

/// Where and how the run was made, printed with every record.
/// `threads_env` is `PDAC_THREADS` as the caller found it (`None` when
/// unset).
pub fn provenance(steal_frac: f64, threads_env: Option<&str>) -> String {
    let vnni = {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    };
    format!(
        "{{\"nproc\":{},\"pdac_threads\":{},\"pdac_threads_env\":{},\"avx512_vnni\":{},\
         \"telemetry\":{},\"git_rev\":\"{}\",\"source_fnv\":\"{:016x}\",\"host_steal_frac\":{}}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        pdac_math::gemm::default_threads(),
        threads_env.map_or("null".into(), |t| format!("\"{}\"", escape(t))),
        vnni,
        // Cargo.toml builds every crate with its `telemetry` feature.
        true,
        git_rev(),
        source_fnv(),
        num(steal_frac),
    )
}

/// The commit the checkout is at, read from `.git` without running git;
/// `none` outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds (`Cargo.*`, `crates/`, `servebench/`), so runs of different
/// trees can be told apart where no git metadata exists.
fn source_fnv() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("servebench"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.0
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A JSON number; non-finite values become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
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
    s.push('}');
    s
}

/// A fixed-width table of metrics for people reading the output.
pub fn table(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(s, "  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn metrics_json_never_prints_non_finite_numbers() {
        let m = [Metric {
            name: "x",
            unit: "ms",
            value: f64::INFINITY,
        }];
        assert_eq!(
            metrics_json(&m),
            "{\"x\": {\"value\": null, \"unit\": \"ms\"}}"
        );
    }
}
