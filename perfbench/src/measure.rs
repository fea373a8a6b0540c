//! Measurement primitives: order statistics, the labels digest, named
//! span accumulators and the two `/proc/self` readers (peak RSS, CPU time).

use std::time::{Duration, Instant};

/// The `q`-quantile (`0..=1`) of `samples` by linear interpolation between
/// closest ranks; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Population standard deviation.
pub fn std_dev(samples: &[f64]) -> f64 {
    let m = mean(samples);
    mean(
        &samples
            .iter()
            .map(|x| (x - m) * (x - m))
            .collect::<Vec<_>>(),
    )
    .sqrt()
}

/// FNV-1a (64-bit) over the served trajectory: each epoch's cross-shard
/// count, then the final labels. Pinned by the determinism contract, so a
/// run that reproduces the trajectory reproduces the digest exactly.
pub fn digest(cross_shard: &[u64], labels: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for c in cross_shard {
        eat(&c.to_le_bytes());
    }
    eat(&(labels.len() as u64).to_le_bytes());
    for l in labels {
        eat(&l.to_le_bytes());
    }
    h
}

/// Whether `labels` labels all `nodes` nodes with a shard in `0..shards`.
pub fn mapping_is_valid(labels: &[u32], nodes: usize, shards: usize) -> bool {
    labels.len() == nodes && labels.iter().all(|&l| (l as usize) < shards)
}

/// Wall time of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Named wall-time accumulators: one per layer call site.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    totals: Vec<(&'static str, Duration)>,
}

impl Spans {
    /// Runs `f` inside the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, d) = timed(f);
        self.add(name, d);
        out
    }

    /// Adds `d` to the span `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += d,
            None => self.totals.push((name, d)),
        }
    }

    /// Total seconds recorded under `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, d)| d.as_secs_f64())
    }

    /// Total seconds over every span.
    pub fn total_secs(&self) -> f64 {
        self.totals.iter().map(|(_, d)| d.as_secs_f64()).sum()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed so far, and the
/// wall seconds since it started.
pub fn process_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let uptime = std::fs::read_to_string("/proc/uptime").unwrap_or_default();
    // The command name may contain spaces; fields resume after its `)`,
    // starting at state (field 3): utime is field 14, stime 15, starttime 22.
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| {
        fields
            .get(field - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / USER_HZ
    };
    let now = uptime
        .split_whitespace()
        .next()
        .and_then(|f| f.parse::<f64>().ok())
        .unwrap_or(0.0);
    (ticks(14) + ticks(15), now - ticks(22))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn digest_sees_every_label_and_epoch() {
        let d = digest(&[3], &[0, 1, 2]);
        assert_eq!(d, digest(&[3], &[0, 1, 2]));
        assert_ne!(d, digest(&[3], &[0, 2, 2]));
        assert_ne!(d, digest(&[4], &[0, 1, 2]));
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let (cpu, wall) = process_times();
        assert!(cpu >= 0.0 && wall >= 0.0);
    }
}
