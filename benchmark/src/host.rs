//! Host calibration and fingerprint: what every result is tied to.

use crate::trace::Tracer;
use obs::Json;
use std::fs;

/// One STREAM array: 64 MiB of f64. The three arrays of the triad are 32x
/// the reference host's per-core L2; whether they also exceed the shared
/// last-level cache is reported as `host.stream_in_llc`.
pub const STREAM_LEN: usize = 8 << 20;

pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub kernel: String,
    pub l2_kib: u64,
    pub l3_kib: u64,
}

fn read_trim(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Size in KiB of cpu0's unified cache at `level`, from sysfs (0 if the
/// host does not say).
fn cache_kib(level: u32) -> u64 {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl: u32 = read_trim(&format!("{dir}/level"))?.parse().ok()?;
            let kind = read_trim(&format!("{dir}/type"))?;
            let size = read_trim(&format!("{dir}/size"))?;
            let kib: u64 = size.strip_suffix('K')?.parse().ok()?;
            (lvl == level && kind == "Unified").then_some(kib)
        })
        .next()
        .unwrap_or(0)
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read_trim("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            l2_kib: cache_kib(2),
            l3_kib: cache_kib(3),
        }
    }

    /// Width of the worker pool every workload runs on.
    pub fn pool_width(&self) -> usize {
        self.nproc.min(4)
    }

    /// FNV-1a of the identifying fields: two results compare only when
    /// their fingerprints match.
    pub fn fingerprint(&self) -> String {
        let text = format!(
            "{}|{}|{}|{}|{}",
            self.cpu_model, self.nproc, self.kernel, self.l2_kib, self.l3_kib
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fingerprint", Json::Str(self.fingerprint())),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("nproc", Json::Num(self.nproc as f64)),
            ("pool_width", Json::Num(self.pool_width() as f64)),
            ("kernel", Json::Str(self.kernel.clone())),
            ("l2_kib", Json::Num(self.l2_kib as f64)),
            ("l3_kib", Json::Num(self.l3_kib as f64)),
        ])
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn gib_per_s(bytes: f64, secs: f64) -> f64 {
    bytes / secs / (1u64 << 30) as f64
}

/// Run `f` on the shared pool capped at `width` threads.
pub fn at_width<R: Send>(width: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("a width handle on the vendored pool cannot fail")
        .install(f)
}

/// STREAM triad `a = b + s*c` over arrays of `len` f64 at pool widths 1 and
/// `width`: best of three passes each, in GiB/s over the three arrays'
/// computed bytes.
pub fn stream_triad(width: usize, len: usize, clock: &Tracer) -> (f64, f64) {
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let bytes = (3 * len * 8) as f64;
    let mut best = |w: usize| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = clock.now();
            at_width(w, || {
                rayon::for_each_chunk_mut(&mut a, 1 << 16, |base, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = b[base + i] + 3.0 * c[base + i];
                    }
                });
            });
            best = best.min(clock.now() - t0);
        }
        gib_per_s(bytes, best)
    };
    let w1 = best(1);
    let wn = best(width);
    assert_eq!(std::hint::black_box(&a)[len - 1], 7.0);
    (w1, wn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_rss_is_read() {
        let h = Host::probe();
        assert_eq!(h.fingerprint(), Host::probe().fingerprint());
        assert_eq!(h.fingerprint().len(), 16);
        assert!(h.nproc >= 1 && h.pool_width() <= 4);
        assert!(peak_rss_mib() > 0.0);
    }
}
