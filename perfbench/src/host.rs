//! The host record every result carries, and the process's peak memory.

use std::path::Path;
use std::process::Command;

use caps_json::{obj, Value};

/// What a measurement was taken on and of.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may use (`available_parallelism`).
    pub nproc: usize,
    /// CPU brand string.
    pub cpu: String,
    /// Compiler that built the benchmark and the measured crates.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside a
    /// git repository.
    pub git_commit: String,
    /// The result cache's source fingerprint of the simulator crates:
    /// identifies the measured code even where no git commit is known.
    pub sim_fingerprint: String,
}

impl Host {
    /// Describe this host and the checkout at `root`.
    pub fn collect(root: &Path) -> Host {
        Host {
            nproc: nproc(),
            cpu: cpu_brand(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_commit: git_commit(root),
            sim_fingerprint: caps_metrics::cache::SIM_FINGERPRINT.to_string(),
        }
    }

    /// The record as JSON.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("nproc", Value::UInt(self.nproc as u64)),
            ("cpu", Value::Str(self.cpu.clone())),
            ("rustc", Value::Str(self.rustc.clone())),
            ("git_commit", Value::Str(self.git_commit.clone())),
            ("sim_fingerprint", Value::Str(self.sim_fingerprint.clone())),
        ])
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Only a checkout that is itself a repository is asked: `git` would
/// otherwise report whatever repository encloses the directory.
fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: every x86-64 processor implements CPUID, and leaf
    // 0x8000_0000 reports the highest extended leaf, checked below
    // before the brand-string leaves are read.
    #[allow(unused_unsafe)]
    let max_leaf = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_leaf < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: the leaf is at most the maximum checked above.
        #[allow(unused_unsafe)]
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    brand
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    "unknown".to_string()
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of
    // `struct rusage` on this target, and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

/// Peak resident set size is read through Linux's `getrusage` only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> Option<f64> {
    None
}
