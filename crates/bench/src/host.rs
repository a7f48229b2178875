//! Host CPU topology for benchmark report headers.
//!
//! Committed `BENCH_*.json` numbers are only comparable across machines
//! if each file says what it ran on: how many logical CPUs were usable,
//! how many physical cores they map to, and whether those cores run
//! SMT. Everything here is derived from `/proc/cpuinfo` and
//! `/sys/devices/system/cpu` with no external crates; on other
//! platforms detection falls back to `available_parallelism` as a flat
//! topology.

use std::sync::OnceLock;

/// One logical CPU as seen in `/proc/cpuinfo` / sysfs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalCpu {
    /// Logical CPU index (the `processor` field).
    pub id: usize,
    /// Physical package (`physical id`), 0 when the kernel does not
    /// report one.
    pub package: usize,
    /// Core index within the package (`core id`), defaulting to the
    /// logical index so distinct CPUs never collapse spuriously.
    pub core: usize,
}

/// A snapshot of the host CPU layout, taken once per process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostTopology {
    /// Logical CPUs visible to this process, ascending by id.
    pub cpus: Vec<LogicalCpu>,
    /// Distinct physical cores across all packages.
    pub physical_cores: usize,
    /// Whether at least one physical core hosts two or more logical
    /// CPUs (hyper-threading / SMT active).
    pub smt: bool,
    /// The `model name` string from `/proc/cpuinfo`, empty when
    /// unavailable.
    pub model: String,
}

impl HostTopology {
    /// Number of logical CPUs.
    pub fn logical_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Whether running `workers` busy threads oversubscribes the host
    /// (more runnable threads than logical CPUs).
    pub fn oversubscribed(&self, workers: usize) -> bool {
        workers > self.logical_cpus().max(1)
    }
}

/// Parse the `/proc/cpuinfo` content in `text`; exposed (crate-private)
/// for unit tests with canned fixtures.
fn parse_cpuinfo(text: &str) -> (Vec<LogicalCpu>, String) {
    let mut cpus = Vec::new();
    let mut model = String::new();
    let mut cur: Option<LogicalCpu> = None;
    for line in text.lines() {
        let mut parts = line.splitn(2, ':');
        let key = parts.next().unwrap_or("").trim();
        let val = parts.next().unwrap_or("").trim();
        match key {
            "processor" => {
                if let Some(c) = cur.take() {
                    cpus.push(c);
                }
                if let Ok(id) = val.parse::<usize>() {
                    cur = Some(LogicalCpu {
                        id,
                        package: 0,
                        core: id,
                    });
                }
            }
            "physical id" => {
                if let (Some(c), Ok(v)) = (cur.as_mut(), val.parse::<usize>()) {
                    c.package = v;
                }
            }
            "core id" => {
                if let (Some(c), Ok(v)) = (cur.as_mut(), val.parse::<usize>()) {
                    c.core = v;
                }
            }
            "model name" if model.is_empty() => model = val.to_string(),
            _ => {}
        }
    }
    if let Some(c) = cur.take() {
        cpus.push(c);
    }
    cpus.sort_by_key(|c| c.id);
    (cpus, model)
}

/// Read `/sys/devices/system/cpu/cpuN/topology/{core_id,physical_package_id}`
/// to refine `cpus` in place; missing files leave the cpuinfo-derived
/// values untouched.
fn refine_from_sysfs(cpus: &mut [LogicalCpu]) {
    for cpu in cpus.iter_mut() {
        let base = format!("/sys/devices/system/cpu/cpu{}/topology", cpu.id);
        if let Some(core) = read_sys_usize(&format!("{base}/core_id")) {
            cpu.core = core;
        }
        if let Some(pkg) = read_sys_usize(&format!("{base}/physical_package_id")) {
            cpu.package = pkg;
        }
    }
}

fn read_sys_usize(path: &str) -> Option<usize> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

fn detect_topology() -> HostTopology {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let (mut cpus, model) = parse_cpuinfo(&text);
    if cpus.is_empty() {
        // Non-Linux or an empty procfs: synthesize a flat topology from
        // available_parallelism so callers always get something sane.
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        cpus = (0..n)
            .map(|id| LogicalCpu {
                id,
                package: 0,
                core: id,
            })
            .collect();
    }
    refine_from_sysfs(&mut cpus);
    finish_topology(cpus, model)
}

/// Derive the summary fields from a CPU list (shared with tests).
fn finish_topology(cpus: Vec<LogicalCpu>, model: String) -> HostTopology {
    let mut cores: Vec<(usize, usize)> = cpus.iter().map(|c| (c.package, c.core)).collect();
    cores.sort_unstable();
    cores.dedup();
    let physical_cores = cores.len().max(1);
    let smt = cpus.len() > physical_cores;
    HostTopology {
        cpus,
        physical_cores,
        smt,
        model,
    }
}

/// The process-wide cached topology snapshot.
pub fn host_topology() -> &'static HostTopology {
    static TOPO: OnceLock<HostTopology> = OnceLock::new();
    TOPO.get_or_init(detect_topology)
}

#[cfg(test)]
mod tests {
    use super::*;

    const XEON_2S_SMT: &str = "\
processor\t: 0\nphysical id\t: 0\ncore id\t: 0\nmodel name\t: Xeon X\n\n\
processor\t: 1\nphysical id\t: 0\ncore id\t: 1\nmodel name\t: Xeon X\n\n\
processor\t: 2\nphysical id\t: 0\ncore id\t: 0\nmodel name\t: Xeon X\n\n\
processor\t: 3\nphysical id\t: 0\ncore id\t: 1\nmodel name\t: Xeon X\n";

    #[test]
    fn parses_smt_pairs_and_model() {
        let (cpus, model) = parse_cpuinfo(XEON_2S_SMT);
        assert_eq!(model, "Xeon X");
        assert_eq!(cpus.len(), 4);
        let t = finish_topology(cpus, model);
        assert_eq!(t.physical_cores, 2);
        assert!(t.smt);
        assert!(!t.oversubscribed(4));
        assert!(t.oversubscribed(5));
    }

    #[test]
    fn empty_cpuinfo_yields_flat_fallback() {
        let (cpus, model) = parse_cpuinfo("");
        assert!(cpus.is_empty());
        assert!(model.is_empty());
        // detect_topology's fallback path: synthesize and summarize.
        let t = finish_topology(
            (0..3)
                .map(|id| LogicalCpu {
                    id,
                    package: 0,
                    core: id,
                })
                .collect(),
            String::new(),
        );
        assert_eq!(t.physical_cores, 3);
        assert!(!t.smt);
    }

    #[test]
    fn host_detection_is_sane_and_cached() {
        let t = host_topology();
        assert!(t.logical_cpus() >= 1);
        assert!(t.physical_cores >= 1);
        assert!(std::ptr::eq(t, host_topology()));
    }
}
