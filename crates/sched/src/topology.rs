//! Cache-domain topology for the native runtime: which workers share a
//! cache domain (socket / CCX / last-level cache), detected from the
//! host or simulated on small machines.
//!
//! The paper's machine model is a cache *hierarchy*; the native pool
//! realizes it by grouping workers into **domains** and stealing in two
//! levels — thieves probe victims inside their own domain first, and
//! cross-domain steals are admitted only for shallow fork depths (big
//! tasks), generalizing the §5.3 BSP admission rule. This module owns
//! the *mapping*: [`DomainSpec`] is the `HBP_DOMAINS` configuration
//! surface, [`DomainMap`] the resolved worker → domain assignment.
//!
//! ## Detection
//!
//! `HBP_DOMAINS=auto` (or unset) groups host CPUs by the
//! `shared_cpu_list` of their *highest-level* cache under
//! `/sys/devices/system/cpu/cpu*/cache/index*` — CPUs sharing a
//! last-level cache form one domain, and worker `w` inherits the domain
//! of CPU `w mod ncpus`. Detection **never panics**: an absent or
//! unreadable `/sys`, a 1-CPU host, or malformed topology files all log
//! the fallback loudly (once) and resolve to one flat domain —
//! behaviorally identical to the pre-domain pool.
//!
//! ## Simulated domains
//!
//! `HBP_DOMAINS=<k>` partitions the workers into `k` balanced
//! contiguous groups regardless of host topology — the way to exercise
//! two-level stealing on a small host. `HBP_DOMAINS=tag:<k>` assigns
//! the same labels but leaves stealing flat: locality is *classified*
//! (metrics, trace events) without being *preferred*, which is the
//! control arm of the BENCH locality A/B.

use std::path::Path;
use std::sync::Once;

/// Default cross-domain fork-depth floor (`HBP_CROSS_DEPTH` unset):
/// only branches from the top 3 fork levels — the 8 biggest
/// subproblems of a binary recursion — may move between domains.
pub const DEFAULT_CROSS_DEPTH: u32 = 3;

/// The `HBP_DOMAINS` configuration surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DomainSpec {
    /// Detect domains from the host's cache topology (the default);
    /// falls back to one flat domain, loudly, when detection fails.
    #[default]
    Auto,
    /// `k` simulated balanced contiguous domains with two-level
    /// stealing (`k = 1` is exactly the flat pool).
    Count(usize),
    /// `k` simulated domains as *labels only*: steal locality is
    /// classified in metrics and trace events but the victim order and
    /// admission stay flat (the locality A/B's control arm).
    Tag(usize),
}

impl DomainSpec {
    /// Parse an `HBP_DOMAINS` value: `None` (unset), the empty string,
    /// or `auto` → [`DomainSpec::Auto`]; an integer `k ≥ 1` →
    /// [`DomainSpec::Count`]; `tag:<k>` → [`DomainSpec::Tag`]. Anything
    /// else is an error naming the variable, the offending value, and
    /// the accepted ones.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        let err = |other: &str| {
            Err(format!(
                "HBP_DOMAINS must be `auto`, an integer >= 1, or `tag:<k>`, got {other:?}"
            ))
        };
        match value {
            None | Some("") | Some("auto") => Ok(DomainSpec::Auto),
            Some(other) => {
                if let Some(k) = other.strip_prefix("tag:") {
                    return match k.parse::<usize>() {
                        Ok(k) if k >= 1 => Ok(DomainSpec::Tag(k)),
                        _ => err(other),
                    };
                }
                match other.parse::<usize>() {
                    Ok(k) if k >= 1 => Ok(DomainSpec::Count(k)),
                    _ => err(other),
                }
            }
        }
    }

    /// Resolve this spec for a pool of `workers` threads: the worker →
    /// domain map plus whether two-level stealing is on. [`Auto`]
    /// detects from the live `/sys` (falling back flat, loudly, on
    /// failure); [`Count`]/[`Tag`] simulate balanced contiguous
    /// domains. Two-level stealing is off for [`Tag`] by definition and
    /// degenerate (off) whenever only one domain resolves.
    ///
    /// [`Auto`]: DomainSpec::Auto
    /// [`Count`]: DomainSpec::Count
    /// [`Tag`]: DomainSpec::Tag
    pub fn resolve(self, workers: usize) -> (DomainMap, bool) {
        self.resolve_at(Path::new("/sys/devices/system/cpu"), workers)
    }

    /// [`DomainSpec::resolve`] against an explicit sysfs root (tests
    /// point this at an unreadable path to force the fallback).
    pub fn resolve_at(self, sysfs_cpu_root: &Path, workers: usize) -> (DomainMap, bool) {
        match self {
            DomainSpec::Auto => {
                let map = match detect_at(sysfs_cpu_root, workers) {
                    Ok(map) => map,
                    Err(why) => {
                        warn_fallback(&why);
                        DomainMap::flat(workers)
                    }
                };
                let sharded = map.domains() > 1;
                (map, sharded)
            }
            DomainSpec::Count(k) => {
                let map = DomainMap::simulated(workers, k);
                let sharded = map.domains() > 1;
                (map, sharded)
            }
            DomainSpec::Tag(k) => (DomainMap::simulated(workers, k), false),
        }
    }
}

/// A resolved worker → cache-domain assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    /// Domain id per worker index.
    of_worker: Vec<u32>,
    /// Number of distinct domains (`max(of_worker) + 1`).
    domains: usize,
}

impl DomainMap {
    /// Every worker in one domain (the flat pool).
    pub fn flat(workers: usize) -> Self {
        Self {
            of_worker: vec![0; workers.max(1)],
            domains: 1,
        }
    }

    /// `k` balanced contiguous domains (clamped to `1..=workers`):
    /// worker `w` lands in domain `w·k / workers`, so group sizes
    /// differ by at most one and neighbors share a domain.
    pub fn simulated(workers: usize, k: usize) -> Self {
        let workers = workers.max(1);
        let k = k.clamp(1, workers);
        Self {
            of_worker: (0..workers).map(|w| ((w * k) / workers) as u32).collect(),
            domains: k,
        }
    }

    /// Build from explicit per-worker labels (detection path; labels
    /// must be `0..domains` with every domain inhabited).
    fn from_labels(of_worker: Vec<u32>) -> Self {
        let domains = of_worker
            .iter()
            .copied()
            .max()
            .map_or(1, |m| m as usize + 1);
        Self { of_worker, domains }
    }

    /// The domain worker `w` belongs to.
    #[inline]
    pub fn domain_of(&self, w: usize) -> usize {
        self.of_worker[w % self.of_worker.len()] as usize
    }

    /// Number of domains (≥ 1).
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// Number of workers mapped.
    pub fn workers(&self) -> usize {
        self.of_worker.len()
    }

    /// The per-worker domain labels (for trace lane annotation).
    pub fn labels(&self) -> &[u32] {
        &self.of_worker
    }
}

static WARN_ONCE: Once = Once::new();

/// Log the auto-detection fallback loudly — stderr only, so binaries
/// whose stdout is machine-readable (`serve_scenario` prints JSON)
/// stay parseable — and only once per process (every pool constructed
/// under `HBP_DOMAINS=auto` resolves the same host).
fn warn_fallback(why: &str) {
    WARN_ONCE.call_once(|| {
        eprintln!(
            "  WARNING: HBP_DOMAINS=auto could not shard by cache topology ({why}) — \
             falling back to domains=1 (the flat pool). Set HBP_DOMAINS=<k> to \
             simulate k domains on this host."
        );
    });
}

/// Detect cache domains from `/sys/devices/system/cpu` (see the module
/// docs) for a pool of `workers` threads. [`DomainSpec::resolve`] wraps
/// this with the loud flat fallback; callers wanting the raw outcome
/// (tests, diagnostics) get the failure reason here.
pub fn detect_at(sysfs_cpu_root: &Path, workers: usize) -> Result<DomainMap, String> {
    let entries = std::fs::read_dir(sysfs_cpu_root)
        .map_err(|e| format!("{} unreadable: {e}", sysfs_cpu_root.display()))?;
    // Collect cpuN directories in numeric order.
    let mut cpus: Vec<(usize, std::path::PathBuf)> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let id: usize = name.strip_prefix("cpu")?.parse().ok()?;
            Some((id, e.path()))
        })
        .collect();
    cpus.sort_by_key(|&(id, _)| id);
    if cpus.is_empty() {
        return Err(format!(
            "no cpu* entries under {}",
            sysfs_cpu_root.display()
        ));
    }
    if cpus.len() == 1 {
        return Err("host has 1 CPU — no domains to shard by".to_string());
    }
    // Key each CPU by the shared_cpu_list of its highest-level
    // (non-instruction) cache; CPUs with equal keys share a domain.
    let mut keys = Vec::with_capacity(cpus.len());
    for (id, path) in &cpus {
        keys.push(
            llc_shared_key(&path.join("cache")).ok_or_else(|| {
                format!("cpu{id} exposes no readable cache/index*/shared_cpu_list")
            })?,
        );
    }
    // Number domains by first appearance in CPU order (deterministic).
    let mut seen: Vec<&str> = Vec::new();
    let mut cpu_dom = Vec::with_capacity(keys.len());
    for key in &keys {
        let dom = match seen.iter().position(|k| k == key) {
            Some(i) => i,
            None => {
                seen.push(key);
                seen.len() - 1
            }
        };
        cpu_dom.push(dom as u32);
    }
    // Worker w inherits the domain of CPU (w mod ncpus) — the natural
    // assignment when the pool is sized to (or oversubscribes) the host.
    let labels = (0..workers.max(1))
        .map(|w| cpu_dom[w % cpu_dom.len()])
        .collect();
    Ok(DomainMap::from_labels(labels))
}

/// The `shared_cpu_list` of the highest-level data/unified cache under
/// one CPU's `cache/` directory, or `None` when nothing is readable.
fn llc_shared_key(cache_dir: &Path) -> Option<String> {
    let entries = std::fs::read_dir(cache_dir).ok()?;
    let mut best: Option<(u32, String)> = None;
    for e in entries.flatten() {
        let name = e.file_name().into_string().ok()?;
        if !name.starts_with("index") {
            continue;
        }
        let path = e.path();
        let read = |f: &str| -> Option<String> {
            std::fs::read_to_string(path.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        // Instruction caches are not sharing domains for data.
        if read("type").is_some_and(|t| t == "Instruction") {
            continue;
        }
        let level: u32 = read("level")?.parse().ok()?;
        let shared = read("shared_cpu_list")?;
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, shared));
        }
    }
    best.map(|(_, s)| s)
}

/// Parse an `HBP_CROSS_DEPTH` value — the fork-depth floor above which
/// (deeper than which) steals may not cross domains: `None` (unset) or
/// the empty string → [`DEFAULT_CROSS_DEPTH`]; an integer `d ≥ 0` → `d`
/// (0 restricts crossing to root-level branches); `inf`/`max`/`off` →
/// no floor (every admitted depth may cross). Anything else is an error
/// naming the variable, the value, and the accepted ones.
pub fn parse_cross_depth(value: Option<&str>) -> Result<u32, String> {
    match value {
        None | Some("") => Ok(DEFAULT_CROSS_DEPTH),
        Some("inf") | Some("max") | Some("off") => Ok(u32::MAX),
        Some(other) => other.parse::<u32>().map_err(|_| {
            format!("HBP_CROSS_DEPTH must be an integer >= 0 or `inf`/`max`/`off`, got {other:?}")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_accepts_the_documented_values() {
        for v in [None, Some(""), Some("auto")] {
            assert_eq!(DomainSpec::parse(v), Ok(DomainSpec::Auto), "{v:?}");
        }
        assert_eq!(DomainSpec::parse(Some("1")), Ok(DomainSpec::Count(1)));
        assert_eq!(DomainSpec::parse(Some("4")), Ok(DomainSpec::Count(4)));
        assert_eq!(DomainSpec::parse(Some("tag:2")), Ok(DomainSpec::Tag(2)));
        for bad in ["0", "tag:0", "tag:", "two", "-1", "auto2"] {
            let err = DomainSpec::parse(Some(bad)).expect_err(bad);
            assert!(err.contains("HBP_DOMAINS"), "names the variable: {err}");
            assert!(err.contains(bad), "echoes the value: {err}");
        }
    }

    #[test]
    fn cross_depth_parse_accepts_the_documented_values() {
        assert_eq!(parse_cross_depth(None), Ok(DEFAULT_CROSS_DEPTH));
        assert_eq!(parse_cross_depth(Some("")), Ok(DEFAULT_CROSS_DEPTH));
        assert_eq!(parse_cross_depth(Some("0")), Ok(0));
        assert_eq!(parse_cross_depth(Some("7")), Ok(7));
        for inf in ["inf", "max", "off"] {
            assert_eq!(parse_cross_depth(Some(inf)), Ok(u32::MAX), "{inf}");
        }
        let err = parse_cross_depth(Some("-3")).unwrap_err();
        assert!(
            err.contains("HBP_CROSS_DEPTH") && err.contains("-3"),
            "{err}"
        );
    }

    #[test]
    fn simulated_maps_are_balanced_and_contiguous() {
        let m = DomainMap::simulated(4, 2);
        assert_eq!(m.labels(), &[0, 0, 1, 1]);
        assert_eq!(m.domains(), 2);
        let m = DomainMap::simulated(5, 2);
        assert_eq!(m.labels(), &[0, 0, 0, 1, 1]);
        let m = DomainMap::simulated(8, 4);
        assert_eq!(m.labels(), &[0, 0, 1, 1, 2, 2, 3, 3]);
        // k clamps to the worker count; labels stay dense.
        let m = DomainMap::simulated(3, 9);
        assert_eq!(m.labels(), &[0, 1, 2]);
        assert_eq!(m.domains(), 3);
        // k=1 is the flat pool.
        assert_eq!(DomainMap::simulated(6, 1), DomainMap::flat(6));
    }

    #[test]
    fn unreadable_sysfs_falls_back_flat_without_panicking() {
        // Satellite: detection must fail loudly-but-gracefully when /sys
        // cache info is absent. Point it somewhere that cannot exist.
        let root = Path::new("/definitely/not/a/sysfs/cpu/dir");
        let err = detect_at(root, 4).expect_err("unreadable root must be an Err");
        assert!(err.contains("unreadable"), "{err}");
        // resolve_at never panics and degrades to one flat domain with
        // two-level stealing off.
        let (map, two_level) = DomainSpec::Auto.resolve_at(root, 4);
        assert_eq!(map, DomainMap::flat(4));
        assert!(!two_level);
    }

    #[test]
    fn one_cpu_host_is_a_detection_error_not_a_panic() {
        // Build a fake sysfs with exactly one CPU.
        let dir = std::env::temp_dir().join(format!("hbp-topo-1cpu-{}", std::process::id()));
        let cache = dir.join("cpu0/cache/index0");
        std::fs::create_dir_all(&cache).unwrap();
        std::fs::write(cache.join("level"), "1\n").unwrap();
        std::fs::write(cache.join("type"), "Data\n").unwrap();
        std::fs::write(cache.join("shared_cpu_list"), "0\n").unwrap();
        let err = detect_at(&dir, 4).expect_err("1-CPU host must not shard");
        assert!(err.contains("1 CPU"), "{err}");
        let (map, two_level) = DomainSpec::Auto.resolve_at(&dir, 4);
        assert_eq!(map, DomainMap::flat(4));
        assert!(!two_level);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detection_groups_cpus_by_llc_shared_list() {
        // Fake a 4-CPU host with two L2 complexes: cpus {0,1} share one
        // LLC, {2,3} the other; L1s are private (level 1 loses to 2).
        let dir = std::env::temp_dir().join(format!("hbp-topo-2dom-{}", std::process::id()));
        for cpu in 0..4 {
            let base = dir.join(format!("cpu{cpu}/cache"));
            let l1 = base.join("index0");
            std::fs::create_dir_all(&l1).unwrap();
            std::fs::write(l1.join("level"), "1\n").unwrap();
            std::fs::write(l1.join("type"), "Data\n").unwrap();
            std::fs::write(l1.join("shared_cpu_list"), format!("{cpu}\n")).unwrap();
            let l2 = base.join("index1");
            std::fs::create_dir_all(&l2).unwrap();
            std::fs::write(l2.join("level"), "2\n").unwrap();
            std::fs::write(l2.join("type"), "Unified\n").unwrap();
            let list = if cpu < 2 { "0-1" } else { "2-3" };
            std::fs::write(l2.join("shared_cpu_list"), format!("{list}\n")).unwrap();
        }
        let map = detect_at(&dir, 4).expect("two clean domains");
        assert_eq!(map.labels(), &[0, 0, 1, 1]);
        assert_eq!(map.domains(), 2);
        // Oversubscribed pools wrap: worker 5 shares cpu1's domain.
        let map8 = detect_at(&dir, 8).expect("wrapped assignment");
        assert_eq!(map8.labels(), &[0, 0, 1, 1, 0, 0, 1, 1]);
        let (_, two_level) = DomainSpec::Auto.resolve_at(&dir, 4);
        assert!(two_level, "2 detected domains turn two-level stealing on");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tag_spec_labels_without_sharding() {
        let (map, two_level) = DomainSpec::Tag(2).resolve(4);
        assert_eq!(map, DomainMap::simulated(4, 2));
        assert!(
            !two_level,
            "tag: classifies locality but keeps flat stealing"
        );
        let (_, sharded) = DomainSpec::Count(2).resolve(4);
        assert!(sharded);
        let (map1, one) = DomainSpec::Count(1).resolve(4);
        assert_eq!(map1, DomainMap::flat(4));
        assert!(!one, "one domain degenerates to the flat pool");
    }
}
