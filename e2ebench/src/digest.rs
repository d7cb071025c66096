//! Result digests and the committed reference table.
//!
//! A digest is a 64-bit FNV-1a hash over exactly the fields the result
//! types' `deterministic_eq` compares, floats by bit pattern, so two
//! results digest equal exactly when they are `deterministic_eq` (up to
//! hash collisions). The reference table (`reference/digests.txt`) maps a
//! key naming the run (kind, benchmark, seed, configuration) to the digest
//! of its uninterrupted single-session reference; `--record-digests`
//! regenerates it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use aibench::runner::RunResult;
use aibench_dist::DistRunResult;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn trajectory(
    h: &mut Fnv,
    epochs_run: usize,
    epochs_to_target: Option<usize>,
    quality: &[(usize, f64)],
    loss: &[f32],
    final_quality: f64,
) {
    h.u64(epochs_run as u64)
        .u64(epochs_to_target.map_or(u64::MAX, |e| e as u64))
        .u64(quality.len() as u64);
    for &(e, q) in quality {
        h.u64(e as u64).u64(q.to_bits());
    }
    h.u64(loss.len() as u64);
    for l in loss {
        h.u64(u64::from(l.to_bits()));
    }
    h.u64(final_quality.to_bits());
}

/// Digest of the fields [`RunResult::deterministic_eq`] compares.
pub fn run_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.str(&r.code).u64(r.seed);
    trajectory(
        &mut h,
        r.epochs_run,
        r.epochs_to_target,
        &r.quality_trace,
        &r.loss_trace,
        r.final_quality,
    );
    h.finish()
}

/// Digest of the fields [`DistRunResult::deterministic_eq`] compares.
pub fn dist_digest(r: &DistRunResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.seed).u64(r.initial_world as u64);
    trajectory(
        &mut h,
        r.epochs_run,
        r.epochs_to_target,
        &r.quality_trace,
        &r.loss_trace,
        r.final_quality,
    );
    h.u64(r.world_trace.len() as u64);
    for &(e, w) in &r.world_trace {
        h.u64(e as u64).u64(w as u64);
    }
    h.u64(r.faults.len() as u64);
    for f in &r.faults {
        h.str(&f.signature());
    }
    h.u64(r.reshards as u64)
        .u64(r.logical_time)
        .u64(u64::from(r.aborted));
    h.finish()
}

/// Location of the committed reference table.
pub fn reference_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/digests.txt")
}

/// The reference table: run key → expected digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct References {
    table: BTreeMap<String, u64>,
}

impl References {
    /// Parses `key<TAB>hex-digest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut table = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .rsplit_once('\t')
                .ok_or_else(|| format!("line {}: expected key<TAB>digest", n + 1))?;
            let digest = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("line {}: bad digest `{hex}`: {e}", n + 1))?;
            if table.insert(key.trim().to_string(), digest).is_some() {
                return Err(format!("line {}: duplicate key `{key}`", n + 1));
            }
        }
        Ok(References { table })
    }

    /// Loads the committed table.
    pub fn load() -> Result<References, String> {
        let path = reference_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        References::parse(&text)
    }

    /// Inserts or replaces one entry.
    pub fn insert(&mut self, key: String, digest: u64) {
        self.table.insert(key, digest);
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: &str) -> bool {
        self.table.contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Compares `digest` with the reference for `key`; the error names the
    /// key and both digests.
    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.table.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!(
                "{key}: digest {digest:016x}, reference {want:016x}"
            )),
            None => Err(format!("{key}: no reference digest")),
        }
    }

    /// The table in the committed text format.
    pub fn to_text(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        for (k, v) in &self.table {
            out.push_str(&format!("{k}\t{v:016x}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_and_rejects_duplicates() {
        let mut refs = References::default();
        refs.insert("train DC-AI-C1 seed=1".into(), 0xabc);
        let text = refs.to_text("header");
        assert_eq!(References::parse(&text), Ok(refs.clone()));
        assert!(refs.check("train DC-AI-C1 seed=1", 0xabc).is_ok());
        assert!(refs.check("train DC-AI-C1 seed=1", 0xabd).is_err());
        assert!(refs.check("missing", 0).is_err());
        assert!(References::parse("a\t1\na\t2\n").is_err());
    }
}
