//! Output correctness: digests of everything the workloads produce,
//! compared against the committed `expected.txt`, plus the seeded
//! submission-order permutation whose invisibility those digests prove.

use std::collections::BTreeMap;

use cpe_core::JsonValue;
use cpe_exec::render::{member, parse, render};
use cpe_exec::{fnv1a64, CacheStatus, JobOutcome, SweepPlan, SweepResults};
use cpe_isa::DynInst;
use cpe_stats::geometric_mean;

use crate::spans::Tracer;

/// The committed digests of the full-scale, uncapped outputs.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// Digests keyed by what they cover (`cell/<workload>/<config>`,
/// `sweep/ipc_table`, `stream/<workload>`, ...).
pub type Digests = BTreeMap<String, String>;

/// Parse `key value` lines (the key may contain spaces; the value is the
/// last word). Blank lines and `#` comments are skipped.
pub fn parse_expected(text: &str) -> Digests {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .map(|(key, value)| (key.trim().to_string(), value.to_string()))
        .collect()
}

/// Render digests in the `expected.txt` format.
pub fn render_expected(digests: &Digests) -> String {
    digests
        .iter()
        .map(|(key, value)| format!("{key} {value}\n"))
        .collect()
}

/// Hex FNV-1a 64 of `bytes`.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// The deterministic projection of a cell's metrics document: every
/// member except the host-timing `self_profile`, rendered canonically.
///
/// # Errors
///
/// A message when the document does not parse or is not an object.
pub fn deterministic_part(document: &str) -> Result<String, String> {
    let parsed = parse(document)?;
    let JsonValue::Object(members) = &parsed else {
        return Err("cell document is not a JSON object".to_string());
    };
    let kept: Vec<String> = members
        .iter()
        .filter(|(key, _)| key != "self_profile")
        .map(|(key, _)| {
            let value = member(&parsed, key).expect("member listed by the object");
            format!("{key}={}", render(value))
        })
        .collect();
    Ok(kept.join(","))
}

/// Digest of one cell document's deterministic part.
///
/// # Errors
///
/// As [`deterministic_part`].
pub fn cell_digest(document: &str) -> Result<String, String> {
    deterministic_part(document).map(|part| digest(part.as_bytes()))
}

/// Running digest of a committed-path stream over `(pc, mem_addr,
/// next_pc)`, one word-wise FNV-style round per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest {
    hash: u64,
    records: u64,
}

impl Default for StreamDigest {
    fn default() -> StreamDigest {
        StreamDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            records: 0,
        }
    }
}

impl StreamDigest {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fold one record in.
    #[inline]
    pub fn add(&mut self, record: &DynInst) {
        for word in [
            record.pc,
            record.mem_addr.unwrap_or(u64::MAX),
            record.next_pc,
        ] {
            self.hash = (self.hash ^ word).wrapping_mul(Self::PRIME);
        }
        self.records += 1;
    }

    /// Records folded in.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `<records>:<hex digest>`.
    pub fn text(&self) -> String {
        format!("{}:{:016x}", self.records, self.hash)
    }
}

/// Tally of checked operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong digest.
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Compare `key`'s computed digest with the expected one. With no
/// expectation for the key (a scale `expected.txt` does not cover), the
/// digest is only recorded; seed-independence is then what the caller
/// checks.
pub fn compare(
    expected: Option<&Digests>,
    computed: &mut Digests,
    key: String,
    value: Result<String, String>,
    tally: &mut Tally,
) {
    let ok = match (&value, expected) {
        (Err(_), _) => false,
        (Ok(value), Some(expected)) => expected.get(&key) == Some(value),
        (Ok(_), None) => true,
    };
    tally.record(ok);
    computed.insert(key, value.unwrap_or_else(|error| format!("error:{error}")));
}

/// Check a finished sweep: every cell's document digest, that every cell
/// was served as `want` from the cache, and the IPC table and aggregate
/// document of the sweep re-assembled in canonical grid order.
/// `canonical` is the unpermuted plan the expectations were made with.
pub fn check_sweep(
    tracer: &Tracer,
    results: &SweepResults,
    canonical: &SweepPlan,
    want: CacheStatus,
    expected: Option<&Digests>,
    computed: &mut Digests,
) -> Tally {
    let mut tally = Tally::default();
    let plan = results.plan();
    let mut by_cell: BTreeMap<(String, String), JobOutcome> = BTreeMap::new();
    for (index, outcome) in results.outcomes().iter().enumerate() {
        let workload = plan.workloads[index / plan.configs.len()]
            .name()
            .to_string();
        let config = plan.configs[index % plan.configs.len()].name.clone();
        let digest = match (&outcome.document, outcome.cache == want) {
            (Ok(document), true) => tracer.span("exec.render", || cell_digest(document)),
            (Ok(_), false) => Err(format!("served as {}", outcome.cache.label())),
            (Err(error), _) => Err(error.to_string()),
        };
        compare(
            expected,
            computed,
            format!("cell/{workload}/{config}"),
            digest,
            &mut tally,
        );
        by_cell.insert((workload, config), outcome.clone());
    }
    let mut ordered = Vec::with_capacity(by_cell.len());
    for workload in &canonical.workloads {
        for config in &canonical.configs {
            match by_cell.remove(&(workload.name().to_string(), config.name.clone())) {
                Some(outcome) => ordered.push(outcome),
                None => {
                    tally.record(false);
                    return tally;
                }
            }
        }
    }
    let stats = &results.stats;
    let canonical_results = tracer.span("exec.sweep", || {
        SweepResults::assemble(
            canonical.clone(),
            ordered,
            stats.workers,
            stats.steals,
            stats.wall_seconds,
        )
    });
    let table = tracer.span("exec.sweep", || canonical_results.ipc_table().to_csv());
    let aggregate = tracer.span("exec.sweep", || canonical_results.aggregate_json());
    compare(
        expected,
        computed,
        "sweep/ipc_table".to_string(),
        Ok(digest(table.as_bytes())),
        &mut tally,
    );
    compare(
        expected,
        computed,
        "sweep/aggregate".to_string(),
        Ok(digest(aggregate.as_bytes())),
        &mut tally,
    );
    for (key, value) in headline_pcts(&canonical_results) {
        compare(
            expected,
            computed,
            key,
            Ok(format!("{value:.6}")),
            &mut tally,
        );
    }
    tally
}

/// Geomean IPC of `1-port combined` and `1-port naive` as a percentage of
/// `2-port`, keyed `headline/combined_pct` and `headline/naive_pct`.
/// Empty when the grid lacks any of the three columns.
pub fn headline_pcts(results: &SweepResults) -> Vec<(String, f64)> {
    let plan = results.plan();
    let geomean = |name: &str| -> Option<f64> {
        let column = plan.configs.iter().position(|c| c.name == name)?;
        geometric_mean(
            (0..plan.workloads.len()).filter_map(|w| results.summary_number(w, column, "ipc")),
        )
    };
    let (Some(naive), Some(combined), Some(dual)) = (
        geomean("1-port naive"),
        geomean("1-port combined"),
        geomean("2-port"),
    ) else {
        return Vec::new();
    };
    vec![
        ("headline/combined_pct".to_string(), 100.0 * combined / dual),
        ("headline/naive_pct".to_string(), 100.0 * naive / dual),
    ]
}

/// A deterministic permutation of `items` drawn from `seed`
/// (splitmix64 driving a Fisher–Yates shuffle).
pub fn permuted<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_round_trips() {
        let parsed = parse_expected(EXPECTED);
        assert!(!parsed.is_empty());
        assert_eq!(parse_expected(&render_expected(&parsed)), parsed);
        assert!(parsed.contains_key("cell/compress/1-port naive"));
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let items: Vec<u32> = (0..18).collect();
        let a = permuted(&items, 1);
        assert_eq!(a, permuted(&items, 1));
        assert_ne!(a, permuted(&items, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items);
    }

    #[test]
    fn self_profile_is_excluded_from_the_cell_digest() {
        let a = r#"{"schema":3,"summary":{"ipc":1.5},"self_profile":{"wall_seconds":0.1}}"#;
        let b = r#"{"schema":3,"summary":{"ipc":1.5},"self_profile":{"wall_seconds":0.9}}"#;
        let c = r#"{"schema":3,"summary":{"ipc":1.6},"self_profile":{"wall_seconds":0.1}}"#;
        assert_eq!(cell_digest(a), cell_digest(b));
        assert_ne!(cell_digest(a), cell_digest(c));
        assert!(cell_digest("[1]").is_err());
    }
}
