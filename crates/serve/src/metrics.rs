//! Per-tenant counters and HDR-style latency histograms.
//!
//! Latencies are recorded in wall-clock nanoseconds into HDR-style
//! buckets: a log₂ major level subdivided into 32 linear sub-buckets,
//! so bucket width is always ≤ 1/32 of the value it covers. Quantile
//! snapshots report the *upper bound* of the bucket containing the
//! quantile rank — a deliberate over-estimate, but now bounded at
//! ≤ 3.2% above the true sample (values below 32 ns are exact), so a
//! reported p99 is never flattering and never more than ~1.04× reality.
//! The JSON export is handwritten and ordered (insertion-order keys, no
//! map iteration), so two runs with identical counts render
//! byte-identically.

use crate::edge::EdgeStats;
use crate::request::TenantId;

/// Linear sub-buckets per log₂ major level (the HDR "significant value
/// digits" knob): width ≤ value/32, so quantile over-estimates are
/// bounded at 1/32 ≈ 3.2%.
const SUB_BUCKETS: usize = 32;

/// log₂ of [`SUB_BUCKETS`].
const SUB_BITS: usize = 5;

/// Major levels above the exact range: values in `[2^m, 2^(m+1))` for
/// `m` in `SUB_BITS..64`.
const MAJORS: usize = 64 - SUB_BITS;

/// Values below `SUB_BUCKETS` get one exact bucket each; above that,
/// each of the `MAJORS` levels gets `SUB_BUCKETS` linear sub-buckets.
const BUCKETS: usize = SUB_BUCKETS + MAJORS * SUB_BUCKETS;

/// Bucket index for a (non-zero) sample: exact below [`SUB_BUCKETS`],
/// otherwise the top `SUB_BITS + 1` significant bits select the major
/// level and linear sub-bucket.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let major = 63 - ns.leading_zeros() as usize; // ≥ SUB_BITS
    let shift = major - SUB_BITS;
    // `ns >> shift` is in [SUB_BUCKETS, 2·SUB_BUCKETS).
    let sub = (ns >> shift) as usize - SUB_BUCKETS;
    SUB_BUCKETS + (major - SUB_BITS) * SUB_BUCKETS + sub
}

/// Largest value the bucket at `index` covers — what quantiles report.
fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let major = (index - SUB_BUCKETS) / SUB_BUCKETS + SUB_BITS;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    let shift = major - SUB_BITS;
    let next_lower = (SUB_BUCKETS + sub + 1) as u64;
    // The last bucket of the top major level would overflow; saturate.
    match next_lower.checked_shl(shift as u32) {
        Some(v) if v != 0 => v - 1,
        _ => u64::MAX,
    }
}

/// An HDR-style latency histogram: log₂ major levels × 32 linear
/// sub-buckets, quantile error bounded at ≤ 3.2% (exact below 32 ns).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample in nanoseconds (0 is clamped to 1).
    pub fn record(&mut self, ns: u64) {
        let ns = ns.max(1);
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q <= 1.0`); 0 when empty. The true quantile is within
    /// 1/32 (≈ 3.2%) below the reported value — exact below 32 ns.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report past the observed maximum: the top
                // occupied bucket's bound may exceed it slightly.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bounded upper-bound estimate).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th percentile (bounded upper-bound estimate).
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th percentile (bounded upper-bound estimate).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    fn json_into(&self, out: &mut String, indent: &str) {
        out.push_str(&format!("{indent}\"count\": {},\n", self.count));
        out.push_str(&format!("{indent}\"mean_ns\": {},\n", self.mean_ns()));
        out.push_str(&format!("{indent}\"p50_ns\": {},\n", self.p50_ns()));
        out.push_str(&format!("{indent}\"p90_ns\": {},\n", self.p90_ns()));
        out.push_str(&format!("{indent}\"p99_ns\": {},\n", self.p99_ns()));
        out.push_str(&format!("{indent}\"max_ns\": {}", self.max_ns()));
    }
}

/// One tenant's admission counters, kept under the tenant's admission
/// gate by its submitters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Admissions {
    pub(crate) submitted: u64,
    pub(crate) rejected_queue_full: u64,
    pub(crate) rejected_overloaded: u64,
    pub(crate) rejected_shutdown: u64,
    pub(crate) rejected_migrating: u64,
}

/// One tenant's completion counters, kept by the event loop.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantCounters {
    pub(crate) completed: u64,
    pub(crate) budget_deferrals: u64,
    pub(crate) latency: Histogram,
}

/// The counters the event loop keeps, per tenant; the admission
/// counters join them in a snapshot.
#[derive(Debug, Clone)]
pub(crate) struct Metrics {
    pub(crate) names: Vec<String>,
    pub(crate) tenants: Vec<TenantCounters>,
}

impl Metrics {
    pub(crate) fn new(names: Vec<String>) -> Self {
        Metrics {
            tenants: vec![TenantCounters::default(); names.len()],
            names,
        }
    }

    /// A snapshot with tenant `t`'s admission counters from
    /// `admissions(t)`.
    pub(crate) fn snapshot(&self, admissions: impl Fn(TenantId) -> Admissions) -> MetricsSnapshot {
        let mut overall = Histogram::new();
        for t in &self.tenants {
            overall.merge(&t.latency);
        }
        MetricsSnapshot {
            tenants: self
                .names
                .iter()
                .zip(self.tenants.iter())
                .enumerate()
                .map(|(id, (name, c))| {
                    let a = admissions(id);
                    TenantMetrics {
                        tenant: id,
                        name: name.clone(),
                        submitted: a.submitted,
                        completed: c.completed,
                        rejected_queue_full: a.rejected_queue_full,
                        rejected_overloaded: a.rejected_overloaded,
                        rejected_shutdown: a.rejected_shutdown,
                        rejected_migrating: a.rejected_migrating,
                        budget_deferrals: c.budget_deferrals,
                        latency: c.latency.clone(),
                    }
                })
                .collect(),
            overall,
        }
    }
}

/// One tenant's counters in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct TenantMetrics {
    /// Tenant ID (roster index).
    pub tenant: TenantId,
    /// Tenant display name.
    pub name: String,
    /// Operations accepted by [`crate::Service::submit`].
    pub submitted: u64,
    /// Operations fulfilled (ticket delivered).
    pub completed: u64,
    /// Submits rejected because this tenant's queue was full.
    pub rejected_queue_full: u64,
    /// Submits shed by the global overload bound.
    pub rejected_overloaded: u64,
    /// Submits refused during drain/shutdown.
    pub rejected_shutdown: u64,
    /// Submits shed while this tenant's queue was quiesced across a
    /// live migration ([`crate::Reject::Migrating`]).
    pub rejected_migrating: u64,
    /// Times the scheduler skipped this tenant because its per-bank
    /// bandwidth budget ([`crate::TenantSpec::bank_budget`]) was
    /// exhausted for the current window. A deferral delays the
    /// operation to a later slot; it never rejects it.
    pub budget_deferrals: u64,
    /// Admission-to-fulfillment wall-clock latency.
    pub latency: Histogram,
}

/// Point-in-time view of the service's counters.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-tenant counters, in roster order.
    pub tenants: Vec<TenantMetrics>,
    /// All tenants' latency samples merged.
    pub overall: Histogram,
}

impl MetricsSnapshot {
    /// Total operations fulfilled across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total submits rejected (all causes) across tenants.
    pub fn rejected(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| {
                t.rejected_queue_full
                    + t.rejected_overloaded
                    + t.rejected_shutdown
                    + t.rejected_migrating
            })
            .sum()
    }

    /// Render as ordered JSON (2-space indent, byte-stable for equal
    /// counter values).
    pub fn to_json(&self) -> String {
        let mut out = self.json_fields();
        out.push_str("\n}\n");
        out
    }

    /// [`MetricsSnapshot::to_json`] with the wire edge's counters beside
    /// the service's, under an `"edge"` key — the edge's answer to a
    /// `MetricsRequest` frame.
    pub(crate) fn to_json_with_edge(&self, edge: &EdgeStats) -> String {
        let mut out = self.json_fields();
        out.push_str(",\n  \"edge\": ");
        edge.json_into(&mut out);
        out.push_str("\n}\n");
        out
    }

    /// The JSON object's opening brace and fields, without the newline
    /// that ends the last field.
    fn json_fields(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"completed\": {},\n", self.completed()));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected()));
        out.push_str("  \"latency\": {\n");
        self.overall.json_into(&mut out, "    ");
        out.push_str("\n  },\n");
        out.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"tenant\": {},\n", t.tenant));
            out.push_str(&format!("      \"name\": \"{}\",\n", t.name));
            out.push_str(&format!("      \"submitted\": {},\n", t.submitted));
            out.push_str(&format!("      \"completed\": {},\n", t.completed));
            out.push_str(&format!(
                "      \"rejected_queue_full\": {},\n",
                t.rejected_queue_full
            ));
            out.push_str(&format!(
                "      \"rejected_overloaded\": {},\n",
                t.rejected_overloaded
            ));
            out.push_str(&format!(
                "      \"rejected_shutdown\": {},\n",
                t.rejected_shutdown
            ));
            out.push_str(&format!(
                "      \"rejected_migrating\": {},\n",
                t.rejected_migrating
            ));
            out.push_str(&format!(
                "      \"budget_deferrals\": {},\n",
                t.budget_deferrals
            ));
            out.push_str("      \"latency\": {\n");
            t.latency.json_into(&mut out, "        ");
            out.push_str("\n      }\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 == self.tenants.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_quantiles_bounded() {
        let mut h = Histogram::new();
        for ns in [1u64, 2, 3, 4, 100, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_ns(), 1_000_000);
        // p50 of 7 samples is the 4th (ns = 4) — below 32 ns buckets
        // are exact, so the median is reported exactly.
        assert_eq!(h.p50_ns(), 4);
        // p99 lands on the largest sample; the reported bound must be
        // at least the true value and within the 1/32 error budget.
        let p99 = h.p99_ns();
        assert!(p99 >= 1_000_000);
        assert!((p99 as f64) <= 1_000_000.0 * (1.0 + 1.0 / 32.0) + 1.0);
    }

    #[test]
    fn quantile_error_is_bounded_everywhere() {
        // Sweep magnitudes: the reported quantile of a single-sample
        // histogram must sit in [sample, sample · 33/32].
        let mut ns = 1u64;
        while ns < u64::MAX / 3 {
            let mut h = Histogram::new();
            h.record(ns);
            let q = h.quantile_ns(0.99);
            assert!(q >= ns, "under-estimate at {ns}: {q}");
            assert!(
                q as f64 <= ns as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                "error above 1/32 at {ns}: {q}"
            );
            ns = ns.saturating_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn index_and_bound_are_consistent() {
        // Every sample must land in a bucket whose upper bound is ≥ the
        // sample and whose predecessor's bound is < the sample.
        for ns in (0u64..4096).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let ns = ns.max(1);
            let i = bucket_index(ns);
            assert!(bucket_upper_bound(i) >= ns, "bound below sample at {ns}");
            if i > 1 {
                assert!(
                    bucket_upper_bound(i - 1) < ns,
                    "sample {ns} fits an earlier bucket"
                );
            }
        }
    }

    #[test]
    fn zero_sample_is_clamped_and_empty_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.p99_ns(), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50_ns(), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1000);
    }

    #[test]
    fn snapshot_json_is_ordered_and_stable() {
        let mut m = Metrics::new(vec!["a".into(), "b".into()]);
        m.tenants[0].completed = 2;
        m.tenants[0].latency.record(500);
        let admissions = |t: TenantId| {
            let mut a = Admissions::default();
            if t == 0 {
                a.submitted = 3;
            } else {
                a.rejected_queue_full = 1;
                a.rejected_migrating = 2;
            }
            a
        };
        let json = m.snapshot(admissions).to_json();
        assert_eq!(json, m.snapshot(admissions).to_json(), "byte-stable");
        assert!(json.contains("\"submitted\": 3"));
        let completed = json.find("\"completed\"").unwrap();
        let tenants = json.find("\"tenants\"").unwrap();
        assert!(completed < tenants, "key order fixed");
        assert!(json.contains("\"name\": \"b\""));
        assert!(json.contains("\"rejected_migrating\": 2"));
        assert!(json.contains("\"budget_deferrals\": 0"));
    }

    #[test]
    fn edge_counters_sit_beside_the_service_fields() {
        let snapshot = Metrics::new(vec!["a".into()]).snapshot(|_| Admissions::default());
        let edge = EdgeStats {
            accepted: 1,
            active: 2,
            shed_connections: 3,
            shed_submits: 4,
            responses: 5,
            rejects: 6,
            wire_errors: 7,
            drained_connections: 8,
            stale_completions: 9,
            wbuf_high_water: 10,
            edge_polls: 11,
            idle_spins: 12,
            parks: 13,
        };
        let plain = snapshot.to_json();
        let json = snapshot.to_json_with_edge(&edge);
        let fields = plain.strip_suffix("\n}\n").unwrap();
        let rest = json
            .strip_prefix(fields)
            .expect("the service fields come first");
        assert!(
            rest.starts_with(",\n  \"edge\": {\n    \"accepted\": 1,\n"),
            "{rest}"
        );
        assert!(rest.ends_with("    \"parks\": 13\n  }\n}\n"), "{rest}");
        assert!(rest.contains("\"idle_spins\": 12,"));
        assert!(rest.contains("\"edge_polls\": 11,"));
    }
}
