//! Scenario specifications: the unit of work the engine schedules, caches,
//! and reports on.
//!
//! A [`ScenarioSpec`] is a *complete, serializable description* of one
//! simulation point in a sweep — site, workload seed, horizon, contract,
//! scheduling policy, and free-form market/sweep parameters. Two specs that
//! describe the same scenario hash to the same [`ContentHash`], which is what
//! makes the result cache content-addressed: re-running an overlapping sweep
//! only computes the delta.

use crate::hash::{ContentHash, Fnv128};
use serde::{DeError, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A free-form scenario parameter value.
///
/// Kept deliberately small: every parameter a sweep varies must round-trip
/// through JSON artifacts bit-exactly, and must order into the spec's
/// canonical form for hashing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// A real-valued parameter (prices, shares, factors).
    Float(f64),
    /// An integer parameter (counts, hours, indices).
    Int(i64),
    /// A textual parameter (variant names, strategy labels).
    Text(String),
    /// A boolean flag.
    Flag(bool),
}

impl ParamValue {
    /// Float view (ints widen); `None` for text/flags.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Float(f) => Some(*f),
            ParamValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Integer view; `None` otherwise.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Feed the canonical form of this value's serde rendering, an
    /// externally tagged one-entry map, to `h`.
    fn hash_into(&self, h: &mut Fnv128) {
        h.map_header(1);
        match self {
            ParamValue::Float(f) => {
                h.key("Float");
                h.float(*f);
            }
            ParamValue::Int(i) => {
                h.key("Int");
                h.int(*i);
            }
            ParamValue::Text(s) => {
                h.key("Text");
                h.str(s);
            }
            ParamValue::Flag(b) => {
                h.key("Flag");
                h.flag(*b);
            }
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Text(v) => write!(f, "{v}"),
            ParamValue::Flag(v) => write!(f, "{v}"),
        }
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> ParamValue {
        ParamValue::Float(v)
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> ParamValue {
        ParamValue::Int(v)
    }
}

impl From<usize> for ParamValue {
    fn from(v: usize) -> ParamValue {
        ParamValue::Int(v as i64)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> ParamValue {
        ParamValue::Text(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> ParamValue {
        ParamValue::Text(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> ParamValue {
        ParamValue::Flag(v)
    }
}

/// A complete, serializable description of one sweep scenario.
///
/// The map-like `params` field is a `BTreeMap`, so insertion order never
/// leaks into the serialized form — specs built with the same parameters in
/// any order hash identically (see the property tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Which experiment family this scenario belongs to (e.g.
    /// `"tariff_sensitivity"`). Scopes the cache: the same parameters under
    /// a different experiment are a different scenario.
    pub experiment: String,
    /// Site identifier (e.g. `"exp-site"`).
    pub site: String,
    /// Workload trace seed.
    pub trace_seed: u64,
    /// Simulation horizon in days.
    pub horizon_days: u64,
    /// Contract variant under test (free-form label, e.g. `"typical"`).
    pub contract: String,
    /// Scheduling policy label (e.g. `"easy-backfill"`).
    pub policy: String,
    /// Market and sweep parameters (tariff multipliers, DR shares, ...).
    pub params: BTreeMap<String, ParamValue>,
}

impl ScenarioSpec {
    /// Start building a spec for an experiment family.
    pub fn builder(experiment: impl Into<String>) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            spec: ScenarioSpec {
                experiment: experiment.into(),
                site: "exp-site".to_string(),
                trace_seed: 0,
                horizon_days: 30,
                contract: "typical".to_string(),
                policy: "easy-backfill".to_string(),
                params: BTreeMap::new(),
            },
        }
    }

    /// The spec's stable content hash — the engine's cache key.
    ///
    /// Parameter insertion order never leaks into the hash, and any real
    /// change to the scenario does:
    ///
    /// ```
    /// use hpcgrid_engine::ScenarioSpec;
    ///
    /// let a = ScenarioSpec::builder("sweep").param("x", 1.0).param("y", 2.0).build();
    /// let b = ScenarioSpec::builder("sweep").param("y", 2.0).param("x", 1.0).build();
    /// assert_eq!(a.content_hash(), b.content_hash());
    ///
    /// let c = ScenarioSpec::builder("sweep").param("x", 1.5).param("y", 2.0).build();
    /// assert_ne!(a.content_hash(), c.content_hash());
    /// ```
    ///
    /// The digest is [`crate::content_hash`] of the spec's serde form,
    /// computed straight from the fields: each one goes to the hasher in
    /// the serde form's sorted key order (`params` is already a sorted
    /// map), so no value tree is built and nothing is sorted.
    pub fn content_hash(&self) -> ContentHash {
        // Exhaustive: a new field does not compile until the walk hashes it.
        let ScenarioSpec {
            experiment,
            site,
            trace_seed,
            horizon_days,
            contract,
            policy,
            params,
        } = self;
        let mut h = Fnv128::default();
        h.map_header(7);
        h.key("contract");
        h.str(contract);
        h.key("experiment");
        h.str(experiment);
        h.key("horizon_days");
        h.uint(*horizon_days);
        h.key("params");
        h.map_header(params.len());
        for (k, v) in params {
            h.key(k);
            v.hash_into(&mut h);
        }
        h.key("policy");
        h.str(policy);
        h.key("site");
        h.str(site);
        h.key("trace_seed");
        h.uint(*trace_seed);
        h.finish()
    }

    /// Deterministic per-scenario RNG seed, derived from the content hash
    /// folded with the trace seed. Identical specs always simulate with the
    /// same randomness, including across retries and processes.
    pub fn derived_seed(&self) -> u64 {
        self.derived_seed_from(self.content_hash())
    }

    /// [`ScenarioSpec::derived_seed`] from this spec's content hash `key`,
    /// for a caller that already holds it.
    pub(crate) fn derived_seed_from(&self, key: ContentHash) -> u64 {
        key.fold_u64() ^ self.trace_seed.rotate_left(17)
    }

    /// Short human label: experiment plus the varied parameters.
    pub fn label(&self) -> String {
        if self.params.is_empty() {
            format!("{}/{}", self.experiment, self.contract)
        } else {
            let params: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!(
                "{}/{}[{}]",
                self.experiment,
                self.contract,
                params.join(",")
            )
        }
    }

    /// Fetch a parameter, as a typed error if absent.
    pub fn param(&self, key: &str) -> Result<&ParamValue, DeError> {
        self.params
            .get(key)
            .ok_or_else(|| DeError::custom(format!("scenario is missing param `{key}`")))
    }

    /// Fetch a float parameter (integer params widen).
    pub fn param_f64(&self, key: &str) -> Result<f64, DeError> {
        self.param(key)?
            .as_f64()
            .ok_or_else(|| DeError::custom(format!("param `{key}` is not numeric")))
    }

    /// Fetch an integer parameter.
    pub fn param_i64(&self, key: &str) -> Result<i64, DeError> {
        self.param(key)?
            .as_i64()
            .ok_or_else(|| DeError::custom(format!("param `{key}` is not an integer")))
    }

    /// Fetch a text parameter.
    pub fn param_str(&self, key: &str) -> Result<&str, DeError> {
        self.param(key)?
            .as_str()
            .ok_or_else(|| DeError::custom(format!("param `{key}` is not text")))
    }

    /// The base-contract fingerprint recorded by
    /// [`ScenarioSpecBuilder::base_contract`], if any.
    pub fn base_contract(&self) -> Option<&str> {
        self.params.get(Self::BASE_CONTRACT_PARAM)?.as_str()
    }

    /// The contract-delta label recorded by [`ScenarioSpecBuilder::delta`],
    /// if any.
    pub fn delta(&self) -> Option<&str> {
        self.params.get(Self::DELTA_PARAM)?.as_str()
    }

    /// The billing-precision label recorded by
    /// [`ScenarioSpecBuilder::precision`], if any. `None` means the
    /// scenario bills at the default bit-exact precision.
    pub fn precision(&self) -> Option<&str> {
        self.params.get(Self::PRECISION_PARAM)?.as_str()
    }

    /// The contract-ledger revision recorded by
    /// [`ScenarioSpecBuilder::ledger_revision`], if any. `None` means the
    /// scenario bills a fixed contract rather than a ledger stream.
    pub fn ledger_revision(&self) -> Option<i64> {
        self.params.get(Self::LEDGER_REVISION_PARAM)?.as_i64()
    }

    /// Reserved param key naming the compiled base contract a patch-path
    /// scenario splices on top of.
    pub const BASE_CONTRACT_PARAM: &'static str = "base_contract";

    /// Reserved param key naming the contract delta a patch-path scenario
    /// applies to its base.
    pub const DELTA_PARAM: &'static str = "delta";

    /// Reserved param key naming the billing precision a scenario evaluates
    /// at (`"bit_exact"` or `"fast"`).
    pub const PRECISION_PARAM: &'static str = "precision";

    /// Reserved param key recording the contract-ledger revision an as-of
    /// billing scenario hydrates at.
    pub const LEDGER_REVISION_PARAM: &'static str = "ledger_revision";

    /// The canonical serialized form (sorted keys at every level) — what the
    /// content hash is computed over.
    pub fn canonical_json(&self) -> String {
        let mut v = self.to_value();
        crate::hash::canonicalize(&mut v);
        serde_json::to_string(&v).expect("value serialization is infallible")
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.label(), self.content_hash())
    }
}

/// Builder for [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    spec: ScenarioSpec,
}

impl ScenarioSpecBuilder {
    /// Set the site identifier.
    pub fn site(mut self, site: impl Into<String>) -> Self {
        self.spec.site = site.into();
        self
    }

    /// Set the workload trace seed.
    pub fn trace_seed(mut self, seed: u64) -> Self {
        self.spec.trace_seed = seed;
        self
    }

    /// Set the horizon in days.
    pub fn horizon_days(mut self, days: u64) -> Self {
        self.spec.horizon_days = days;
        self
    }

    /// Set the contract label.
    pub fn contract(mut self, contract: impl Into<String>) -> Self {
        self.spec.contract = contract.into();
        self
    }

    /// Set the policy label.
    pub fn policy(mut self, policy: impl Into<String>) -> Self {
        self.spec.policy = policy.into();
        self
    }

    /// Add one sweep parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.spec.params.insert(key.into(), value.into());
        self
    }

    /// Record the compiled base contract a patch-path scenario splices on
    /// top of, as the reserved [`ScenarioSpec::BASE_CONTRACT_PARAM`] param.
    ///
    /// Pass the base kernel's component fingerprint in hex (e.g.
    /// `CompiledContract::fingerprint().to_hex()` from `hpcgrid-core`): two
    /// sweeps over the same deltas but different base kernels then cache
    /// under different keys.
    pub fn base_contract(self, fingerprint: impl Into<String>) -> Self {
        self.param(ScenarioSpec::BASE_CONTRACT_PARAM, fingerprint.into())
    }

    /// Record the contract delta a patch-path scenario applies to its base,
    /// as the reserved [`ScenarioSpec::DELTA_PARAM`] param. Use a stable
    /// human-readable label (e.g. `ContractDelta::label()` from
    /// `hpcgrid-core`).
    pub fn delta(self, label: impl Into<String>) -> Self {
        self.param(ScenarioSpec::DELTA_PARAM, label.into())
    }

    /// Record the billing precision a scenario evaluates at, as the
    /// reserved [`ScenarioSpec::PRECISION_PARAM`] param. Use the stable
    /// label from `Precision::label()` in `hpcgrid-core` (`"bit_exact"` or
    /// `"fast"`): bit-exact and fast runs of the same sweep then cache
    /// under different content hashes, so a tolerance-mode re-run never
    /// serves results computed at the other precision.
    pub fn precision(self, label: impl Into<String>) -> Self {
        self.param(ScenarioSpec::PRECISION_PARAM, label.into())
    }

    /// Record the contract-ledger revision an as-of billing scenario
    /// hydrates at, as the reserved [`ScenarioSpec::LEDGER_REVISION_PARAM`]
    /// param. Scenarios billing different revisions of the same stream
    /// then cache under different content hashes, so a sweep over a
    /// renegotiation's timing never serves a bill hydrated at another
    /// revision.
    pub fn ledger_revision(self, revision: i64) -> Self {
        self.param(ScenarioSpec::LEDGER_REVISION_PARAM, revision)
    }

    /// Finish the spec.
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::builder("demo")
            .trace_seed(7)
            .horizon_days(14)
            .contract("fixed")
            .param("share", 0.066)
            .param("hours", 40usize)
            .build()
    }

    #[test]
    fn hash_is_stable_across_clones() {
        let a = spec();
        let b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.derived_seed(), b.derived_seed());
    }

    #[test]
    fn param_order_does_not_change_hash() {
        let a = ScenarioSpec::builder("demo")
            .param("a", 1.0)
            .param("b", 2.0)
            .build();
        let b = ScenarioSpec::builder("demo")
            .param("b", 2.0)
            .param("a", 1.0)
            .build();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn any_field_change_changes_hash() {
        let base = spec();
        let variants = [
            ScenarioSpec {
                trace_seed: 8,
                ..base.clone()
            },
            ScenarioSpec {
                horizon_days: 15,
                ..base.clone()
            },
            ScenarioSpec {
                contract: "tou".into(),
                ..base.clone()
            },
            ScenarioSpec {
                experiment: "other".into(),
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(v.content_hash(), base.content_hash(), "{v}");
        }
        let mut p = base.clone();
        p.params.insert("share".into(), ParamValue::Float(0.067));
        assert_ne!(p.content_hash(), base.content_hash());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let a = spec();
        let text = serde_json::to_string(&a).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(a, back);
        assert_eq!(a.content_hash(), back.content_hash());
    }

    #[test]
    fn base_contract_and_delta_are_reserved_params() {
        let plain = spec();
        assert_eq!(plain.base_contract(), None);
        assert_eq!(plain.delta(), None);

        let patched = ScenarioSpec::builder("tariff_sensitivity")
            .base_contract("a1b2c3d4e5f60718")
            .delta("replace_strip#2[720]")
            .build();
        assert_eq!(patched.base_contract(), Some("a1b2c3d4e5f60718"));
        assert_eq!(patched.delta(), Some("replace_strip#2[720]"));
        // Reserved params participate in the content hash like any other.
        let other_base = ScenarioSpec::builder("tariff_sensitivity")
            .base_contract("ffffffffffffffff")
            .delta("replace_strip#2[720]")
            .build();
        assert_ne!(patched.content_hash(), other_base.content_hash());
    }

    #[test]
    fn precision_is_a_reserved_param() {
        let plain = spec();
        assert_eq!(plain.precision(), None);

        let fast = ScenarioSpec::builder("tariff_sensitivity")
            .precision("fast")
            .build();
        assert_eq!(fast.precision(), Some("fast"));
        // Precision separates cache keys: the same sweep at bit-exact
        // precision must never be served a fast-mode result (or vice versa).
        let exact = ScenarioSpec::builder("tariff_sensitivity")
            .precision("bit_exact")
            .build();
        assert_ne!(fast.content_hash(), exact.content_hash());
    }

    #[test]
    fn ledger_revision_is_a_reserved_param() {
        let plain = spec();
        assert_eq!(plain.ledger_revision(), None);

        let rev1 = ScenarioSpec::builder("ledger_asof")
            .ledger_revision(1)
            .build();
        assert_eq!(rev1.ledger_revision(), Some(1));
        // Revision separates cache keys: billing the same stream hydrated
        // at a different revision must never share a cached result.
        let rev2 = ScenarioSpec::builder("ledger_asof")
            .ledger_revision(2)
            .build();
        assert_ne!(rev1.content_hash(), rev2.content_hash());
    }

    #[test]
    fn typed_param_access() {
        let s = spec();
        assert_eq!(s.param_f64("share").unwrap(), 0.066);
        assert_eq!(s.param_i64("hours").unwrap(), 40);
        assert!(s.param_f64("missing").is_err());
        assert!(s.param_str("share").is_err());
    }
}
