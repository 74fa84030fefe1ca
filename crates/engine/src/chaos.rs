//! Deterministic fault injection: named, seeded failpoints.
//!
//! A crash-safety layer is only trustworthy if its failure paths are
//! *exercised*, and failure paths are exactly the code that never runs in a
//! healthy test environment. This module gives the engine named injection
//! sites — artifact read/write I/O errors, torn writes, scenario panics,
//! stalls, and simulated process crashes — that fire deterministically from
//! a seeded trigger, so a chaos test reproduces bit-for-bit.
//!
//! Failpoints are **opt-in and inert by default**: every
//! [`crate::SweepRunner`] and [`crate::ResultCache`] starts with its own
//! empty [`FailpointSet`], which answers every [`FailpointSet::fire`] with
//! `None` through an is-empty fast path, so production sweeps pay one
//! branch per site. A set parsed with [`FailpointSet::parse`] is armed on
//! one runner by [`crate::SweepRunner::chaos`] (or on one cache by
//! [`crate::ResultCache::set_chaos`]); its hit ordinals count that runner's
//! hits only, so triggers reproduce per runner. Binaries that expose fault
//! injection read the configuration string at their own edge (the
//! experiment binaries read `HPCGRID_FAILPOINTS`).
//!
//! # Configuration grammar
//!
//! A configuration is a `;`-separated list of clauses:
//!
//! ```text
//! <site>=<action>[@<trigger>]
//!
//! action:  err | panic | truncate | crash | stall:<dur>   (dur: 10ns/5us/2ms/1s)
//! trigger: always | nth:<k> | every:<n> | prob:<p>:<seed>
//! ```
//!
//! For example, `engine.scenario.stall=stall:2ms@prob:0.05:42` stalls ~5% of
//! scenario executions for 2 ms, chosen by a seeded hash of the site's hit
//! ordinal — deterministic for a fixed sequence of hits. The sites the
//! engine defines live in [`sites`]; unknown site names are accepted (they
//! simply never fire), so one string can configure several binaries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Failpoint site names compiled into the engine.
pub mod sites {
    /// Before reading an artifact file the index says exists.
    pub const ARTIFACT_READ: &str = "engine.artifact.read";
    /// Before writing an artifact's temp file.
    pub const ARTIFACT_WRITE: &str = "engine.artifact.write";
    /// Truncate an artifact's bytes before they hit disk (a torn write the
    /// CRC must catch on the next read).
    pub const ARTIFACT_TRUNCATE: &str = "engine.artifact.truncate";
    /// Inside scenario execution, before the closure runs: panic.
    pub const SCENARIO_PANIC: &str = "engine.scenario.panic";
    /// Inside scenario execution, before the closure runs: return an
    /// I/O-classed error (exercises the seeded retry backoff).
    pub const SCENARIO_ERR: &str = "engine.scenario.err";
    /// Inside scenario execution, before the closure runs: stall (exercises
    /// the deadline watchdog).
    pub const SCENARIO_STALL: &str = "engine.scenario.stall";
    /// In the journaled fold's commit path: simulate process death — the
    /// sweep stops committing work and returns with `interrupted` set.
    pub const SWEEP_CRASH: &str = "engine.sweep.crash";
    /// In the run journal's append path: tear the record mid-write.
    pub const JOURNAL_TORN: &str = "engine.journal.torn";
}

/// What a fired failpoint does at its site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Surface an injected I/O-classed error.
    Err,
    /// Panic (exercises panic isolation / meter quarantine).
    Panic,
    /// Sleep for the given duration (exercises deadlines and watchdogs).
    Stall(Duration),
    /// Truncate the bytes about to be written (torn write).
    Truncate,
    /// Simulate process death at a commit point.
    Crash,
}

/// When a failpoint fires, as a function of its per-site hit ordinal
/// (1-based, counted per [`FailpointSet`] instance).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Every hit.
    Always,
    /// Exactly the `k`-th hit (1-based), once.
    Nth(u64),
    /// Every `n`-th hit (hit ordinals divisible by `n`).
    Every(u64),
    /// Each hit independently with probability `p`, decided by a seeded
    /// hash of the hit ordinal — deterministic for a fixed hit sequence.
    Prob { p: f64, seed: u64 },
}

#[derive(Debug)]
struct Failpoint {
    action: FaultAction,
    trigger: Trigger,
    hits: AtomicU64,
}

/// A named set of failpoints. Shared behind an `Arc` by the runner, its
/// cache, and its journal so one configuration governs a whole sweep.
#[derive(Debug, Default)]
pub struct FailpointSet {
    points: HashMap<String, Failpoint>,
}

impl FailpointSet {
    /// The inert set: every site answers `None`.
    pub fn empty() -> FailpointSet {
        FailpointSet::default()
    }

    /// True if no failpoints are configured (the production state).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Parse a configuration string (see the module docs for the grammar).
    pub fn parse(config: &str) -> Result<FailpointSet, String> {
        let mut points = HashMap::new();
        for clause in config.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, rest) = clause
                .split_once('=')
                .ok_or_else(|| format!("failpoint clause `{clause}` has no `=`"))?;
            let (action_text, trigger_text) = match rest.split_once('@') {
                Some((a, t)) => (a, Some(t)),
                None => (rest, None),
            };
            let action =
                parse_action(action_text.trim()).map_err(|e| format!("failpoint `{site}`: {e}"))?;
            let trigger = match trigger_text {
                Some(t) => {
                    parse_trigger(t.trim()).map_err(|e| format!("failpoint `{site}`: {e}"))?
                }
                None => Trigger::Always,
            };
            points.insert(
                site.trim().to_string(),
                Failpoint {
                    action,
                    trigger,
                    hits: AtomicU64::new(0),
                },
            );
        }
        Ok(FailpointSet { points })
    }

    /// Register a hit at `site` and return the action to apply if the
    /// site's trigger fires. The inert-set fast path is a single branch.
    pub fn fire(&self, site: &str) -> Option<FaultAction> {
        if self.points.is_empty() {
            return None;
        }
        let point = self.points.get(site)?;
        let ordinal = point.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = match point.trigger {
            Trigger::Always => true,
            Trigger::Nth(k) => ordinal == k,
            Trigger::Every(n) => n > 0 && ordinal.is_multiple_of(n),
            Trigger::Prob { p, seed } => unit_float(splitmix64(seed ^ ordinal)) < p,
        };
        fires.then(|| point.action.clone())
    }

    /// How many times `site` has been hit (fired or not) on this set.
    pub fn hits(&self, site: &str) -> u64 {
        self.points
            .get(site)
            .map(|p| p.hits.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Apply a fired fault at an I/O site: stalls sleep in place (no error),
/// panics panic, and everything else surfaces as an injected
/// `std::io::Error` the caller propagates. The error message carries the
/// site name and the `I/O` marker the retry backoff classifies on.
pub fn io_fault(site: &str, action: FaultAction) -> Option<std::io::Error> {
    match action {
        FaultAction::Stall(d) => {
            std::thread::sleep(d);
            None
        }
        FaultAction::Panic => panic!("injected panic (chaos failpoint {site})"),
        FaultAction::Err | FaultAction::Truncate | FaultAction::Crash => Some(
            std::io::Error::other(format!("injected I/O fault (chaos failpoint {site})")),
        ),
    }
}

fn parse_action(text: &str) -> Result<FaultAction, String> {
    match text {
        "err" => Ok(FaultAction::Err),
        "panic" => Ok(FaultAction::Panic),
        "truncate" => Ok(FaultAction::Truncate),
        "crash" => Ok(FaultAction::Crash),
        _ => match text.strip_prefix("stall:") {
            Some(dur) => Ok(FaultAction::Stall(parse_duration(dur)?)),
            None => Err(format!("unknown action `{text}`")),
        },
    }
}

fn parse_trigger(text: &str) -> Result<Trigger, String> {
    if text == "always" {
        return Ok(Trigger::Always);
    }
    if let Some(k) = text.strip_prefix("nth:") {
        let k: u64 = k.parse().map_err(|_| format!("bad nth count `{k}`"))?;
        if k == 0 {
            return Err("nth trigger is 1-based; use nth:1 for the first hit".to_string());
        }
        return Ok(Trigger::Nth(k));
    }
    if let Some(n) = text.strip_prefix("every:") {
        let n: u64 = n.parse().map_err(|_| format!("bad every count `{n}`"))?;
        if n == 0 {
            return Err("every trigger needs a period >= 1".to_string());
        }
        return Ok(Trigger::Every(n));
    }
    if let Some(rest) = text.strip_prefix("prob:") {
        let (p, seed) = rest
            .split_once(':')
            .ok_or_else(|| format!("prob trigger `{rest}` needs `prob:<p>:<seed>`"))?;
        let p: f64 = p.parse().map_err(|_| format!("bad probability `{p}`"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} outside [0, 1]"));
        }
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
        return Ok(Trigger::Prob { p, seed });
    }
    Err(format!("unknown trigger `{text}`"))
}

/// Parse a duration like `250ns`, `10us`, `2ms`, or `1s`.
fn parse_duration(text: &str) -> Result<Duration, String> {
    let (digits, unit): (String, String) = {
        let split = text
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len());
        (text[..split].to_string(), text[split..].to_string())
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration `{text}`"))?;
    match unit.as_str() {
        "ns" => Ok(Duration::from_nanos(n)),
        "us" => Ok(Duration::from_micros(n)),
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        _ => Err(format!("bad duration unit in `{text}` (ns/us/ms/s)")),
    }
}

/// SplitMix64 — the standard seeded bit mixer; full-period, stateless.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a u64 to `[0, 1)` using its top 53 bits.
pub(crate) fn unit_float(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_inert() {
        let set = FailpointSet::empty();
        assert!(set.is_empty());
        assert_eq!(set.fire(sites::SCENARIO_PANIC), None);
        assert_eq!(set.hits(sites::SCENARIO_PANIC), 0);
    }

    #[test]
    fn parse_full_grammar() {
        let set = FailpointSet::parse(
            "engine.artifact.read=err; engine.scenario.stall=stall:2ms@prob:0.5:42; \
             engine.sweep.crash=crash@nth:3; engine.artifact.write=truncate@every:2;",
        )
        .unwrap();
        assert_eq!(set.fire(sites::ARTIFACT_READ), Some(FaultAction::Err));
        assert_eq!(set.fire(sites::ARTIFACT_READ), Some(FaultAction::Err));
        // nth:3 fires exactly on the third hit.
        assert_eq!(set.fire(sites::SWEEP_CRASH), None);
        assert_eq!(set.fire(sites::SWEEP_CRASH), None);
        assert_eq!(set.fire(sites::SWEEP_CRASH), Some(FaultAction::Crash));
        assert_eq!(set.fire(sites::SWEEP_CRASH), None);
        // every:2 fires on even ordinals.
        assert_eq!(set.fire(sites::ARTIFACT_WRITE), None);
        assert_eq!(set.fire(sites::ARTIFACT_WRITE), Some(FaultAction::Truncate));
        assert_eq!(set.fire(sites::ARTIFACT_WRITE), None);
        assert_eq!(set.fire(sites::ARTIFACT_WRITE), Some(FaultAction::Truncate));
        assert_eq!(set.hits(sites::ARTIFACT_WRITE), 4);
    }

    #[test]
    fn prob_trigger_is_seeded_and_deterministic() {
        let draw = |seed: u64| -> Vec<bool> {
            let set = FailpointSet::parse(&format!("x=err@prob:0.3:{seed}")).unwrap();
            (0..64).map(|_| set.fire("x").is_some()).collect()
        };
        let a = draw(7);
        let b = draw(7);
        let c = draw(8);
        assert_eq!(a, b, "same seed, same firing sequence");
        assert_ne!(a, c, "different seed, different sequence");
        let rate = a.iter().filter(|f| **f).count();
        assert!((5..=33).contains(&rate), "~30% of 64, got {rate}");
    }

    #[test]
    fn stall_durations_parse() {
        assert_eq!(
            parse_action("stall:250us").unwrap(),
            FaultAction::Stall(Duration::from_micros(250))
        );
        assert_eq!(
            parse_action("stall:1s").unwrap(),
            FaultAction::Stall(Duration::from_secs(1))
        );
        assert!(parse_action("stall:5min").is_err());
    }

    #[test]
    fn malformed_configs_are_rejected() {
        assert!(FailpointSet::parse("no-equals-sign").is_err());
        assert!(FailpointSet::parse("x=explode").is_err());
        assert!(FailpointSet::parse("x=err@prob:1.5:1").is_err());
        assert!(FailpointSet::parse("x=err@nth:0").is_err());
        assert!(FailpointSet::parse("x=err@sometimes").is_err());
        // Empty and whitespace-only configs are the inert set.
        assert!(FailpointSet::parse("").unwrap().is_empty());
        assert!(FailpointSet::parse(" ; ; ").unwrap().is_empty());
    }

    #[test]
    fn io_fault_maps_actions() {
        let err = io_fault("s", FaultAction::Err).unwrap();
        assert!(err.to_string().contains("injected I/O fault"));
        assert!(io_fault("s", FaultAction::Stall(Duration::ZERO)).is_none());
        assert!(io_fault("s", FaultAction::Truncate).is_some());
    }
}
