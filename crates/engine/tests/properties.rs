//! Property tests for the engine's hashing and caching invariants.

use hpcgrid_engine::{ArtifactFormat, ParamValue, ResultCache, ScenarioSpec, SweepRunner};
use proptest::prelude::*;

/// Build a spec from a parameter list, inserting params in the given order.
fn spec_from(seed: u64, horizon: u64, contract: &str, params: &[(String, f64)]) -> ScenarioSpec {
    let mut b = ScenarioSpec::builder("prop")
        .trace_seed(seed)
        .horizon_days(horizon)
        .contract(contract);
    for (k, v) in params {
        b = b.param(k.clone(), *v);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hashing is deterministic: the same spec always hashes the same, even
    /// when rebuilt from scratch or round-tripped through JSON.
    #[test]
    fn hash_is_deterministic(
        seed in 0u64..1_000_000,
        horizon in 1u64..3650,
        contract in prop::sample::select(vec!["typical", "tou", "dynamic", "powerband"]),
        a in -1.0e6f64..1.0e6,
        b in -1.0e6f64..1.0e6,
    ) {
        let params = vec![("alpha".to_string(), a), ("beta".to_string(), b)];
        let x = spec_from(seed, horizon, contract, &params);
        let y = spec_from(seed, horizon, contract, &params);
        prop_assert_eq!(x.content_hash(), y.content_hash());
        prop_assert_eq!(x.derived_seed(), y.derived_seed());

        let text = serde_json::to_string(&x).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back.content_hash(), x.content_hash());
    }

    /// Hashing is order-insensitive for the map-like `params` field:
    /// inserting the same parameters in any order yields the same hash.
    #[test]
    fn hash_ignores_param_insertion_order(
        seed in 0u64..1000,
        vals in prop::collection::vec(-100.0f64..100.0, 2..6),
    ) {
        let forward: Vec<(String, f64)> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("p{i}"), *v))
            .collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        // A rotation as a third order, to not only test reversal.
        let mut rotated = forward.clone();
        rotated.rotate_left(1);

        let a = spec_from(seed, 30, "typical", &forward);
        let b = spec_from(seed, 30, "typical", &reversed);
        let c = spec_from(seed, 30, "typical", &rotated);
        prop_assert_eq!(a.content_hash(), b.content_hash());
        prop_assert_eq!(a.content_hash(), c.content_hash());
        prop_assert_eq!(a.canonical_json(), b.canonical_json());
    }

    /// Distinct parameter values give distinct hashes (no accidental
    /// collisions across a sweep axis).
    #[test]
    fn hash_separates_sweep_points(
        base in -1.0e3f64..1.0e3,
        delta in 1.0e-6f64..1.0e3,
    ) {
        let x = spec_from(1, 30, "typical", &[("v".to_string(), base)]);
        let y = spec_from(1, 30, "typical", &[("v".to_string(), base + delta)]);
        prop_assume!(base + delta != base);
        prop_assert_ne!(x.content_hash(), y.content_hash());
    }

    /// Cache round trip is bit-identical for arbitrary float payloads, both
    /// in memory and through JSON artifacts.
    #[test]
    fn cache_round_trip_is_bit_identical(
        seed in 0u64..100_000,
        payload in prop::collection::vec(-1.0e9f64..1.0e9, 1..8),
    ) {
        let spec = spec_from(seed, 30, "typical", &[("x".to_string(), 1.0)]);

        let mut mem: ResultCache<Vec<f64>> = ResultCache::in_memory();
        mem.put(&spec, &payload).unwrap();
        let (got, _) = mem.get(spec.content_hash()).unwrap().unwrap();
        for (a, b) in payload.iter().zip(got.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let dir = std::env::temp_dir().join(format!(
            "hpcgrid-prop-cache-{}-{}",
            std::process::id(),
            seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut disk: ResultCache<Vec<f64>> = ResultCache::with_artifact_dir(&dir).unwrap();
        disk.put(&spec, &payload).unwrap();
        disk.clear_memory();
        let (from_disk, _) = disk.get(spec.content_hash()).unwrap().unwrap();
        for (a, b) in payload.iter().zip(from_disk.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A panicking scenario in a random position yields exactly one
    /// `ScenarioError` while every other scenario completes.
    #[test]
    fn one_panic_never_takes_down_a_sweep(
        n in 10u64..40,
        frac in 0.0f64..1.0,
    ) {
        let bad = ((n as f64 - 1.0) * frac) as i64;
        let specs: Vec<ScenarioSpec> = (0..n)
            .map(|i| {
                ScenarioSpec::builder("prop-panic")
                    .trace_seed(n)
                    .param("i", i as i64)
                    .build()
            })
            .collect();
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&specs, |ctx| {
            let i = ctx.spec.param_i64("i")?;
            if i == bad {
                panic!("prop fault");
            }
            Ok(i)
        });
        prop_assert_eq!(outcome.errors().count(), 1);
        prop_assert_eq!(outcome.successes().count(), n as usize - 1);
        prop_assert!(outcome.results[bad as usize].is_err());
        prop_assert_eq!(outcome.report.failed, 1);
    }
}

/// `ParamValue` conversions keep their type through serialization (an Int
/// never silently becomes a Float, which would change the hash).
#[test]
fn param_value_types_survive_round_trip() {
    let spec = ScenarioSpec::builder("types")
        .param("f", 3.0f64)
        .param("i", 3i64)
        .param("s", "three")
        .param("b", true)
        .build();
    let text = serde_json::to_string(&spec).unwrap();
    let back: ScenarioSpec = serde_json::from_str(&text).unwrap();
    assert_eq!(back.params["f"], ParamValue::Float(3.0));
    assert_eq!(back.params["i"], ParamValue::Int(3));
    assert_eq!(back.params["s"], ParamValue::Text("three".to_string()));
    assert_eq!(back.params["b"], ParamValue::Flag(true));
    // And the float/int distinction is hash-relevant.
    let f = ScenarioSpec::builder("types").param("v", 3.0f64).build();
    let i = ScenarioSpec::builder("types").param("v", 3i64).build();
    assert_ne!(f.content_hash(), i.content_hash());
}

/// Any `ParamValue`: every variant, with the floats the canonical form
/// treats specially (NaN, ±∞, ±0.0, integral values in and out of `i64`)
/// and the `i64` extremes.
fn any_param_value() -> impl Strategy<Value = ParamValue> {
    let special_floats = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        2.0,
        -3.0,
        2f64.powi(63),
        -(2f64.powi(63)),
        1e300,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    prop_oneof![
        prop::sample::select(special_floats).prop_map(ParamValue::Float),
        (-1.0e9f64..1.0e9).prop_map(ParamValue::Float),
        (-1.0e6f64..1.0e6).prop_map(|f| ParamValue::Float(f.round())),
        (i64::MIN..=i64::MAX).prop_map(ParamValue::Int),
        prop::sample::select(vec![i64::MIN, i64::MAX, 0, -1]).prop_map(ParamValue::Int),
        prop::sample::select(vec!["", "bit_exact", "Zürich ⚡ 東京", "a\"b\\c"])
            .prop_map(|s| ParamValue::Text(s.to_string())),
        prop::sample::select(vec![true, false]).prop_map(ParamValue::Flag),
    ]
}

/// A `u64` field value: small, or at or above `i64::MAX`.
fn any_u64_field() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..10_000,
        (i64::MAX as u64 - 2)..=u64::MAX,
        prop::sample::select(vec![0, i64::MAX as u64 + 1, u64::MAX]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The field walk behind `ScenarioSpec::content_hash` is the
    /// value-tree hash of the spec's serde form, digest for digest, and the
    /// derived seed follows from it.
    #[test]
    fn field_walk_matches_the_value_tree_oracle(
        trace_seed in any_u64_field(),
        horizon_days in any_u64_field(),
        labels in prop::collection::vec(
            prop::sample::select(vec!["", "typical", "exp-site", "écart ≤ 5%", "B", "a"]),
            4..5,
        ),
        params in prop::collection::vec(
            (
                prop::sample::select(vec![
                    "", "a", "B", "é", "x", "p0", "p10", "p9", "base_contract", "delta",
                    "precision", "ledger_revision",
                ]),
                any_param_value(),
            ),
            0..10,
        ),
    ) {
        use serde::Serialize;
        let mut b = ScenarioSpec::builder(labels[0])
            .site(labels[1])
            .contract(labels[2])
            .policy(labels[3])
            .trace_seed(trace_seed)
            .horizon_days(horizon_days);
        for (k, v) in params {
            b = b.param(k, v);
        }
        let spec = b.build();
        let oracle = hpcgrid_engine::content_hash(&spec.to_value());
        prop_assert_eq!(spec.content_hash(), oracle);
        prop_assert_eq!(
            spec.derived_seed(),
            oracle.fold_u64() ^ spec.trace_seed.rotate_left(17)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The binary artifact codec round-trips arbitrary value trees exactly,
    /// and binary vs JSON artifacts for the same payload decode to
    /// bit-identical results.
    #[test]
    fn binary_and_json_artifacts_are_bit_identical(
        seed in 0u64..100_000,
        raw in prop::collection::vec(-1.0e18f64..1.0e18, 1..8),
    ) {
        use hpcgrid_engine::ArtifactFormat;
        // Stretch the drawn values into awkward full-mantissa bit patterns.
        let payload: Vec<f64> = raw.iter().map(|v| v / 3.0 + 1e-13 * v.abs().sqrt()).collect();
        let spec = spec_from(seed, 30, "typical", &[("x".to_string(), 1.0)]);
        let mut decoded: Vec<Vec<f64>> = Vec::new();
        for format in [ArtifactFormat::Binary, ArtifactFormat::Json] {
            let dir = std::env::temp_dir().join(format!(
                "hpcgrid-prop-fmt-{}-{}-{}",
                format.label(),
                std::process::id(),
                seed
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cache: ResultCache<Vec<f64>> =
                ResultCache::with_artifact_dir_and_format(&dir, format).unwrap();
            cache.put(&spec, &payload).unwrap();
            cache.clear_memory();
            let (got, _) = cache.get(spec.content_hash()).unwrap().unwrap();
            prop_assert_eq!(got.len(), payload.len());
            for (a, b) in payload.iter().zip(got.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            decoded.push(got);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        for (a, b) in decoded[0].iter().zip(decoded[1].iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streaming `run_fold` over a shuffled 1 000-scenario sweep is
    /// bit-identical to `run` + a sequential fold — including when one
    /// scenario panics on its first attempt and recovers on a retry.
    /// (The fold is a commutative monoid over exact integer ops, so worker
    /// finish order cannot leak into the aggregate.)
    #[test]
    fn run_fold_matches_run_over_shuffled_sweeps(
        shuffle_seed in 0u64..u64::MAX,
        flaky_pick in 0usize..1000,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let mut specs: Vec<ScenarioSpec> = (0..1000u64)
            .map(|i| {
                ScenarioSpec::builder("prop-fold")
                    .trace_seed(7)
                    .param("i", i as i64)
                    .build()
            })
            .collect();
        // Fisher–Yates with a simple LCG off the proptest-drawn seed.
        let mut state = shuffle_seed | 1;
        for i in (1..specs.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            specs.swap(i, j);
        }
        let flaky = specs[flaky_pick].content_hash();

        // Scenario: an exact integer pair; fold: (wrapping sum, xor) —
        // commutative, associative, and bit-exact in any order.
        let scenario = |ctx: hpcgrid_engine::ScenarioCtx<'_>| -> Result<(u64, u64), String> {
            let i = ctx.spec.param_i64("i")? as u64;
            Ok((i.wrapping_mul(0x9E3779B97F4A7C15), ctx.seed))
        };

        let mut baseline: SweepRunner<(u64, u64)> = SweepRunner::new();
        let expected = baseline
            .run(&specs, scenario)
            .expect_all("baseline run")
            .into_iter()
            .fold((0u64, 0u64), |(s, x), (a, b)| (s.wrapping_add(a), x ^ b));

        // Fold runner: the picked scenario panics on its first attempt and
        // succeeds on the retry, proving panic isolation + retry budget
        // leave the aggregate bit-identical.
        let first_attempt = AtomicUsize::new(0);
        let mut folding: SweepRunner<(u64, u64)> =
            SweepRunner::new().retry(hpcgrid_engine::RetryPolicy::with_budget(1));
        let outcome = folding.run_fold(
            &specs,
            |ctx| {
                if ctx.spec.content_hash() == flaky
                    && first_attempt.fetch_add(1, Ordering::SeqCst) == 0
                {
                    panic!("transient prop fault");
                }
                scenario(ctx)
            },
            (0u64, 0u64),
            |(s, x), (a, b)| (s.wrapping_add(a), x ^ b),
            |(s1, x1), (s2, x2)| (s1.wrapping_add(s2), x1 ^ x2),
        );
        prop_assert!(outcome.errors.is_empty());
        prop_assert_eq!(outcome.report.retries, 1);
        prop_assert_eq!(outcome.report.executed, 1000);
        prop_assert_eq!(outcome.value, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill-and-resume: crash a journaled 1000-scenario fold, with seeded
    /// scenario stalls, at an arbitrary commit point, resume from the
    /// journal on a fresh runner, and the final fold is bit-identical to an
    /// uninterrupted run — with zero re-execution of any journaled scenario.
    #[test]
    fn kill_and_resume_is_bit_identical_with_zero_reexecution(
        crash_at in 1u64..=1000,
        checkpoint_every in 1usize..200,
    ) {
        use hpcgrid_engine::{FailpointSet, RunJournal};
        use std::collections::HashSet;
        use std::sync::Mutex;

        let specs: Vec<ScenarioSpec> = (0..1000u64)
            .map(|i| {
                ScenarioSpec::builder("prop-resume")
                    .trace_seed(11)
                    .param("i", i as i64)
                    .build()
            })
            .collect();

        // Exact integer fold — (wrapping sum, xor) is a commutative monoid,
        // so "bit-identical" is meaningful regardless of completion order.
        let scenario = |ctx: hpcgrid_engine::ScenarioCtx<'_>| -> Result<(u64, u64), String> {
            let i = ctx.spec.param_i64("i")? as u64;
            Ok((i.wrapping_mul(0x9E3779B97F4A7C15), ctx.seed))
        };
        let fold = |(s, x): (u64, u64), (a, b): (u64, u64)| (s.wrapping_add(a), x ^ b);
        let expected = {
            let mut baseline: SweepRunner<(u64, u64)> = SweepRunner::new();
            baseline
                .run(&specs, scenario)
                .expect_all("baseline run")
                .into_iter()
                .fold((0u64, 0u64), fold)
        };

        let journal = std::env::temp_dir().join(format!(
            "hpcgrid-prop-resume-{}-{crash_at}.hgj",
            std::process::id()
        ));
        let chaos = FailpointSet::parse(&format!(
            "engine.sweep.crash=crash@nth:{crash_at};{}",
            stall_clause(crash_at)
        ))
        .unwrap();
        let mut crashing: SweepRunner<(u64, u64)> = SweepRunner::new()
            .checkpoint_every(checkpoint_every)
            .chaos(chaos);
        let partial = crashing
            .run_fold_journaled(&journal, &specs, scenario, (0u64, 0u64), fold)
            .unwrap();
        prop_assert!(partial.report.interrupted);

        // What the journal holds at the moment of "death".
        let journaled: HashSet<_> = RunJournal::replay(&journal).unwrap().done_set();
        prop_assert!(journaled.len() < 1000);

        // Resume on a fresh runner (cold cache), recording exactly which
        // scenarios execute.
        let executed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let mut resumed: SweepRunner<(u64, u64)> = SweepRunner::new();
        let outcome = resumed
            .resume(
                &journal,
                &specs,
                |ctx| {
                    executed
                        .lock()
                        .unwrap()
                        .push(ctx.spec.param_i64("i")? as u64);
                    scenario(ctx)
                },
                (0u64, 0u64),
                fold,
            )
            .unwrap();

        prop_assert_eq!(outcome.value, expected, "bit-identical final fold");
        prop_assert!(!outcome.report.interrupted);
        let executed = executed.into_inner().unwrap();
        prop_assert_eq!(executed.len(), 1000 - journaled.len());
        for i in &executed {
            let hash = specs[*i as usize].content_hash();
            prop_assert!(
                !journaled.contains(&hash),
                "journaled scenario {} was re-executed", i
            );
        }
        prop_assert_eq!(outcome.report.journal_replayed, journaled.len());
        std::fs::remove_file(&journal).unwrap();
    }
}

/// One scenario of the parity sweep: `i == 12` always panics, and `i == 21`
/// panics on its first attempt only (`flaky` counts its attempts).
fn parity_scenario(
    ctx: hpcgrid_engine::ScenarioCtx<'_>,
    flaky: &std::sync::atomic::AtomicUsize,
) -> Result<(u64, u64), String> {
    let i = ctx.spec.param_i64("i")?;
    if i == 12 {
        panic!("always fails");
    }
    if i == 21 && flaky.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
        panic!("transient parity fault");
    }
    Ok(((i as u64).wrapping_mul(0x9E3779B97F4A7C15), ctx.seed))
}

/// The failpoint clause stalling ~3% of scenario executions by 1 ms, seeded
/// by `seed`. Stalls are transparent: they move timing, never a value or a
/// counter.
fn stall_clause(seed: u64) -> String {
    format!("engine.scenario.stall=stall:1ms@prob:0.03:{seed}")
}

/// A cache directory holding `format` artifacts for specs `0..10` of
/// `distinct`, with the one for spec 4 overwritten by garbage.
fn parity_cache_dir(
    tag: &str,
    distinct: &[ScenarioSpec],
    format: ArtifactFormat,
) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hpcgrid-prop-parity-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flaky = std::sync::atomic::AtomicUsize::new(0);
    let mut warm: SweepRunner<(u64, u64)> =
        SweepRunner::with_artifact_dir_and_format(&dir, format).unwrap();
    warm.run(&distinct[..10], |ctx| parity_scenario(ctx, &flaky))
        .expect_all("warm-up");
    let corrupt = warm
        .cache_mut()
        .artifact_path_for(distinct[4].content_hash())
        .unwrap();
    std::fs::write(corrupt, "not a valid artifact").unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `run` + a sequential fold, `run_fold` and `run_fold_journaled` share
    /// one driver: over a shuffled sweep holding duplicates, a planted
    /// corrupt artifact, an always-panicking scenario and a
    /// retried-then-recovered one, all three give the same value and the
    /// same counters — under either artifact format, with or without
    /// seeded scenario stalls.
    #[test]
    fn every_entry_point_agrees_on_value_and_counters(shuffle_seed in 0u64..u64::MAX) {
        use hpcgrid_engine::{FailpointSet, RetryPolicy, RunReport};
        use std::sync::atomic::AtomicUsize;

        let distinct: Vec<ScenarioSpec> = (0..40u64)
            .map(|i| {
                ScenarioSpec::builder("prop-parity")
                    .trace_seed(3)
                    .param("i", i as i64)
                    .build()
            })
            .collect();
        // Every fourth spec twice: duplicates of artifact hits (0, 8), of the
        // corrupt artifact (4), of the panicking scenario (12), of misses.
        let mut specs: Vec<ScenarioSpec> =
            distinct.iter().chain(distinct.iter().step_by(4)).cloned().collect();
        let mut state = shuffle_seed | 1;
        for i in (1..specs.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            specs.swap(i, (state >> 33) as usize % (i + 1));
        }
        let fold = |(s, x): (u64, u64), (a, b): (u64, u64)| (s.wrapping_add(a), x ^ b);
        let counters = |r: &RunReport| {
            (
                r.memory_hits,
                r.artifact_hits,
                r.executed,
                r.failed,
                r.retries,
                r.cache_corrupt,
                r.index_probes,
                r.disk_reads,
            )
        };
        let mut value = None;
        for (format, stalls) in [
            (ArtifactFormat::Binary, false),
            (ArtifactFormat::Binary, true),
            (ArtifactFormat::Json, false),
            (ArtifactFormat::Json, true),
        ] {
            let runner = |tag: &str| -> SweepRunner<(u64, u64)> {
                let runner = SweepRunner::with_artifact_dir_and_format(
                    parity_cache_dir(tag, &distinct, format),
                    format,
                )
                .unwrap()
                .retry(RetryPolicy::with_budget(1));
                if stalls {
                    runner.chaos(FailpointSet::parse(&stall_clause(shuffle_seed)).unwrap())
                } else {
                    runner
                }
            };
            let case = format!("{shuffle_seed}-{}-{stalls}", format.label());
            let tag = format!("{case}-run");
            let flaky = AtomicUsize::new(0);
            let run = runner(&tag).run(&specs, |ctx| parity_scenario(ctx, &flaky));
            let run_value = run.successes().copied().fold((0, 0), fold);
            prop_assert_eq!(run.errors().count(), 2, "both occurrences of the panicking spec");

            let tag_fold = format!("{case}-fold");
            let flaky = AtomicUsize::new(0);
            let folded = runner(&tag_fold).run_fold(
                &specs,
                |ctx| parity_scenario(ctx, &flaky),
                (0, 0),
                fold,
                |(s1, x1), (s2, x2)| (s1.wrapping_add(s2), x1 ^ x2),
            );

            let tag_journal = format!("{case}-journal");
            let journal = std::env::temp_dir().join(format!(
                "hpcgrid-prop-parity-{}-{tag_journal}.hgj",
                std::process::id()
            ));
            let flaky = AtomicUsize::new(0);
            let journaled = runner(&tag_journal)
                .run_fold_journaled(
                    &journal,
                    &specs,
                    |ctx| parity_scenario(ctx, &flaky),
                    (0, 0),
                    fold,
                )
                .unwrap();

            // Neither the format nor the stalls move the value.
            prop_assert_eq!(*value.get_or_insert(run_value), run_value);
            prop_assert_eq!(folded.value, run_value);
            prop_assert_eq!(journaled.value, run_value);
            prop_assert_eq!(folded.errors.len(), 1);
            prop_assert_eq!(journaled.errors.len(), 1);
            prop_assert!(!journaled.report.interrupted);
            // 40 unique scenarios, 10 duplicates: 9 artifact hits, 1
            // corrupt artifact, 31 executions (one fails after a retry, one
            // recovers on its retry), one index probe per unique scenario,
            // and a disk read per artifact, corrupt included.
            let expected = (10, 9, 31, 1, 2, 1, 40, 10);
            prop_assert_eq!(counters(&run.report), expected);
            prop_assert_eq!(counters(&folded.report), expected);
            prop_assert_eq!(counters(&journaled.report), expected);

            std::fs::remove_file(&journal).unwrap();
            for tag in [tag, tag_fold, tag_journal] {
                std::fs::remove_dir_all(std::env::temp_dir().join(format!(
                    "hpcgrid-prop-parity-{}-{tag}",
                    std::process::id()
                )))
                .unwrap();
            }
        }
    }
}
