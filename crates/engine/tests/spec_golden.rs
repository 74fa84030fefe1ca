//! Golden spec hashes: a scenario spec's content hash names its artifact
//! and journal entries, and its derived seed drives the scenario's RNG, so
//! both are persisted values pinned by a committed table under
//! `tests/golden/`.
//!
//! The table is built in code, one row per shape the canonical form has to
//! get right: every `ParamValue` variant; integral and fractional floats,
//! NaN, ±∞ and ±0.0; `i64::MIN` and `i64::MAX`; trace seeds above
//! `i64::MAX`; empty and non-ASCII strings; the four reserved params; and
//! zero and eight params. Each row's `content_hash().to_hex()` and
//! `derived_seed()` must match the file, and so must the
//! `sweep_fingerprint` over the whole table.
//!
//! To regenerate after a deliberate hash change (which orphans every cached
//! artifact and refuses every journal), run
//! `cargo test -p hpcgrid-engine --test spec_golden -- --ignored`.

use hpcgrid_engine::{sweep_fingerprint, ParamValue, ScenarioSpec};
use serde_json::Value;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("spec_hashes.json")
}

/// A default spec with one param `x`.
fn x(value: ParamValue) -> ScenarioSpec {
    ScenarioSpec::builder("golden").param("x", value).build()
}

/// The golden table, in file order.
fn rows() -> Vec<(&'static str, ScenarioSpec)> {
    let mut eight = ScenarioSpec::builder("golden")
        .trace_seed(42)
        .horizon_days(365)
        .contract("tou")
        .policy("conservative")
        .build();
    for (i, v) in [
        ParamValue::Float(0.25),
        ParamValue::Int(-7),
        ParamValue::Text("peak".into()),
        ParamValue::Flag(true),
        ParamValue::Float(1e-300),
        ParamValue::Int(1 << 40),
        ParamValue::Text("off-peak".into()),
        ParamValue::Flag(false),
    ]
    .into_iter()
    .enumerate()
    {
        eight.params.insert(format!("p{i}"), v);
    }
    vec![
        (
            "defaults_zero_params",
            ScenarioSpec::builder("golden").build(),
        ),
        ("float_fractional", x(ParamValue::Float(0.066))),
        ("float_integral", x(ParamValue::Float(2.0))),
        ("int_equal_to_integral_float", x(ParamValue::Int(2))),
        ("float_integral_negative", x(ParamValue::Float(-3.0))),
        ("float_nan", x(ParamValue::Float(f64::NAN))),
        ("float_pos_inf", x(ParamValue::Float(f64::INFINITY))),
        ("float_neg_inf", x(ParamValue::Float(f64::NEG_INFINITY))),
        ("float_pos_zero", x(ParamValue::Float(0.0))),
        ("float_neg_zero", x(ParamValue::Float(-0.0))),
        // 2^63 is integral but outside i64: it hashes as a float.
        ("float_two_pow_63", x(ParamValue::Float(2f64.powi(63)))),
        (
            "float_neg_two_pow_63",
            x(ParamValue::Float(-(2f64.powi(63)))),
        ),
        ("float_huge_integral", x(ParamValue::Float(1e300))),
        ("int_min", x(ParamValue::Int(i64::MIN))),
        ("int_max", x(ParamValue::Int(i64::MAX))),
        ("text_empty", x(ParamValue::Text(String::new()))),
        (
            "text_non_ascii",
            x(ParamValue::Text("Zürich ⚡ 東京".into())),
        ),
        ("flag_true", x(ParamValue::Flag(true))),
        ("flag_false", x(ParamValue::Flag(false))),
        (
            "trace_seed_i64_max",
            ScenarioSpec::builder("golden")
                .trace_seed(i64::MAX as u64)
                .build(),
        ),
        (
            "trace_seed_above_i64_max",
            ScenarioSpec::builder("golden")
                .trace_seed(i64::MAX as u64 + 1)
                .build(),
        ),
        (
            "trace_seed_and_horizon_u64_max",
            ScenarioSpec::builder("golden")
                .trace_seed(u64::MAX)
                .horizon_days(u64::MAX)
                .build(),
        ),
        (
            "empty_and_non_ascii_fields",
            ScenarioSpec::builder("")
                .site("Jülich")
                .contract("")
                .policy("écart ≤ 5%")
                .param("", ParamValue::Int(0))
                .param("é", ParamValue::Int(1))
                .param("B", ParamValue::Int(2))
                .param("a", ParamValue::Int(3))
                .build(),
        ),
        (
            "reserved_params",
            ScenarioSpec::builder("tariff_sensitivity")
                .base_contract("a1b2c3d4e5f60718")
                .delta("replace_strip#2[720]")
                .precision("bit_exact")
                .ledger_revision(3)
                .build(),
        ),
        ("eight_params", eight),
        (
            "sweep_rerun_shape",
            ScenarioSpec::builder("sweep_rerun")
                .site("HLRS")
                .horizon_days(30)
                .precision("bit_exact")
                .param("id", 4_321_i64)
                .param("energy", 0.083_125_7)
                .param("demand", 11.5)
                .param("fee", 1_837.25)
                .build(),
        ),
    ]
}

/// The table as the golden file stores it.
fn render() -> String {
    let rows = rows();
    let entries: Vec<Value> = rows
        .iter()
        .map(|(name, spec)| {
            serde_json::json!({
                "name": *name,
                "content_hash": spec.content_hash().to_hex(),
                "derived_seed": spec.derived_seed(),
            })
        })
        .collect();
    let specs: Vec<ScenarioSpec> = rows.into_iter().map(|(_, s)| s).collect();
    let doc = serde_json::json!({
        "rows": entries,
        "sweep_fingerprint": sweep_fingerprint(&specs).to_hex(),
    });
    serde_json::to_string_pretty(&doc).unwrap() + "\n"
}

#[test]
fn spec_hashes_match_golden_table() {
    let golden = std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path().display()));
    let doc: Value = serde_json::from_str(&golden).unwrap();
    let stored = doc.get("rows").and_then(Value::as_seq).unwrap();
    let rows = rows();
    assert_eq!(stored.len(), rows.len(), "row count");
    for (row, (name, spec)) in stored.iter().zip(&rows) {
        assert_eq!(row.get("name").and_then(Value::as_str), Some(*name));
        assert_eq!(
            row.get("content_hash").and_then(Value::as_str),
            Some(spec.content_hash().to_hex().as_str()),
            "{name}: content hash"
        );
        let seed: u64 = serde::Deserialize::from_value(row.get("derived_seed").unwrap()).unwrap();
        assert_eq!(seed, spec.derived_seed(), "{name}: derived seed");
    }
    // The whole file, byte for byte, fingerprint included.
    assert_eq!(render(), golden, "golden file bytes");
}

#[test]
fn golden_rows_cover_their_shapes() {
    let rows = rows();
    let params = || rows.iter().flat_map(|(_, s)| s.params.values());
    assert!(params().any(|v| matches!(v, ParamValue::Float(_))));
    assert!(params().any(|v| matches!(v, ParamValue::Int(_))));
    assert!(params().any(|v| matches!(v, ParamValue::Text(_))));
    assert!(params().any(|v| matches!(v, ParamValue::Flag(_))));
    assert!(params().any(|v| matches!(v, ParamValue::Float(f) if f.is_nan())));
    assert!(
        params().any(|v| matches!(v, ParamValue::Float(f) if f.to_bits() == (-0.0f64).to_bits()))
    );
    assert!(params().any(|v| *v == ParamValue::Int(i64::MIN)));
    assert!(rows.iter().any(|(_, s)| s.trace_seed > i64::MAX as u64));
    assert!(rows.iter().any(|(_, s)| s.params.is_empty()));
    assert!(rows.iter().any(|(_, s)| s.params.len() == 8));
    assert!(rows.iter().any(|(_, s)| {
        s.base_contract().is_some()
            && s.delta().is_some()
            && s.precision().is_some()
            && s.ledger_revision().is_some()
    }));
    // An integral float's payload hashes as the equal integer, so -0.0 and
    // 0.0 are one scenario; the variant tag still separates `Float(2.0)`
    // from `Int(2)`. Every other row is a distinct scenario.
    let hash = |name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
            .content_hash()
    };
    assert_eq!(hash("float_pos_zero"), hash("float_neg_zero"));
    assert_ne!(hash("float_integral"), hash("int_equal_to_integral_float"));
    let mut hashes: Vec<_> = rows.iter().map(|(_, s)| s.content_hash()).collect();
    hashes.sort();
    hashes.dedup();
    assert_eq!(hashes.len(), rows.len() - 1);
}

/// Rewrites the committed golden table from the current library.
#[test]
#[ignore = "regenerates the committed golden file"]
fn regenerate_golden_file() {
    std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
    std::fs::write(golden_path(), render()).unwrap();
}
