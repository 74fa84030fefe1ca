//! Experiment E4 — the incentive break-even against hardware depreciation
//! (§4: *"the economic incentive offered through tariffs and DR programs is
//! not high enough to alter operation strategies in SCs, due to high
//! hardware depreciation costs"*), plus the full event loop: capping during
//! DR events, incentive revenue vs mission impact.
//!
//! Both parameter sweeps (incentive level × machine class, and DR response
//! strategy) run through the `hpcgrid-engine` sweep runner: scenarios are
//! content-addressed, executed in parallel with fault isolation, and cached
//! (set `HPCGRID_SWEEP_CACHE` to persist across runs).

use hpcgrid_bench::scenarios::*;
use hpcgrid_bench::table::TextTable;
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::ContractDelta;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_dr::breakeven::{breakeven, DepreciationModel};
use hpcgrid_dr::event::{simulate_events, ResponseStrategy};
use hpcgrid_dr::program::CurtailmentProgram;
use hpcgrid_engine::{ScenarioSpec, SharedInputs};
use hpcgrid_scheduler::policy::Policy;
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_timeseries::series::PowerSeries;
use hpcgrid_units::{DemandPrice, Duration, EnergyPrice, Money, Power, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One point of the E4a incentive sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BreakevenPoint {
    forfeit_per_kwh: f64,
    net_per_kwh: f64,
    rational: bool,
}

/// One point of the E4b strategy sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EventResult {
    revenue_dollars: f64,
    bill_dollars: f64,
    utilization_delta: f64,
    wait_delta_secs: u64,
}

fn depreciation_model(machine: &str) -> Result<DepreciationModel, String> {
    let flagship = DepreciationModel::reference_flagship();
    match machine {
        "flagship" => Ok(flagship),
        "commodity" => Ok(DepreciationModel {
            capex: Money::from_dollars(5e6),
            lifetime: Duration::from_days(7 * 365),
            ..flagship
        }),
        other => Err(format!("unknown machine class `{other}`")),
    }
}

fn main() {
    println!("== E4a: incentive break-even vs depreciation ==\n");
    let retail = EnergyPrice::per_kilowatt_hour(0.07);

    // The sweep axis: six incentive levels for the flagship, one for
    // commodity hardware. Each point is a content-addressed scenario.
    let mut points: Vec<(&str, f64)> = [0.05, 0.10, 0.25, 0.50, 1.00, 2.00]
        .iter()
        .map(|c| ("flagship", *c))
        .collect();
    points.push(("commodity", 0.10));
    let specs: Vec<ScenarioSpec> = points
        .iter()
        .map(|(machine, offered)| {
            experiment_spec("dr_breakeven", 0)
                .param("machine", *machine)
                .param("offered", *offered)
                .build()
        })
        .collect();
    let mut runner = experiment_runner::<BreakevenPoint>();
    let outcome = runner.run(&specs, |ctx| {
        let model = depreciation_model(ctx.spec.param_str("machine")?)?;
        let offered = EnergyPrice::per_kilowatt_hour(ctx.spec.param_f64("offered")?);
        let r = breakeven(&model, offered, retail).map_err(|e| e.to_string())?;
        Ok(BreakevenPoint {
            forfeit_per_kwh: r.forfeit_per_kwh.as_dollars_per_kilowatt_hour(),
            net_per_kwh: r.net_per_kwh,
            rational: r.rational,
        })
    });
    println!("sweep engine report:\n{}", outcome.report.summary_table());
    let results = outcome.expect_all("breakeven sweep");

    let mut t = TextTable::new(vec![
        "machine",
        "forfeit $/kWh",
        "offered $/kWh",
        "net $/kWh",
        "rational?",
    ]);
    let mut flagship_rational_at = None;
    for ((machine, offered), r) in points.iter().zip(results.iter()) {
        if *machine == "flagship" && r.rational && flagship_rational_at.is_none() {
            flagship_rational_at = Some(*offered);
        }
        let label = match *machine {
            "flagship" => "flagship ($200M/5y)",
            _ => "commodity ($5M/7y)",
        };
        t.row(vec![
            label.to_string(),
            format!("{:.3}", r.forfeit_per_kwh),
            format!("{offered:.2}"),
            format!("{:+.3}", r.net_per_kwh),
            if r.rational { "yes" } else { "no" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    let cross = flagship_rational_at.expect("some incentive must break even");
    println!(
        "crossover: a flagship only breaks even above ≈${cross:.2}/kWh curtailed — \
         an order of magnitude above typical program incentives (~$0.05–0.50/kWh)."
    );
    assert!(cross >= 0.25, "crossover at {cross}");
    let r_cheap = results.last().expect("commodity point present");
    assert!(
        r_cheap.rational,
        "commodity hardware should break even at $0.10"
    );

    println!("\n== E4b: full DR event loop (cap during events) ==\n");
    let site = reference_site();
    let trace = reference_trace(13);
    let events = IntervalSet::from_intervals(
        (1..HORIZON_DAYS)
            .step_by(7)
            .map(|d| {
                Interval::new(
                    SimTime::from_days(d) + Duration::from_hours(14.0),
                    SimTime::from_days(d) + Duration::from_hours(18.0),
                )
            })
            .collect(),
    );
    // Q6 frames the program as *voluntary*, so no shortfall penalty; the
    // qualification floor is scaled to the experiment site (the reference
    // program's 1 MW minimum is written for flagship sites, but the sweep
    // site peaks near 0.35 MW).
    let program = CurtailmentProgram {
        min_reduction: Power::from_kilowatts(20.0),
        shortfall_penalty: Money::ZERO,
        ..CurtailmentProgram::reference()
    };
    let strategy_names = [
        "none",
        "cap 200 kW",
        "cap 200 kW + shift",
        "shift only",
        "dvfs 0.6 (energy-aware)",
    ];
    let strategy_for = |name: &str| -> Result<ResponseStrategy, String> {
        Ok(match name {
            "none" => ResponseStrategy::none(),
            "cap 200 kW" => ResponseStrategy {
                cap: Some(Power::from_kilowatts(200.0)),
                ..Default::default()
            },
            "cap 200 kW + shift" => ResponseStrategy {
                cap: Some(Power::from_kilowatts(200.0)),
                shift_deferrable: true,
                shutdown_idle: false,
                dvfs_factor: None,
            },
            "shift only" => ResponseStrategy {
                shift_deferrable: true,
                ..Default::default()
            },
            "dvfs 0.6 (energy-aware)" => ResponseStrategy {
                dvfs_factor: Some(0.6),
                ..Default::default()
            },
            other => return Err(format!("unknown strategy `{other}`")),
        })
    };
    let event_specs: Vec<ScenarioSpec> = strategy_names
        .iter()
        .map(|name| {
            experiment_spec("dr_event_loop", 13)
                .param("strategy", *name)
                .build()
        })
        .collect();
    // Every strategy is billed under the same typical contract; compile it
    // once over a horizon generous enough for jobs that drain past day 30
    // and share the kernel across the sweep closures.
    let compiled_typical = Arc::new(compile_contract(
        &typical_contract(),
        SimTime::EPOCH,
        SimTime::from_days(2 * HORIZON_DAYS),
    ));
    let mut event_runner = experiment_runner::<EventResult>();
    let event_outcome = event_runner.run(&event_specs, |ctx| {
        let strat = strategy_for(ctx.spec.param_str("strategy")?)?;
        let out = simulate_events(
            &site,
            &trace,
            Policy::EasyBackfill,
            &events,
            strat,
            &program,
            meter_step(),
        )
        .map_err(|e| e.to_string())?;
        let bill = compiled_typical
            .bill(&out.response_load)
            .map_err(|e| e.to_string())?;
        Ok(EventResult {
            revenue_dollars: out.net_revenue().as_dollars(),
            bill_dollars: bill.total().as_dollars(),
            utilization_delta: out.utilization_delta(),
            wait_delta_secs: out.wait_delta().as_secs(),
        })
    });
    println!(
        "sweep engine report:\n{}",
        event_outcome.report.summary_table()
    );
    let event_results = event_outcome.expect_all("DR event-loop sweep");

    let mut t2 = TextTable::new(vec![
        "strategy",
        "net DR revenue",
        "energy bill",
        "revenue/bill",
        "utilization Δ",
        "mean-wait Δ",
    ]);
    let mut revenue_cap = Money::ZERO;
    for (name, out) in strategy_names.iter().zip(event_results.iter()) {
        if *name == "cap 200 kW" {
            revenue_cap = Money::from_dollars(out.revenue_dollars);
        }
        t2.row(vec![
            name.to_string(),
            Money::from_dollars(out.revenue_dollars).to_string(),
            Money::from_dollars(out.bill_dollars).to_string(),
            format!("{:.2}%", out.revenue_dollars / out.bill_dollars * 100.0),
            format!("{:+.4}", -out.utilization_delta),
            format!("+{}", Duration::from_secs(out.wait_delta_secs)),
        ]);
    }
    println!("{}", t2.render());
    println!(
        "Even at a generous $0.50/kWh, a month of weekly 4-hour events earns \
         {revenue_cap} for the responding site — against a flagship's ~$40 k/day \
         depreciation, confirming the paper's 'incentive too low' conclusion."
    );

    // E4c — demand-charge sensitivity on the patch path. The demand charge
    // dominates the incentive calculus (see exp_demand_charge_share), so
    // sweep its rate by patching the already-compiled typical kernel:
    // `patch(SetDemandCharge)` swaps one scalar piece and shares every
    // lowered tariff timeline with the base kernel by reference.
    //
    // The base kernel and the baseline load enter the scenario closures via
    // the engine's zero-copy `SharedInputs` registry — one `Arc` each,
    // looked up by key, shared by every scenario in the sweep.
    println!("\n== E4c: demand-charge rate sweep via compiled-kernel patch ==\n");
    let (_, baseline_load) = reference_run(13);
    let base_hex = compiled_typical.fingerprint().to_hex();
    let mut shared = SharedInputs::new();
    let kernel_k = share_kernel(&mut shared, Arc::clone(&compiled_typical));
    let load_k = share_series(&mut shared, "dr_baseline_load", baseline_load.clone());
    let rates = [0.0, 6.0, 12.0, 18.0, 24.0];
    let delta_for = |rate: f64| -> ContractDelta {
        if rate == 0.0 {
            ContractDelta::SetDemandCharge(None)
        } else {
            ContractDelta::SetDemandCharge(Some(DemandCharge::monthly(
                DemandPrice::per_kilowatt_month(rate),
            )))
        }
    };
    let rate_specs: Vec<ScenarioSpec> = rates
        .iter()
        .map(|rate| {
            experiment_spec("dr_demand_charge", 13)
                .base_contract(base_hex.clone())
                .delta(delta_for(*rate).label())
                .param("rate", *rate)
                .build()
        })
        .collect();
    let mut rate_runner = experiment_runner::<(f64, f64)>().shared_inputs(shared);
    let rate_outcome = rate_runner.run(&rate_specs, |ctx| {
        let kernel: Arc<CompiledContract> = ctx.shared.expect(&kernel_k)?;
        let load: Arc<PowerSeries> = ctx.shared.expect(&load_k)?;
        let patched = kernel
            .patch(&delta_for(ctx.spec.param_f64("rate")?))
            .map_err(|e| e.to_string())?;
        let bill = patched.bill(&load).map_err(|e| e.to_string())?;
        Ok((bill.total().as_dollars(), bill.demand_share()))
    });
    println!(
        "sweep engine report:\n{}",
        rate_outcome.report.summary_table()
    );
    let rate_results = rate_outcome.expect_all("demand-charge rate sweep");
    let mut t3 = TextTable::new(vec!["$/kW-month", "bill (30 days)", "demand share"]);
    for (rate, (total, share)) in rates.iter().zip(rate_results.iter()) {
        t3.row(vec![
            format!("{rate:.0}"),
            format!("${total:.2}"),
            format!("{:.1}%", share * 100.0),
        ]);
    }
    println!("{}", t3.render());

    // Sampled bit-identity check: a patched kernel must bill exactly like a
    // fresh compile of the modified contract.
    let sampled_delta = delta_for(rates[4]);
    let patched = compiled_typical
        .patch(&sampled_delta)
        .expect("patch succeeds");
    let fresh = compile_contract(
        &typical_contract()
            .apply(&sampled_delta)
            .expect("delta applies"),
        SimTime::EPOCH,
        SimTime::from_days(2 * HORIZON_DAYS),
    );
    assert_eq!(
        patched.bill(&baseline_load).expect("patched bill"),
        fresh.bill(&baseline_load).expect("fresh bill"),
        "patched kernel must be bit-identical to full recompilation"
    );
    // The demand share must rise monotonically with the rate.
    for pair in rate_results.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "demand share must grow with rate");
    }
    println!(
        "bit-identity: patch at ${}/kW-mo == fresh recompile ✓",
        rates[4]
    );
    println!("E4 OK");
}
