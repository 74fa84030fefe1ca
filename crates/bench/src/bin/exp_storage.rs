//! Experiment X2 (extension) — storage against the typology: battery
//! peak-shaving under a demand charge, and price arbitrage under a dynamic
//! tariff (the "tighter relationship" future of survey question 5).

use hpcgrid_bench::scenarios::*;
use hpcgrid_bench::table::TextTable;
use hpcgrid_dr::arbitrage::{run_arbitrage, threshold_plan};
use hpcgrid_facility::storage::Battery;
use hpcgrid_timeseries::resample::downsample_mean;
use hpcgrid_units::{Duration, Energy, Power};

fn main() {
    println!("== X2: battery storage vs contract components ==\n");
    let (_, load) = reference_run(41);
    let contract = typical_contract();

    // Peak shaving against the demand charge.
    let base_bill = bill(&contract, &load);
    let peak = load.peak().unwrap();
    let mut t = TextTable::new(vec![
        "battery",
        "shave target",
        "new peak",
        "bill",
        "saving",
    ]);
    t.row(vec![
        "none".to_string(),
        "-".to_string(),
        peak.to_string(),
        base_bill.total().to_string(),
        "-".to_string(),
    ]);
    let mut best_saving = f64::MIN;
    for (cap_kwh, rate_kw) in [(200.0, 100.0), (500.0, 250.0), (1_000.0, 500.0)] {
        let battery = Battery::new(
            Energy::from_kilowatt_hours(cap_kwh),
            Power::from_kilowatts(rate_kw),
            Power::from_kilowatts(rate_kw),
            0.90,
        )
        .unwrap();
        let target = peak * 0.85;
        let plan = battery.peak_shave_plan(&load, target, load.mean_power().unwrap());
        let sim = battery.simulate(&load, &plan, battery.capacity).unwrap();
        let shaved = bill(&contract, &sim.net_load);
        let saving = base_bill.total() - shaved.total();
        best_saving = best_saving.max(saving.as_dollars());
        t.row(vec![
            format!("{cap_kwh:.0} kWh / {rate_kw:.0} kW"),
            target.to_string(),
            sim.net_load.peak().unwrap().to_string(),
            shaved.total().to_string(),
            saving.to_string(),
        ]);
    }
    println!("{}", t.render());
    assert!(
        best_saving > 0.0,
        "some battery must shave the demand charge"
    );

    // Arbitrage against a dynamic price strip.
    println!("-- dynamic-tariff arbitrage --");
    let strip = reference_market_prices(41, HORIZON_DAYS);
    // Align load to the hourly strip.
    let hourly_load = downsample_mean(&load, Duration::from_hours(1.0)).unwrap();
    let strip = strip.slice_time(hourly_load.start(), hourly_load.end());
    let hourly_load = hourly_load.slice_time(strip.start(), strip.end());
    let battery = Battery::reference();
    let plan = threshold_plan(&battery, &strip, 0.15, 0.15).unwrap();
    let out = run_arbitrage(&battery, &hourly_load, &strip, &plan).unwrap();
    println!("energy cost without battery: {}", out.cost_without);
    println!("energy cost with battery:    {}", out.cost_with);
    println!("saving: {} (losses {})", out.saving(), out.losses);
    println!(
        "\nStorage monetizes the typology's kW-domain components (the demand-charge \
         shave above) without touching the compute mission. Energy arbitrage on a \
         thin wholesale spread, by contrast, can even lose money once conversion \
         losses are paid — a naive threshold plan is not a business case, and \
         neither saving approaches battery capex at this scale."
    );
    println!("X2 OK");
}
