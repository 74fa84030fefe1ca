//! The billing engine: price a metered load series under any contract.
//!
//! The engine turns the typology into money. Each component contributes a
//! line item; the bill exposes the decomposition the paper's economics turn
//! on — in particular the *demand-charge share* of the total, which \[34\]
//! (cited in §2) showed grows with the peak-to-average ratio.

use crate::compiled::CompiledContract;
use crate::contract::Contract;
use crate::typology::ContractComponentKind;
use crate::{CoreError, Result};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_timeseries::par::try_par_map;
use hpcgrid_timeseries::series::PowerSeries;
use hpcgrid_units::{Calendar, Money};
use serde::{Deserialize, Serialize};

/// One line of a bill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineItem {
    /// Human-readable label.
    pub label: String,
    /// The typology kind that produced this item (`None` for service fees).
    pub kind: Option<ContractComponentKind>,
    /// Amount charged.
    pub amount: Money,
}

/// A computed bill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bill {
    /// Contract name.
    pub contract: String,
    /// Line items in component order.
    pub items: Vec<LineItem>,
}

impl Bill {
    /// Total amount.
    pub fn total(&self) -> Money {
        self.items.iter().map(|i| i.amount).sum()
    }

    /// Sum of items in the kWh (tariff) domain.
    pub fn energy_cost(&self) -> Money {
        self.sum_branch(crate::typology::TypologyBranch::TariffsKwh)
    }

    /// Sum of items in the kW (demand) domain.
    pub fn demand_cost(&self) -> Money {
        self.sum_branch(crate::typology::TypologyBranch::DemandChargesKw)
    }

    fn sum_branch(&self, branch: crate::typology::TypologyBranch) -> Money {
        self.items
            .iter()
            .filter(|i| i.kind.is_some_and(|k| k.branch() == branch))
            .map(|i| i.amount)
            .sum()
    }

    /// Demand-domain share of the total bill (0 if the total is zero).
    pub fn demand_share(&self) -> f64 {
        let total = self.total().as_dollars();
        if total <= 0.0 {
            return 0.0;
        }
        self.demand_cost().as_dollars() / total
    }

    /// The item for a specific kind, if present.
    pub fn item_for(&self, kind: ContractComponentKind) -> Option<&LineItem> {
        self.items.iter().find(|i| i.kind == Some(kind))
    }

    /// Fold several bills into one composite bill, in iteration order —
    /// the splice rule behind [`AsOfBill::fold`](crate::ledger::AsOfBill)
    /// and the as-of accrual
    /// ([`BillAccrual::rebind_at`](crate::accrual::BillAccrual::rebind_at)).
    ///
    /// Line items with an identical `(label, kind)` pair are summed into
    /// one item at the first occurrence's position; items whose labels
    /// differ (e.g. per-slice demand-month counts) are appended in order,
    /// so nothing is ever collapsed across genuinely different line items.
    /// The contract name is taken from the first bill. Folding a single
    /// bill is the identity. Errors on an empty iterator.
    pub fn fold<'a, I: IntoIterator<Item = &'a Bill>>(bills: I) -> Result<Bill> {
        let mut iter = bills.into_iter();
        let first = iter
            .next()
            .ok_or_else(|| CoreError::BadSeries("cannot fold an empty set of bills".into()))?;
        let mut folded = first.clone();
        for bill in iter {
            for item in &bill.items {
                match folded
                    .items
                    .iter_mut()
                    .find(|i| i.label == item.label && i.kind == item.kind)
                {
                    Some(existing) => existing.amount += item.amount,
                    None => folded.items.push(item.clone()),
                }
            }
        }
        Ok(folded)
    }

    /// Render a human-readable bill.
    pub fn render(&self) -> String {
        let mut out = format!("Bill for contract '{}'\n", self.contract);
        for item in &self.items {
            out.push_str(&format!(
                "  {:<40} {:>15}\n",
                item.label,
                item.amount.to_string()
            ));
        }
        out.push_str(&format!(
            "  {:<40} {:>15}\n",
            "TOTAL",
            self.total().to_string()
        ));
        out
    }
}

/// The billing precision label: bills are always bit-identical to the
/// interpreter's accumulation order, so this has one variant.
///
/// It stays only because the `benchmark/` package names
/// `Precision::BitExact`, its [`label`](Precision::label) and the identity
/// `with_precision` constructors; no workspace code uses it. The next
/// change to the benchmark can delete it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Bit-identical to the interpreted path.
    BitExact,
}

impl Precision {
    /// Stable label used in scenario specs (`"bit_exact"`).
    pub fn label(self) -> &'static str {
        "bit_exact"
    }
}

/// The billing engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingEngine {
    calendar: Calendar,
}

impl BillingEngine {
    /// An engine billing under `calendar`.
    pub fn new(calendar: Calendar) -> BillingEngine {
        BillingEngine { calendar }
    }

    /// The same engine. Kept, as an identity, only because the `benchmark/`
    /// package calls it; see [`Precision`].
    pub fn with_precision(self, _precision: Precision) -> BillingEngine {
        self
    }

    /// The calendar in use.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Number of billing months touched by the load (for monthly fees).
    fn months_covered(&self, load: &PowerSeries) -> u64 {
        if load.is_empty() {
            return 0;
        }
        let first = self.calendar.billing_month(load.start());
        let last_t = load.end() - hpcgrid_units::Duration::from_secs(1);
        let last = self.calendar.billing_month(last_t);
        last - first + 1
    }

    /// Bill a load under a contract (no emergency events).
    pub fn bill(&self, contract: &Contract, load: &PowerSeries) -> Result<Bill> {
        self.bill_with_events(contract, load, &IntervalSet::empty())
    }

    /// Lower a contract into a [`CompiledContract`] for loads inside
    /// `[start, end)`. Bills computed through it are bit-identical to
    /// [`BillingEngine::bill`]; compilation amortizes after about two bills
    /// per contract, or one bill over a month-scale series.
    pub fn compile(
        &self,
        contract: &Contract,
        start: hpcgrid_units::SimTime,
        end: hpcgrid_units::SimTime,
    ) -> Result<CompiledContract> {
        CompiledContract::compile(&self.calendar, contract, start, end)
    }

    /// Bill many loads under one contract (no emergency events): the
    /// contract is compiled once over the union of the load horizons, then
    /// evaluation fans out across threads. Bills are returned in load order
    /// and are bit-identical to billing each load with [`BillingEngine::bill`].
    ///
    /// ```
    /// use hpcgrid_core::billing::BillingEngine;
    /// use hpcgrid_core::contract::Contract;
    /// use hpcgrid_core::tariff::Tariff;
    /// use hpcgrid_timeseries::series::Series;
    /// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
    ///
    /// let contract = Contract::builder("flat")
    ///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.05)))
    ///     .build()?;
    /// let engine = BillingEngine::new(Calendar::default());
    ///
    /// // Three day-long loads at 1, 2, and 3 MW.
    /// let loads: Vec<_> = (1..=3)
    ///     .map(|mw| {
    ///         Series::constant(
    ///             SimTime::from_days(mw),
    ///             Duration::from_hours(1.0),
    ///             Power::from_megawatts(mw as f64),
    ///             24,
    ///         )
    ///     })
    ///     .collect::<Result<_, _>>()?;
    ///
    /// let bills = engine.bill_many(&contract, &loads)?;
    /// for (mw, bill) in (1..=3).zip(&bills) {
    ///     // mw MW · 24 h · 0.05 $/kWh, and identical to the one-load path.
    ///     let expected = mw as f64 * 1_000.0 * 24.0 * 0.05;
    ///     assert!((bill.total().as_dollars() - expected).abs() < 1e-9);
    ///     assert_eq!(bill, &engine.bill(&contract, &loads[mw - 1])?);
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn bill_many(&self, contract: &Contract, loads: &[PowerSeries]) -> Result<Vec<Bill>> {
        self.bill_many_with_events(contract, loads, &IntervalSet::empty())
    }

    /// [`BillingEngine::bill_many`] with emergency event windows, assessed
    /// against every load.
    pub fn bill_many_with_events(
        &self,
        contract: &Contract,
        loads: &[PowerSeries],
        events: &IntervalSet,
    ) -> Result<Vec<Bill>> {
        if loads.is_empty() {
            return Ok(Vec::new());
        }
        let mut start = None;
        let mut end = None;
        for load in loads {
            if load.is_empty() {
                return Err(CoreError::BadSeries("load series is empty".into()));
            }
            start = Some(start.map_or(load.start(), |s: hpcgrid_units::SimTime| {
                s.min(load.start())
            }));
            end = Some(end.map_or(load.end(), |e: hpcgrid_units::SimTime| e.max(load.end())));
        }
        let (start, end) = (
            start.expect("non-empty loads"),
            end.expect("non-empty loads"),
        );
        let compiled = CompiledContract::compile(&self.calendar, contract, start, end)?;
        try_par_map(loads, |load| compiled.bill_with_events(load, events))
            .map_err(|e| CoreError::BatchPanic(e.to_string()))?
            .into_iter()
            .collect()
    }

    /// Bill a load under a contract, assessing the emergency clause against
    /// the given event windows.
    pub fn bill_with_events(
        &self,
        contract: &Contract,
        load: &PowerSeries,
        events: &IntervalSet,
    ) -> Result<Bill> {
        if load.is_empty() {
            return Err(CoreError::BadSeries("load series is empty".into()));
        }
        let mut items = Vec::new();
        for (i, tariff) in contract.tariffs.iter().enumerate() {
            let amount = tariff.cost(&self.calendar, load)?;
            items.push(LineItem {
                label: format!("{} tariff #{}", tariff.kind().label(), i + 1),
                kind: Some(tariff.kind()),
                amount,
            });
        }
        if let Some(dc) = &contract.demand_charge {
            let assessments = dc.assess(&self.calendar, load)?;
            let amount = assessments.iter().map(|a| a.charge).sum();
            items.push(LineItem {
                label: format!("Demand charges ({} billing months)", assessments.len()),
                kind: Some(ContractComponentKind::DemandCharge),
                amount,
            });
        }
        if let Some(pb) = &contract.powerband {
            let report = pb.evaluate(load)?;
            items.push(LineItem {
                label: format!(
                    "Powerband excursions ({} intervals)",
                    report.violations.len()
                ),
                kind: Some(ContractComponentKind::Powerband),
                amount: report.penalty_cost,
            });
        }
        if let Some(em) = &contract.emergency {
            let assessment = em.assess(load, events)?;
            items.push(LineItem {
                label: format!(
                    "Emergency DR penalties ({} events)",
                    assessment.events.len()
                ),
                kind: Some(ContractComponentKind::EmergencyDr),
                amount: assessment.total_penalty,
            });
        }
        if contract.monthly_fee > Money::ZERO {
            let months = self.months_covered(load);
            items.push(LineItem {
                label: format!("Service fee ({months} months)"),
                kind: None,
                amount: contract.monthly_fee * months as f64,
            });
        }
        Ok(Bill {
            contract: contract.name.clone(),
            items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand_charge::DemandCharge;
    use crate::powerband::Powerband;
    use crate::tariff::Tariff;
    use hpcgrid_timeseries::series::Series;
    use hpcgrid_units::{DemandPrice, Duration, EnergyPrice, Power, SimTime};

    fn engine() -> BillingEngine {
        BillingEngine::new(Calendar::default())
    }

    fn flat_load(hours: usize, mw: f64) -> PowerSeries {
        Series::constant(
            SimTime::EPOCH,
            Duration::from_hours(1.0),
            Power::from_megawatts(mw),
            hours,
        )
        .unwrap()
    }

    fn full_contract() -> Contract {
        Contract::builder("full")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.08)))
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
            .powerband(Powerband::ceiling(
                Power::from_megawatts(12.0),
                EnergyPrice::per_kilowatt_hour(0.50),
            ))
            .monthly_fee(Money::from_dollars(1_000.0))
            .build()
            .unwrap()
    }

    #[test]
    fn bill_decomposes_into_line_items() {
        let bill = engine()
            .bill(&full_contract(), &flat_load(24, 10.0))
            .unwrap();
        // Energy: 240 MWh × $80/MWh = $19 200.
        let energy = bill
            .item_for(ContractComponentKind::FixedTariff)
            .unwrap()
            .amount;
        assert!((energy.as_dollars() - 19_200.0).abs() < 1e-6);
        // Demand: 10 MW × $12/kW = $120 000.
        let demand = bill
            .item_for(ContractComponentKind::DemandCharge)
            .unwrap()
            .amount;
        assert!((demand.as_dollars() - 120_000.0).abs() < 1e-6);
        // Band: compliant, zero.
        let band = bill
            .item_for(ContractComponentKind::Powerband)
            .unwrap()
            .amount;
        assert_eq!(band, Money::ZERO);
        // Fee: one month.
        let fee = bill.items.iter().find(|i| i.kind.is_none()).unwrap().amount;
        assert_eq!(fee.as_dollars(), 1_000.0);
        // Total adds up.
        assert!((bill.total().as_dollars() - (19_200.0 + 120_000.0 + 1_000.0)).abs() < 1e-6);
    }

    #[test]
    fn demand_share_matches_decomposition() {
        let bill = engine()
            .bill(&full_contract(), &flat_load(24, 10.0))
            .unwrap();
        let expected = 120_000.0 / (19_200.0 + 120_000.0 + 1_000.0);
        assert!((bill.demand_share() - expected).abs() < 1e-9);
        assert_eq!(bill.energy_cost().as_dollars(), 19_200.0);
        assert_eq!(bill.demand_cost().as_dollars(), 120_000.0);
    }

    #[test]
    fn peakier_load_same_energy_costs_more() {
        // The paper's core demand-charge economics: same kWh, higher peak.
        let flat = flat_load(24, 10.0);
        let mut peaky_values = vec![Power::from_megawatts(10.0); 24];
        peaky_values[10] = Power::from_megawatts(20.0);
        peaky_values[11] = Power::ZERO;
        let peaky = Series::new(SimTime::EPOCH, Duration::from_hours(1.0), peaky_values).unwrap();
        assert!(
            (flat.total_energy().as_kilowatt_hours() - peaky.total_energy().as_kilowatt_hours())
                .abs()
                < 1e-9
        );
        let c = Contract::builder("dc-only")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.08)))
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
            .build()
            .unwrap();
        let e = engine();
        let b_flat = e.bill(&c, &flat).unwrap();
        let b_peaky = e.bill(&c, &peaky).unwrap();
        assert!(b_peaky.total() > b_flat.total());
        assert!(b_peaky.demand_share() > b_flat.demand_share());
    }

    #[test]
    fn multi_month_fee() {
        // 40 days = 2 billing months (Jan + Feb).
        let bill = engine()
            .bill(&full_contract(), &flat_load(40 * 24, 5.0))
            .unwrap();
        let fee = bill.items.iter().find(|i| i.kind.is_none()).unwrap().amount;
        assert_eq!(fee.as_dollars(), 2_000.0);
    }

    #[test]
    fn empty_load_rejected() {
        let empty = PowerSeries::new(SimTime::EPOCH, Duration::from_hours(1.0), vec![]).unwrap();
        assert!(engine().bill(&full_contract(), &empty).is_err());
    }

    #[test]
    fn emergency_events_flow_into_bill() {
        use crate::emergency::EmergencyDrClause;
        use hpcgrid_timeseries::intervals::Interval;
        let c = Contract::builder("with-emergency")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.08)))
            .emergency(EmergencyDrClause::reference(Power::from_megawatts(5.0)))
            .build()
            .unwrap();
        let load = flat_load(24, 10.0); // never sheds
        let events = IntervalSet::from_intervals(vec![Interval::new(
            SimTime::from_hours(10.0),
            SimTime::from_hours(12.0),
        )]);
        let bill = engine().bill_with_events(&c, &load, &events).unwrap();
        let penalty = bill
            .item_for(ContractComponentKind::EmergencyDr)
            .unwrap()
            .amount;
        assert_eq!(penalty.as_dollars(), 50_000.0);
    }

    #[test]
    fn bill_is_additive_over_components() {
        // Billing the same load under (tariff) and (tariff+DC) differs by
        // exactly the DC amount.
        let load = flat_load(24, 10.0);
        let t_only = Contract::builder("t")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.08)))
            .build()
            .unwrap();
        let t_dc = Contract::builder("t+dc")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.08)))
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
            .build()
            .unwrap();
        let e = engine();
        let b1 = e.bill(&t_only, &load).unwrap();
        let b2 = e.bill(&t_dc, &load).unwrap();
        let dc = b2
            .item_for(ContractComponentKind::DemandCharge)
            .unwrap()
            .amount;
        assert!(((b2.total() - b1.total()).as_dollars() - dc.as_dollars()).abs() < 1e-9);
    }

    #[test]
    fn bill_many_matches_per_load_bills() {
        let e = engine();
        let c = full_contract();
        let loads: Vec<PowerSeries> = (1..=6).map(|i| flat_load(40 * 24, i as f64)).collect();
        let batch = e.bill_many(&c, &loads).unwrap();
        assert_eq!(batch.len(), loads.len());
        for (load, bill) in loads.iter().zip(&batch) {
            assert_eq!(e.bill(&c, load).unwrap(), *bill);
        }
    }

    #[test]
    fn bill_many_empty_batch_and_empty_load() {
        let e = engine();
        let c = full_contract();
        assert!(e.bill_many(&c, &[]).unwrap().is_empty());
        let empty = PowerSeries::new(SimTime::EPOCH, Duration::from_hours(1.0), vec![]).unwrap();
        assert!(e.bill_many(&c, &[flat_load(24, 1.0), empty]).is_err());
    }

    #[test]
    fn bill_many_with_events_matches() {
        use crate::emergency::EmergencyDrClause;
        use hpcgrid_timeseries::intervals::Interval;
        let c = Contract::builder("em")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.08)))
            .emergency(EmergencyDrClause::reference(Power::from_megawatts(5.0)))
            .build()
            .unwrap();
        let events = IntervalSet::from_intervals(vec![Interval::new(
            SimTime::from_hours(10.0),
            SimTime::from_hours(12.0),
        )]);
        let e = engine();
        let loads = vec![flat_load(24, 10.0), flat_load(24, 2.0)];
        let batch = e.bill_many_with_events(&c, &loads, &events).unwrap();
        for (load, bill) in loads.iter().zip(&batch) {
            assert_eq!(e.bill_with_events(&c, load, &events).unwrap(), *bill);
        }
    }

    #[test]
    fn render_contains_items_and_total() {
        let bill = engine()
            .bill(&full_contract(), &flat_load(24, 10.0))
            .unwrap();
        let s = bill.render();
        assert!(s.contains("TOTAL"));
        assert!(s.contains("Demand charges"));
        assert!(s.contains("full"));
    }
}
