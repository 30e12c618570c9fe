//! Paper-style result tables and shape comparison against the published
//! numbers.
//!
//! Tables 2–5 of the paper all have the same layout: one column per
//! generator set — identified by its (task density, cost standard deviation)
//! pair, in the order (1,0) (2,0) (3,0) (1,2) (2,2) (3,2) — and three rows
//! (AART, AIR, ASR). [`ResultTable`] holds and formats such a table;
//! [`paper`] records the published values; [`shape`] provides the qualitative
//! checks the README ("Reproducing the paper") and the integration tests rely
//! on (who wins, how the metrics move with density and heterogeneity), since
//! absolute virtual-time values are not expected to match a 2 GHz Pentium 4.

use crate::aggregate::SetAggregate;
use std::fmt;

/// The six set identifiers of the paper's evaluation, in reporting order.
pub const SET_ORDER: [(u32, u32); 6] = [(1, 0), (2, 0), (3, 0), (1, 2), (2, 2), (3, 2)];

/// One table of the paper: the aggregate of every set, keyed by the set's
/// (density, standard deviation) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Table caption ("Measures on Polling Server simulations", …).
    pub caption: String,
    /// One aggregate per set, in [`SET_ORDER`] order.
    pub sets: Vec<((u32, u32), SetAggregate)>,
}

impl ResultTable {
    /// Creates a table from aggregates listed in [`SET_ORDER`] order.
    pub fn new(caption: impl Into<String>, sets: Vec<((u32, u32), SetAggregate)>) -> Self {
        ResultTable {
            caption: caption.into(),
            sets,
        }
    }

    /// The aggregate of one set.
    pub fn get(&self, set: (u32, u32)) -> Option<&SetAggregate> {
        self.sets.iter().find(|(k, _)| *k == set).map(|(_, a)| a)
    }

    /// AART row in set order.
    pub fn aart_row(&self) -> Vec<f64> {
        self.sets.iter().map(|(_, a)| a.aart).collect()
    }

    /// AIR row in set order.
    pub fn air_row(&self) -> Vec<f64> {
        self.sets.iter().map(|(_, a)| a.air).collect()
    }

    /// ASR row in set order.
    pub fn asr_row(&self) -> Vec<f64> {
        self.sets.iter().map(|(_, a)| a.asr).collect()
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.caption)?;
        write!(f, "{:>6}", "")?;
        for ((d, s), _) in &self.sets {
            write!(f, " {:>8}", format!("({d},{s})"))?;
        }
        writeln!(f)?;
        for (label, row) in [
            ("AART", self.aart_row()),
            ("AIR", self.air_row()),
            ("ASR", self.asr_row()),
        ] {
            write!(f, "{label:>6}")?;
            for value in row {
                write!(f, " {value:>8.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The values published in the paper, used for side-by-side reporting.
pub mod paper {
    /// Rows are (AART, AIR, ASR) per set in [`super::SET_ORDER`] order.
    pub type PaperRows = [(f64, f64, f64); 6];

    /// Table 2 — Polling Server simulations.
    pub const TABLE2_PS_SIMULATION: PaperRows = [
        (8.86, 0.00, 0.89),
        (17.52, 0.00, 0.63),
        (23.76, 0.00, 0.43),
        (10.24, 0.00, 0.85),
        (20.58, 0.00, 0.50),
        (25.50, 0.00, 0.35),
    ];

    /// Table 3 — Polling Server executions.
    pub const TABLE3_PS_EXECUTION: PaperRows = [
        (12.24, 0.01, 0.75),
        (20.80, 0.01, 0.44),
        (25.05, 0.00, 0.30),
        (6.55, 0.17, 0.48),
        (7.15, 0.24, 0.34),
        (12.54, 0.29, 0.30),
    ];

    /// Table 4 — Deferrable Server simulations.
    pub const TABLE4_DS_SIMULATION: PaperRows = [
        (5.30, 0.00, 0.94),
        (13.44, 0.00, 0.67),
        (19.83, 0.00, 0.46),
        (6.36, 0.00, 0.94),
        (17.40, 0.00, 0.56),
        (21.71, 0.00, 0.38),
    ];

    /// Table 5 — Deferrable Server executions.
    pub const TABLE5_DS_EXECUTION: PaperRows = [
        (6.90, 0.00, 0.84),
        (14.55, 0.00, 0.56),
        (20.58, 0.00, 0.39),
        (8.02, 0.14, 0.66),
        (13.47, 0.26, 0.43),
        (16.91, 0.27, 0.30),
    ];
}

/// Qualitative shape checks shared by the integration tests and the
/// README's "Reproducing the paper" comparison.
pub mod shape {
    use super::ResultTable;

    /// AART grows with the task density within each cost family
    /// (homogeneous sets and heterogeneous sets checked independently).
    pub fn aart_grows_with_density(table: &ResultTable) -> bool {
        let row = table.aart_row();
        row.len() == 6
            && row[0] <= row[1]
            && row[1] <= row[2]
            && row[3] <= row[4]
            && row[4] <= row[5]
    }

    /// ASR shrinks as the density grows within each cost family.
    pub fn asr_shrinks_with_density(table: &ResultTable) -> bool {
        let row = table.asr_row();
        row.len() == 6
            && row[0] >= row[1]
            && row[1] >= row[2]
            && row[3] >= row[4]
            && row[4] >= row[5]
    }

    /// Every AIR entry is (close to) zero — true of all simulations and of
    /// homogeneous-cost executions.
    pub fn air_is_negligible(table: &ResultTable, tolerance: f64) -> bool {
        table.air_row().iter().all(|&v| v <= tolerance)
    }

    /// The heterogeneous-cost sets show strictly more interruptions than the
    /// homogeneous ones (the executions' signature effect).
    pub fn heterogeneous_sets_interrupt_more(table: &ResultTable) -> bool {
        let row = table.air_row();
        let homogeneous: f64 = row[..3].iter().sum();
        let heterogeneous: f64 = row[3..].iter().sum();
        heterogeneous > homogeneous
    }

    /// `better` has a lower AART than `worse` on every set (e.g. DS vs PS
    /// simulations).
    pub fn dominates_on_aart(better: &ResultTable, worse: &ResultTable) -> bool {
        better
            .aart_row()
            .iter()
            .zip(worse.aart_row())
            .all(|(b, w)| *b <= w + 1e-9)
    }

    /// `better` has a higher ASR than `worse` on every set.
    pub fn dominates_on_asr(better: &ResultTable, worse: &ResultTable) -> bool {
        better
            .asr_row()
            .iter()
            .zip(worse.asr_row())
            .all(|(b, w)| *b + 1e-9 >= w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(values: &[(f64, f64, f64)]) -> ResultTable {
        ResultTable::new(
            "test",
            SET_ORDER
                .iter()
                .zip(values)
                .map(|(&k, &(aart, air, asr))| {
                    (
                        k,
                        SetAggregate {
                            runs: 10,
                            aart,
                            air,
                            asr,
                        },
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn paper_tables_satisfy_their_own_shape_claims() {
        let t2 = table(&paper::TABLE2_PS_SIMULATION);
        let t3 = table(&paper::TABLE3_PS_EXECUTION);
        let t4 = table(&paper::TABLE4_DS_SIMULATION);
        let t5 = table(&paper::TABLE5_DS_EXECUTION);
        // Simulated AIR is exactly zero; DS simulation beats PS simulation.
        assert!(shape::air_is_negligible(&t2, 0.0));
        assert!(shape::air_is_negligible(&t4, 0.0));
        assert!(shape::dominates_on_aart(&t4, &t2));
        assert!(shape::dominates_on_asr(&t4, &t2));
        // Densities push the simulated response times up and the ASR down.
        assert!(shape::aart_grows_with_density(&t2));
        assert!(shape::asr_shrinks_with_density(&t2));
        assert!(shape::aart_grows_with_density(&t4));
        assert!(shape::asr_shrinks_with_density(&t4));
        // Executions interrupt mostly on the heterogeneous sets.
        assert!(shape::heterogeneous_sets_interrupt_more(&t3));
        assert!(shape::heterogeneous_sets_interrupt_more(&t5));
        // Executions never serve more than the corresponding simulation.
        assert!(shape::dominates_on_asr(&t2, &t3));
        assert!(shape::dominates_on_asr(&t4, &t5));
    }

    #[test]
    fn table_formatting_contains_every_row() {
        let t = table(&paper::TABLE2_PS_SIMULATION);
        let rendered = t.to_string();
        assert!(rendered.contains("AART"));
        assert!(rendered.contains("AIR"));
        assert!(rendered.contains("ASR"));
        assert!(rendered.contains("(1,0)"));
        assert!(rendered.contains("8.86"));
    }

    #[test]
    fn get_and_rows() {
        let t = table(&paper::TABLE4_DS_SIMULATION);
        assert_eq!(t.get((1, 0)).unwrap().aart, 5.30);
        assert_eq!(t.get((9, 9)), None);
        assert_eq!(t.aart_row().len(), 6);
        assert_eq!(t.air_row().len(), 6);
        assert_eq!(t.asr_row().len(), 6);
    }
}
