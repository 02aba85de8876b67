//! Combinational standard cells: logic functions plus timing.
//!
//! A [`StdCell`] pairs a pure [`GateFunction`] with an
//! [`AlphaPowerDelay`] timing model and per-pin input capacitance — the
//! same information a Liberty library entry carries. The gate-level
//! simulator and STA in `psnt-netlist` are built on these.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::gates::{GateFunction, StdCell};
//! use psnt_cells::logic::Logic;
//!
//! let nand = StdCell::nand2(1.0);
//! assert_eq!(nand.eval(&[Logic::One, Logic::One]), Logic::Zero);
//! assert_eq!(nand.eval(&[Logic::Zero, Logic::X]), Logic::One); // controlling 0
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::delay::{AlphaPowerDelay, DelayModel};
use crate::logic::Logic;
use crate::process::Pvt;
use crate::units::{Capacitance, Time, Voltage};

/// The boolean function computed by a combinational cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GateFunction {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 3-input NAND.
    Nand3,
    /// 3-input NOR.
    Nor3,
    /// 3-input AND.
    And3,
    /// 3-input OR.
    Or3,
    /// 2:1 multiplexer; inputs are `[a, b, sel]`, output `a` when `sel=0`.
    Mux2,
    /// AND-OR-INVERT 2-1: `!(a·b + c)`; inputs `[a, b, c]`.
    Aoi21,
    /// OR-AND-INVERT 2-1: `!((a+b)·c)`; inputs `[a, b, c]`.
    Oai21,
}

impl GateFunction {
    /// Number of input pins.
    pub fn num_inputs(self) -> usize {
        match self {
            GateFunction::Inv | GateFunction::Buf => 1,
            GateFunction::Nand2
            | GateFunction::Nor2
            | GateFunction::And2
            | GateFunction::Or2
            | GateFunction::Xor2
            | GateFunction::Xnor2 => 2,
            GateFunction::Nand3
            | GateFunction::Nor3
            | GateFunction::And3
            | GateFunction::Or3
            | GateFunction::Mux2
            | GateFunction::Aoi21
            | GateFunction::Oai21 => 3,
        }
    }

    /// Evaluates the function with four-valued semantics.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(self, inputs: &[Logic]) -> Logic {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "{self} expects {} inputs, got {}",
            self.num_inputs(),
            inputs.len()
        );
        match self {
            GateFunction::Inv => inputs[0].not(),
            GateFunction::Buf => inputs[0].not().not(),
            GateFunction::Nand2 => inputs[0].and(inputs[1]).not(),
            GateFunction::Nor2 => inputs[0].or(inputs[1]).not(),
            GateFunction::And2 => inputs[0].and(inputs[1]),
            GateFunction::Or2 => inputs[0].or(inputs[1]),
            GateFunction::Xor2 => inputs[0].xor(inputs[1]),
            GateFunction::Xnor2 => inputs[0].xor(inputs[1]).not(),
            GateFunction::Nand3 => inputs[0].and(inputs[1]).and(inputs[2]).not(),
            GateFunction::Nor3 => inputs[0].or(inputs[1]).or(inputs[2]).not(),
            GateFunction::And3 => inputs[0].and(inputs[1]).and(inputs[2]),
            GateFunction::Or3 => inputs[0].or(inputs[1]).or(inputs[2]),
            GateFunction::Mux2 => Logic::mux(inputs[2], inputs[0], inputs[1]),
            GateFunction::Aoi21 => inputs[0].and(inputs[1]).or(inputs[2]).not(),
            GateFunction::Oai21 => inputs[0].or(inputs[1]).and(inputs[2]).not(),
        }
    }

    /// Base cell area in gate equivalents (1 GE = one unit-drive NAND2)
    /// for a unit-drive cell of this function — representative 90 nm
    /// library relativities.
    pub fn base_area_ge(self) -> f64 {
        match self {
            GateFunction::Inv => 0.75,
            GateFunction::Buf => 1.0,
            GateFunction::Nand2 | GateFunction::Nor2 => 1.0,
            GateFunction::And2 | GateFunction::Or2 => 1.25,
            GateFunction::Xor2 | GateFunction::Xnor2 => 2.25,
            GateFunction::Nand3 | GateFunction::Nor3 => 1.5,
            GateFunction::And3 | GateFunction::Or3 => 1.75,
            GateFunction::Mux2 => 2.25,
            GateFunction::Aoi21 | GateFunction::Oai21 => 1.5,
        }
    }
}

impl fmt::Display for GateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateFunction::Inv => "INV",
            GateFunction::Buf => "BUF",
            GateFunction::Nand2 => "NAND2",
            GateFunction::Nor2 => "NOR2",
            GateFunction::And2 => "AND2",
            GateFunction::Or2 => "OR2",
            GateFunction::Xor2 => "XOR2",
            GateFunction::Xnor2 => "XNOR2",
            GateFunction::Nand3 => "NAND3",
            GateFunction::Nor3 => "NOR3",
            GateFunction::And3 => "AND3",
            GateFunction::Or3 => "OR3",
            GateFunction::Mux2 => "MUX2",
            GateFunction::Aoi21 => "AOI21",
            GateFunction::Oai21 => "OAI21",
        };
        f.write_str(s)
    }
}

/// Silicon area of one gate equivalent at 90 nm, in µm² (a unit-drive
/// NAND2 footprint).
pub const GE_AREA_90NM_UM2: f64 = 4.4;

/// Representative 90 nm GP leakage per gate equivalent at 25 °C, in nW.
pub const LEAKAGE_NW_PER_GE: f64 = 2.5;

/// A combinational standard cell: function + timing + pin loading.
///
/// By default one [`AlphaPowerDelay`] times both output edges. Cells
/// whose pull-up and pull-down see different supplies (the sensor's
/// HIGH-SENSE inverter: pull-up from the noisy rail, pull-down with full
/// gate drive from the clean-domain input) can carry a distinct
/// falling-edge model via [`StdCell::with_fall_model`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StdCell {
    name: String,
    function: GateFunction,
    delay: AlphaPowerDelay,
    #[serde(default)]
    fall_delay: Option<AlphaPowerDelay>,
    input_capacitance: Capacitance,
    #[serde(default)]
    area_ge: f64,
}

impl StdCell {
    /// Creates a cell from its parts.
    pub fn new(
        name: impl Into<String>,
        function: GateFunction,
        delay: AlphaPowerDelay,
        input_capacitance: Capacitance,
    ) -> StdCell {
        let area_ge = function.base_area_ge();
        StdCell {
            name: name.into(),
            function,
            delay,
            fall_delay: None,
            input_capacitance,
            area_ge,
        }
    }

    /// Returns a copy with a distinct timing model for *falling* output
    /// transitions (the default model then times rising ones only).
    #[must_use]
    pub fn with_fall_model(mut self, fall: AlphaPowerDelay) -> StdCell {
        self.fall_delay = Some(fall);
        self
    }

    fn standard(name: &str, function: GateFunction, intrinsic_ps: f64, drive: f64) -> StdCell {
        StdCell {
            name: format!("{name}X{}", drive as u32),
            function,
            delay: AlphaPowerDelay::logic_gate(intrinsic_ps).with_drive_strength(drive),
            fall_delay: None,
            // Input capacitance grows with the drive strength (wider
            // transistors present more gate capacitance).
            input_capacitance: Capacitance::from_ff(1.8 * drive),
            // Area grows sub-linearly with drive (shared internal stages).
            area_ge: function.base_area_ge() * (0.6 + 0.4 * drive),
        }
    }

    /// Minimum-size inverter family; `drive` is the strength multiplier.
    pub fn inverter(drive: f64) -> StdCell {
        StdCell::standard("INV", GateFunction::Inv, 12.0, drive)
    }

    /// Buffer (two inverters): slower intrinsic, non-inverting.
    pub fn buffer(drive: f64) -> StdCell {
        StdCell::standard("BUF", GateFunction::Buf, 28.0, drive)
    }

    /// 2-input NAND.
    pub fn nand2(drive: f64) -> StdCell {
        StdCell::standard("NAND2", GateFunction::Nand2, 16.0, drive)
    }

    /// 2-input NOR.
    pub fn nor2(drive: f64) -> StdCell {
        StdCell::standard("NOR2", GateFunction::Nor2, 18.0, drive)
    }

    /// 2-input AND (NAND + INV).
    pub fn and2(drive: f64) -> StdCell {
        StdCell::standard("AND2", GateFunction::And2, 26.0, drive)
    }

    /// 2-input OR (NOR + INV).
    pub fn or2(drive: f64) -> StdCell {
        StdCell::standard("OR2", GateFunction::Or2, 28.0, drive)
    }

    /// 2-input XOR.
    pub fn xor2(drive: f64) -> StdCell {
        StdCell::standard("XOR2", GateFunction::Xor2, 30.0, drive)
    }

    /// 2-input XNOR.
    pub fn xnor2(drive: f64) -> StdCell {
        StdCell::standard("XNOR2", GateFunction::Xnor2, 30.0, drive)
    }

    /// 3-input AND.
    pub fn and3(drive: f64) -> StdCell {
        StdCell::standard("AND3", GateFunction::And3, 32.0, drive)
    }

    /// 3-input OR.
    pub fn or3(drive: f64) -> StdCell {
        StdCell::standard("OR3", GateFunction::Or3, 34.0, drive)
    }

    /// 2:1 MUX (the PG uses matched MUXes on P and CP so their skew
    /// cancels — paper Fig. 7).
    pub fn mux2(drive: f64) -> StdCell {
        StdCell::standard("MUX2", GateFunction::Mux2, 34.0, drive)
    }

    /// The cell's library name, e.g. `NAND2X1`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The boolean function.
    pub fn function(&self) -> GateFunction {
        self.function
    }

    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.function.num_inputs()
    }

    /// The timing model.
    pub fn delay_model(&self) -> &AlphaPowerDelay {
        &self.delay
    }

    /// Capacitance presented by one input pin.
    pub fn input_capacitance(&self) -> Capacitance {
        self.input_capacitance
    }

    /// Cell area in gate equivalents (1 GE = a unit-drive NAND2, ≈
    /// [`GE_AREA_90NM_UM2`] at 90 nm).
    pub fn area_ge(&self) -> f64 {
        self.area_ge
    }

    /// Leakage power estimate in nanowatts: [`LEAKAGE_NW_PER_GE`] per GE
    /// (representative 90 nm general-purpose silicon at 25 °C).
    pub fn leakage_nw(&self) -> f64 {
        self.area_ge * LEAKAGE_NW_PER_GE
    }

    /// Evaluates the cell's function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the pin count.
    pub fn eval(&self, inputs: &[Logic]) -> Logic {
        self.function.eval(inputs)
    }

    /// Propagation delay driving `load` from `supply` at `pvt` — the
    /// worst (slower) edge when the cell has distinct edge models.
    pub fn propagation_delay(&self, supply: Voltage, load: Capacitance, pvt: &Pvt) -> Time {
        let rise = self.delay.propagation_delay(supply, load, pvt);
        match &self.fall_delay {
            None => rise,
            Some(fall) => rise.max(fall.propagation_delay(supply, load, pvt)),
        }
    }

    /// Propagation delay for a specific output edge: `rising = true` uses
    /// the primary (pull-up) model, `false` the falling model when one is
    /// set.
    pub fn propagation_delay_edge(
        &self,
        supply: Voltage,
        load: Capacitance,
        pvt: &Pvt,
        rising: bool,
    ) -> Time {
        match (&self.fall_delay, rising) {
            (Some(fall), false) => fall.propagation_delay(supply, load, pvt),
            _ => self.delay.propagation_delay(supply, load, pvt),
        }
    }
}

impl fmt::Display for StdCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.function)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn truth_tables_two_input() {
        use Logic::{One, Zero};
        let cases = [
            (
                GateFunction::Nand2,
                [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
            ),
            (
                GateFunction::Nor2,
                [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)],
            ),
            (
                GateFunction::And2,
                [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
            ),
            (
                GateFunction::Or2,
                [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
            ),
            (
                GateFunction::Xor2,
                [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
            ),
            (
                GateFunction::Xnor2,
                [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
            ),
        ];
        for (gate, table) in cases {
            for (a, b, q) in table {
                let ins = [
                    if a == 1 { One } else { Zero },
                    if b == 1 { One } else { Zero },
                ];
                let expect = if q == 1 { One } else { Zero };
                assert_eq!(gate.eval(&ins), expect, "{gate} {a}{b}");
            }
        }
    }

    #[test]
    fn three_input_functions() {
        use Logic::{One, Zero};
        assert_eq!(GateFunction::Nand3.eval(&[One, One, One]), Zero);
        assert_eq!(GateFunction::Nand3.eval(&[One, Zero, One]), One);
        assert_eq!(GateFunction::Nor3.eval(&[Zero, Zero, Zero]), One);
        assert_eq!(GateFunction::Nor3.eval(&[Zero, One, Zero]), Zero);
        assert_eq!(GateFunction::And3.eval(&[One, One, One]), One);
        assert_eq!(GateFunction::Or3.eval(&[Zero, Zero, One]), One);
        // AOI21: !(a·b + c)
        assert_eq!(GateFunction::Aoi21.eval(&[One, One, Zero]), Zero);
        assert_eq!(GateFunction::Aoi21.eval(&[Zero, One, Zero]), One);
        assert_eq!(GateFunction::Aoi21.eval(&[Zero, Zero, One]), Zero);
        // OAI21: !((a+b)·c)
        assert_eq!(GateFunction::Oai21.eval(&[Zero, Zero, One]), One);
        assert_eq!(GateFunction::Oai21.eval(&[One, Zero, One]), Zero);
        assert_eq!(GateFunction::Oai21.eval(&[One, One, Zero]), One);
    }

    #[test]
    fn mux_function() {
        use Logic::{One, Zero};
        assert_eq!(GateFunction::Mux2.eval(&[One, Zero, Zero]), One);
        assert_eq!(GateFunction::Mux2.eval(&[One, Zero, One]), Zero);
    }

    #[test]
    fn controlling_values_beat_x() {
        use Logic::{One, Zero, X};
        assert_eq!(GateFunction::Nand2.eval(&[Zero, X]), One);
        assert_eq!(GateFunction::Nor2.eval(&[One, X]), Zero);
        assert_eq!(GateFunction::And3.eval(&[X, Zero, X]), Zero);
        assert_eq!(GateFunction::Or3.eval(&[X, One, X]), One);
        // Non-controlling unknown propagates.
        assert_eq!(GateFunction::Nand2.eval(&[One, X]), X);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_panics() {
        GateFunction::Nand2.eval(&[Logic::One]);
    }

    #[test]
    fn cell_names_and_arity() {
        assert_eq!(StdCell::inverter(1.0).name(), "INVX1");
        assert_eq!(StdCell::nand2(4.0).name(), "NAND2X4");
        assert_eq!(StdCell::mux2(2.0).num_inputs(), 3);
        assert_eq!(StdCell::buffer(1.0).num_inputs(), 1);
    }

    #[test]
    fn higher_drive_is_faster_but_heavier() {
        let pvt = Pvt::typical();
        let v = Voltage::from_v(1.0);
        let load = Capacitance::from_ff(50.0);
        let x1 = StdCell::nand2(1.0);
        let x4 = StdCell::nand2(4.0);
        assert!(x4.propagation_delay(v, load, &pvt) < x1.propagation_delay(v, load, &pvt));
        assert!(x4.input_capacitance() > x1.input_capacitance());
    }

    #[test]
    fn edge_models_select_by_transition() {
        let rise = AlphaPowerDelay::paper_sense_inverter();
        let fall = AlphaPowerDelay::new(
            1.0e-6, // pure intrinsic arc
            Capacitance::from_ff(1.0),
            Time::from_ps(100.0),
            Voltage::from_v(0.3),
            1.3,
        )
        .unwrap();
        let cell = StdCell::new(
            "ASYM_INV",
            GateFunction::Inv,
            rise,
            Capacitance::from_ff(2.0),
        )
        .with_fall_model(fall);
        let pvt = Pvt::typical();
        let c = Capacitance::from_pf(2.0);
        let v = Voltage::from_v(0.9);
        let t_rise = cell.propagation_delay_edge(v, c, &pvt, true);
        let t_fall = cell.propagation_delay_edge(v, c, &pvt, false);
        // The rising arc is rail-limited; the falling arc is essentially
        // its fixed intrinsic.
        assert!(t_rise > Time::from_ps(110.0));
        assert!((t_fall - Time::from_ps(100.0)).abs() < Time::from_ps(1.0));
        // The undirected query reports the worst edge.
        assert_eq!(cell.propagation_delay(v, c, &pvt), t_rise.max(t_fall));
        // Cells without a fall model answer identically for both edges.
        let sym = StdCell::inverter(1.0);
        assert_eq!(
            sym.propagation_delay_edge(v, c, &pvt, true),
            sym.propagation_delay_edge(v, c, &pvt, false)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(GateFunction::Nand2.to_string(), "NAND2");
        assert_eq!(StdCell::inverter(2.0).to_string(), "INVX2 (INV)");
    }

    fn arb_logic() -> impl Strategy<Value = Logic> {
        prop_oneof![
            Just(Logic::Zero),
            Just(Logic::One),
            Just(Logic::X),
            Just(Logic::Z)
        ]
    }

    proptest! {
        #[test]
        fn nand_is_not_and(a in arb_logic(), b in arb_logic()) {
            prop_assert_eq!(
                GateFunction::Nand2.eval(&[a, b]),
                GateFunction::And2.eval(&[a, b]).not()
            );
            prop_assert_eq!(
                GateFunction::Nor2.eval(&[a, b]),
                GateFunction::Or2.eval(&[a, b]).not()
            );
        }

        #[test]
        fn known_inputs_give_known_outputs(bits in proptest::collection::vec(any::<bool>(), 3)) {
            let ins: Vec<Logic> = bits.iter().copied().map(Logic::from).collect();
            for f in [GateFunction::Nand3, GateFunction::Nor3, GateFunction::And3,
                      GateFunction::Or3, GateFunction::Mux2, GateFunction::Aoi21,
                      GateFunction::Oai21] {
                prop_assert!(f.eval(&ins).is_known(), "{} produced unknown", f);
            }
        }

        #[test]
        fn delay_positive(drive in 0.5..8.0f64, load_ff in 1.0..500.0f64) {
            let cell = StdCell::nand2(drive);
            let t = cell.propagation_delay(
                Voltage::from_v(1.0),
                Capacitance::from_ff(load_ff),
                &Pvt::typical(),
            );
            prop_assert!(t > Time::ZERO);
        }
    }
}
