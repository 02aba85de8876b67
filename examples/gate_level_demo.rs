//! Run the paper's entire system — control FSM, pulse generator and
//! 7-bit array — as one flattened standard-cell netlist in the
//! event-driven simulator, and dump the Fig. 9 waveforms as a VCD file
//! for any waveform viewer.
//!
//! ```sh
//! cargo run --example gate_level_demo
//! gtkwave sensor_system.vcd   # optional
//! ```

use psn_thermometer::cells::logic::Logic;
use psn_thermometer::netlist::sim::Simulator;
use psn_thermometer::prelude::*;
use psn_thermometer::sensor::element::RailMode;
use psn_thermometer::sensor::gate_level::GateLevelSystem;
use psn_thermometer::sensor::thermometer::ThermometerArray;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = GateLevelSystem::paper()?;
    println!("flattened system: {}", system.netlist().summary());
    println!("power domains: {:?}", system.netlist().domains());

    // Two measures with the rail stepped 1.0 V → 0.9 V, delay code 011.
    let code = DelayCode::new(3)?;
    let rails = [Voltage::from_v(1.0), Voltage::from_v(0.9)];
    let measures = system.run_measures(&mut RunCtx::serial(), code, &rails)?;

    let behavioural = ThermometerArray::paper(RailMode::Supply);
    println!("\nmeasure | rail    | gate-level code | pin skew  | behavioural check");
    println!("--------+---------+-----------------+-----------+------------------");
    for (k, (m, rail)) in measures.iter().zip(&rails).enumerate() {
        let check = behavioural.at(m.skew(), &Pvt::typical())?.measure(*rail);
        println!(
            "   {}    | {:.2} V  |     {}     | {:6.1} ps | {} ({})",
            k + 1,
            rail.volts(),
            m.code,
            m.skew().picoseconds(),
            check,
            if check == m.code { "match" } else { "MISMATCH" },
        );
    }

    // Re-run with tracing and export the VCD.
    let mut sim = Simulator::new(system.netlist(), Voltage::from_v(1.0))?;
    sim.set_domain_supply(system.noisy_domain(), Voltage::from_v(1.0));
    let n = system.netlist();
    let clk = n.net_by_name("clk")?;
    let enable = n.net_by_name("enable")?;
    let start = n.net_by_name("start")?;
    sim.drive(enable, Logic::One, Time::ZERO)?;
    sim.drive(start, Logic::One, Time::ZERO)?;
    for i in 0..3u8 {
        let sel = n.net_by_name(&format!("sel{i}"))?;
        sim.drive(sel, Logic::from(code.value() >> i & 1 == 1), Time::ZERO)?;
    }
    sim.drive_clock(clk, Time::from_ns(2.0), Time::from_ns(4.0), 12)?;
    sim.run_until(Time::from_ns(24.0));
    sim.set_domain_supply(system.noisy_domain(), Voltage::from_v(0.9));
    sim.run_until(Time::from_ns(50.0));

    let vcd = sim.trace().to_vcd("sensor_system");
    std::fs::write("sensor_system.vcd", &vcd)?;
    println!(
        "\nwrote sensor_system.vcd ({} bytes, {} signals, {} events applied)",
        vcd.len(),
        sim.trace().signal_count(),
        sim.stats().events,
    );
    println!(
        "flip-flop captures: {} ({} setup/hold violations — the SENSE errors that *are* the measurement)",
        sim.stats().ff_captures,
        sim.stats().ff_violations,
    );
    Ok(())
}
