//! Quickstart: build the paper's sensor, run the Fig. 9 two-measure
//! sequence, and decode the results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use psn_thermometer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's system: two 7-bit arrays (VDD and GND), delay code 011,
    // 2 ns control clock.
    let mut sensor = SensorSystem::new(SensorConfig::default())?;

    // A supply that steps from the nominal 1.0 V down to 0.9 V — the two
    // "input" noise values of the paper's Fig. 9.
    let vdd = supply_step(
        Voltage::from_v(1.0),
        Voltage::from_v(0.9),
        Time::from_ns(15.0),
        Time::from_us(1.0),
    )?;
    let gnd = Waveform::constant(0.0);

    println!("PREPARE phase output: {}", sensor.hs_prepare_code());
    for m in sensor.run(&mut RunCtx::serial(), &vdd, &gnd, Time::ZERO, 2)? {
        let range = match (m.hs_interval.lower, m.hs_interval.upper) {
            (Some(lo), Some(hi)) => format!("{:.3}–{:.3} V", lo.volts(), hi.volts()),
            _ => "outside the dynamic range".to_string(),
        };
        println!(
            "SENSE @ {:7.2} ns: code {} (level {}) → VDD-n in {}",
            m.at.nanoseconds(),
            m.hs_code,
            m.hs_word.level,
            range,
        );
    }

    // The characteristic behind those codes: per-element thresholds.
    let thresholds = sensor.hs_point().thresholds();
    println!(
        "\nelement thresholds (delay code {}):",
        sensor.config().hs_code
    );
    for (i, t) in thresholds.iter().enumerate() {
        println!("  element {}: {:.3} V", i + 1, t.volts());
    }
    Ok(())
}
