//! Process-variation-aware configuration: re-trim the delay code per
//! corner so the sensor characteristic stays put — the paper's "can be
//! adapted so that measures are process variation insensitive".
//!
//! ```sh
//! cargo run --example process_trim
//! ```

use psn_thermometer::prelude::*;
use psn_thermometer::sensor::calibration::array_characteristic;
use psn_thermometer::sensor::element::RailMode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let array = ThermometerArray::paper(RailMode::Supply);
    let pg = PulseGenerator::paper_table();
    let reference = Pvt::typical();
    let ref_code = DelayCode::new(3)?;
    let mut ctx = RunCtx::serial();
    let ref_ch = array_characteristic(&mut ctx, &array, &pg, ref_code, &reference)?;
    println!(
        "reference (TT, code {ref_code}): range {:.3}–{:.3} V, midpoint {:.3} V\n",
        ref_ch.range.0.volts(),
        ref_ch.range.1.volts(),
        ref_ch.midpoint().volts()
    );

    println!("corner | untrimmed range      | midpoint shift | trimmed code | residual");
    println!("-------+----------------------+----------------+--------------+---------");
    for corner in ProcessCorner::ALL {
        let pvt = Pvt::new(
            corner,
            Voltage::from_v(1.0),
            psn_thermometer::cells::units::Temperature::from_celsius(25.0),
        );
        let untrimmed = array_characteristic(&mut ctx, &array, &pg, ref_code, &pvt)?;
        let shift = untrimmed.midpoint() - ref_ch.midpoint();
        let trim = psn_thermometer::sensor::calibration::trim_for_corner(
            &mut ctx, &array, &pg, ref_code, &reference, &pvt,
        )?;
        println!(
            "  {corner}   | {:.3}–{:.3} V        | {:+7.1} mV     |     {}      | {:5.1} mV",
            untrimmed.range.0.volts(),
            untrimmed.range.1.volts(),
            shift.millivolts(),
            trim.code,
            trim.residual.millivolts(),
        );
    }

    // And the same knob used the other way: deliberately re-ranging a
    // live system to watch an overvoltage.
    let mut sensor = SensorSystem::new(SensorConfig::default())?;
    let vdd = Waveform::constant(1.15);
    let gnd = Waveform::constant(0.0);
    let saturated = sensor.measure_at(&vdd, &gnd, Time::from_ns(10.0))?;
    sensor.set_delay_codes(DelayCode::new(2)?, DelayCode::new(3)?)?;
    let resolved = sensor.measure_at(&vdd, &gnd, Time::from_ns(10.0))?;
    println!(
        "\ndynamic re-ranging @ 1.15 V: code 011 reads {} (saturated: {}), code 010 reads {} → {:.3}–{:.3} V",
        saturated.hs_code,
        saturated.hs_word.overflow,
        resolved.hs_code,
        resolved.hs_interval.lower.map_or(f64::NAN, |v| v.volts()),
        resolved.hs_interval.upper.map_or(f64::NAN, |v| v.volts()),
    );
    Ok(())
}
