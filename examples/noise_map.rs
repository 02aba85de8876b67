//! Scan-chain use case: instrument every tile of a CUT power grid with a
//! sensor array, run a measurement campaign under a localised hot spot,
//! and print the resulting spatial noise map — the paper's "measures in
//! many points of the CUT … as scan chains are for fault verification".
//!
//! ```sh
//! cargo run --example noise_map
//! ```

use psn_thermometer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6×6 on-die grid fed from the four corners.
    let side = 6;
    let grid = psn_thermometer::pdn::grid::PowerGrid::corner_fed(
        side,
        Voltage::from_v(1.05),
        Resistance::from_milliohms(60.0),
        Resistance::from_milliohms(15.0),
    )?;
    let floorplan = Floorplan::new(grid, Placement::EveryTile)?;
    let campaign = Campaign::new(floorplan, SensorConfig::default())?;

    // An execution-unit cluster near the centre ramps up mid-run.
    let mut loads = vec![Waveform::constant(0.03); side * side];
    for hot in [14usize, 15, 20, 21] {
        loads[hot] = Waveform::from_points(vec![
            (Time::ZERO, 0.05),
            (Time::from_ns(80.0), 0.45),
            (Time::from_ns(160.0), 0.45),
            (Time::from_ns(240.0), 0.10),
        ])?;
    }

    // The return current flows through a stiffer ground mesh; each
    // site's LOW-SENSE array measures the local bounce simultaneously.
    let gnd_grid = psn_thermometer::pdn::grid::PowerGrid::corner_fed(
        side,
        Voltage::ZERO,
        Resistance::from_milliohms(120.0),
        Resistance::from_milliohms(30.0),
    )?;
    let result = campaign
        .run_resilient(
            &mut RunCtx::serial(),
            &loads,
            Some(&gnd_grid),
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            12,
            RetryPolicy::none(),
        )?
        .result;
    println!(
        "campaign: {} sites × {} samples; scan chain {} FFs ({} shift cycles/frame)\n",
        result.sites.len(),
        result.instants.len(),
        campaign.chain().len(),
        campaign.chain().shift_cycles(),
    );

    println!("worst thermometer level per tile (7 = clean, 0 = below range):");
    for r in 0..side {
        let row: Vec<String> = (0..side)
            .map(|c| {
                let site = result.sites.iter().find(|s| s.tile == r * side + c);
                site.map_or("·".into(), |s| s.worst_level().to_string())
            })
            .collect();
        println!("   {}", row.join(" "));
    }

    println!("\nworst ground-bounce level per tile (LOW-SENSE arrays):");
    for r in 0..side {
        let row: Vec<String> = (0..side)
            .map(|c| {
                let site = result.sites.iter().find(|s| s.tile == r * side + c);
                site.map_or("·".into(), |s| s.worst_ls_level().to_string())
            })
            .collect();
        println!("   {}", row.join(" "));
    }

    let hotspot = result.hotspot().expect("non-empty campaign");
    println!(
        "\nhotspot: {} (tile {}), worst level {}, worst VDD estimate {}",
        hotspot.name,
        hotspot.tile,
        hotspot.worst_level(),
        hotspot
            .worst_voltage()
            .map_or("below range".to_string(), |v| format!("{:.3} V", v.volts())),
    );

    // Show one serialized frame, like a tester would see it.
    let mid = result.frames.len() / 2;
    println!(
        "\nscan frame @ {:.0} ns (first 70 bits): {}",
        result.instants[mid].nanoseconds(),
        result.frames[mid]
            .to_string()
            .chars()
            .take(70)
            .collect::<String>()
    );
    Ok(())
}
