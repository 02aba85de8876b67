//! Scan-chain integration: grid → campaign → serial frames → analysis.

use psn_thermometer::analysis::stats::summarize;
use psn_thermometer::pdn::grid::PowerGrid;
use psn_thermometer::prelude::*;
use psn_thermometer::scan::sampler::EquivalentTimeSampler;

fn grid(side: usize) -> PowerGrid {
    PowerGrid::corner_fed(
        side,
        Voltage::from_v(1.05),
        Resistance::from_milliohms(60.0),
        Resistance::from_milliohms(15.0),
    )
    .unwrap()
}

#[test]
fn campaign_localises_a_hotspot() {
    let fp = Floorplan::new(grid(5), Placement::EveryTile).unwrap();
    let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
    let mut loads = vec![Waveform::constant(0.03); 25];
    loads[12] = Waveform::constant(1.0); // centre tile burns
    let result = campaign
        .run_resilient(
            &mut RunCtx::serial(),
            &loads,
            None,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            6,
            RetryPolicy::none(),
        )
        .unwrap()
        .result;
    let hotspot = result.hotspot().unwrap();
    // The ~30 mV/LSB quantisation can tie the centre with its immediate
    // neighbours (their IR difference is a few tens of mV), but the
    // hotspot must sit in that neighbourhood and the centre must share
    // the global worst level.
    assert!(
        [7usize, 11, 12, 13, 17].contains(&hotspot.tile),
        "hotspot at tile {}",
        hotspot.tile
    );
    let map = result.noise_map();
    let centre_level = map.iter().find(|(t, ..)| *t == 12).unwrap().1;
    assert_eq!(centre_level, hotspot.worst_level());
    // The map is symmetric: the four corners agree.
    let corner_levels: Vec<usize> = [0usize, 4, 20, 24]
        .iter()
        .map(|t| map.iter().find(|(tile, ..)| tile == t).unwrap().1)
        .collect();
    assert!(
        corner_levels.windows(2).all(|w| w[0] == w[1]),
        "{corner_levels:?}"
    );
    // And the hotspot is strictly worse than the corners.
    assert!(hotspot.worst_level() < corner_levels[0]);
}

#[test]
fn sparse_placement_still_sees_the_hotspot_neighbourhood() {
    let fp = Floorplan::new(grid(5), Placement::CornersAndCentre).unwrap();
    let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
    let mut loads = vec![Waveform::constant(0.03); 25];
    loads[12] = Waveform::constant(1.0);
    let result = campaign
        .run_resilient(
            &mut RunCtx::serial(),
            &loads,
            None,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            4,
            RetryPolicy::none(),
        )
        .unwrap()
        .result;
    assert_eq!(result.sites.len(), 5);
    assert_eq!(result.hotspot().unwrap().tile, 12);
    // Five sites × 7 bits per frame.
    assert!(result.frames.iter().all(|f| f.len() == 35));
}

#[test]
fn frames_decode_back_to_measurements() {
    let fp = Floorplan::new(grid(3), Placement::EveryTile).unwrap();
    let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
    let loads = vec![Waveform::constant(0.2); 9];
    let result = campaign
        .run_resilient(
            &mut RunCtx::serial(),
            &loads,
            None,
            Time::from_ns(10.0),
            Time::from_ns(25.0),
            5,
            RetryPolicy::none(),
        )
        .unwrap()
        .result;
    for (k, frame) in result.frames.iter().enumerate() {
        let codes = campaign.chain().deserialize(frame).unwrap();
        assert_eq!(codes.len(), 9);
        for (site, code) in result.sites.iter().zip(&codes) {
            assert_eq!(&site.measurements[k].hs_code, code);
        }
    }
}

#[test]
fn equivalent_time_beats_nyquist_limited_sampling() {
    // A 50 MHz resonance sampled at one measure per 100 ns (10 MHz —
    // far below Nyquist) is still reconstructed by the phase sweep.
    let f = Frequency::from_mhz(50.0);
    let period = Time::period_of(f);
    let vdd = SupplyNoiseBuilder::new(Voltage::from_v(0.94))
        .span(Time::ZERO, Time::from_us(45.0))
        .resolution(Time::from_ps(500.0))
        .resonance(f, Voltage::from_mv(35.0), 0.0)
        .build()
        .unwrap();
    let gnd = Waveform::constant(0.0);
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();

    // Stride of 5 periods + period/16: an equivalent-time sweep at an
    // average rate of one sample per ~100 ns.
    let sampler = EquivalentTimeSampler::new(period, 16).unwrap();
    let mut samples = Vec::new();
    for k in 0..400u64 {
        let at = Time::from_ns(100.0) + (period * 5.0 + period / 16.0) * k as f64;
        let m = sensor.measure_at(&vdd, &gnd, at).unwrap();
        if let Some(v) = m.hs_interval.midpoint() {
            samples.push((at, v));
        }
    }
    let recon = sampler.fold(&samples);
    assert!(recon.coverage() > 0.9, "coverage {}", recon.coverage());
    let p2p = recon.peak_to_peak().unwrap().millivolts();
    assert!((p2p - 70.0).abs() < 35.0, "p2p {p2p} mV vs true 70 mV");
}

#[test]
fn site_series_statistics_are_consistent() {
    let fp = Floorplan::new(grid(3), Placement::EveryTile).unwrap();
    let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
    let loads = vec![Waveform::constant(0.3); 9];
    let result = campaign
        .run_resilient(
            &mut RunCtx::serial(),
            &loads,
            None,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            10,
            RetryPolicy::none(),
        )
        .unwrap()
        .result;
    for site in &result.sites {
        let levels: Vec<f64> = site
            .measurements
            .iter()
            .map(|m| m.hs_word.level as f64)
            .collect();
        let summary = summarize(&levels).unwrap();
        assert!(summary.min >= site.worst_level() as f64 - 1e-9);
        assert!((summary.mean - site.mean_level()).abs() < 1e-9);
    }
}
