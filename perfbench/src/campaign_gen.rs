//! The `campaign` workload's input: a campaign document generated from
//! the benchmark seed.
//!
//! The document is built here, not read from the repository's
//! `scenarios/` fixtures, so editing a fixture cannot change the
//! workload. Its shape follows the paper's measurement campaigns run at
//! enterprise scale: procedurally generated office floors plus the
//! paper's own floor, several seeds each, short measurement windows, and
//! one scenario under a scripted fault track whose assertions gate the
//! run. Every scenario carries its own workload and experiment list (the
//! campaign sets no overrides), because the disturbance track needs a
//! longer window than the probing scenarios.

/// Runs per generated campaign: scenarios × seeds.
pub const SCENARIOS: usize = 4;
/// Seeds each scenario runs under.
pub const SEEDS: usize = 8;

/// SplitMix64 step: the benchmark's own deterministic stream, separate
/// from the program's RNGs so program changes cannot move the inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform integer in `lo..=hi`.
fn pick(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix(state) % (hi - lo + 1)
}

/// Uniform value in `[lo, hi)` rounded to 0.1, so the document prints
/// short, exact decimals.
fn pick_tenths(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let u = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
    ((lo + u * (hi - lo)) * 10.0).round() / 10.0
}

fn workload(name: &str, start_hour: u64, duration_s: u64, max_pairs: u64) -> String {
    format!(
        r#"{{"name": "{name}", "start_hour": {start_hour}, "duration_s": {duration_s}, "sample_ms": 500, "max_pairs": {max_pairs}}}"#
    )
}

/// The campaign document for `seed`: same seed, same bytes.
pub fn campaign_json(seed: u64) -> String {
    let mut st = seed ^ 0x00e1_ec7f_0000_0000;
    let seeds: Vec<String> = (0..SEEDS)
        .map(|_| (splitmix(&mut st) % 1_000_000).to_string())
        .collect();

    let office = format!(
        r#"{{
      "name": "gen-office",
      "seed": {seed_a},
      "grid": {{"generator": {{
        "floors": 1, "boards_per_floor": {boards}, "offices_per_board": {offices},
        "stations_per_board": {stations}, "corridor_spacing_m": {corridor},
        "drop_length_m": {{"uniform_m": [{drop_lo}, {drop_hi}]}},
        "desk_length_m": {{"uniform_m": [2.0, {desk_hi}]}},
        "appliance_mix": {{"charger": {chargers}, "laser-printer": 1.0, "space-heater": 1.0, "it-equipment": 1.0}}
      }}}},
      "workload": {wl},
      "probing": "paper-adaptive",
      "experiments": ["fig03", "probing"]
    }}"#,
        seed_a = splitmix(&mut st) % 1_000_000,
        boards = 2,
        offices = 6,
        stations = 4,
        corridor = pick_tenths(&mut st, 3.0, 5.0),
        drop_lo = pick_tenths(&mut st, 2.0, 4.0),
        drop_hi = pick_tenths(&mut st, 6.0, 10.0),
        desk_hi = pick_tenths(&mut st, 4.0, 7.0),
        chargers = pick(&mut st, 1, 4),
        wl = workload("office", 10, 5, 6),
    );
    let tower = format!(
        r#"{{
      "name": "gen-tower",
      "seed": {seed_b},
      "grid": {{"generator": {{
        "floors": 2, "boards_per_floor": 1, "offices_per_board": {offices},
        "stations_per_board": {stations}, "inter_board_cable_m": {riser},
        "drop_length_m": {{"uniform_m": [{drop_lo}, {drop_hi}]}}
      }}}},
      "workload": {wl},
      "probing": {{"fixed_s": {fixed}}},
      "experiments": ["fig07", "probing"]
    }}"#,
        seed_b = splitmix(&mut st) % 1_000_000,
        offices = 5,
        stations = 4,
        riser = pick_tenths(&mut st, 120.0, 240.0),
        drop_lo = pick_tenths(&mut st, 3.0, 5.0),
        drop_hi = pick_tenths(&mut st, 7.0, 11.0),
        fixed = pick(&mut st, 2, 10),
        wl = workload("tower", 10, 5, 6),
    );
    let paper = format!(
        r#"{{
      "name": "imc-floor",
      "grid": {{"builtin": "builtin://imc2015-floor"}},
      "workload": {wl},
      "probing": "paper-adaptive",
      "experiments": ["fig03", "fig07", "probing"]
    }}"#,
        wl = workload("paper", 11, 4, 4),
    );
    let disturbed = format!(
        r#"{{
      "name": "disturbed-floor",
      "grid": {{"builtin": "builtin://imc2015-floor"}},
      "workload": {wl},
      "experiments": ["disturbance"],
      "disturbances": [
        {{"name": "surge", "at_s": {surge_at}, "duration_s": 4.0, "ramp_s": 1.0,
          "kind": {{"appliance-surge": {{"board": 0, "noise_db": {surge_db}}}}}}},
        {{"name": "trip", "at_s": {trip_at}, "duration_s": 5.0,
          "kind": {{"breaker-trip": {{"board": 0}}}}}},
        {{"name": "dropout", "at_s": {drop_at}, "duration_s": 2.0, "kind": "probe-dropout"}}
      ],
      "couplings": [
        {{"source": "trip", "after_ms": {jam_after}, "duration_s": 2.0,
          "effect": {{"wifi-jam": {{"penalty_db": {jam_db}}}}}}}
      ],
      "assertions": [
        {{"hybrid-at-least-best-medium": {{"within_s": 2.0}}}},
        {{"estimate-within": {{"tolerance_frac": 0.10, "settle_s": 2.0}}}},
        {{"recovery-within": {{"within_s": 2.0, "frac": 0.8}}}},
        {{"counter-at-least": {{"counter": "faults.edges", "min": 2}}}}
      ]
    }}"#,
        wl = workload("disturbed", 10, 30, 4),
        surge_at = pick(&mut st, 4, 6),
        surge_db = pick(&mut st, 10, 16),
        trip_at = pick(&mut st, 13, 15),
        drop_at = pick(&mut st, 22, 24),
        jam_after = pick(&mut st, 1, 4) * 100,
        jam_db = pick(&mut st, 15, 20),
    );
    format!(
        r#"{{
  "name": "bench-{seed}",
  "scenarios": [{office}, {tower}, {paper}, {disturbed}],
  "seeds": [{seeds}]
}}"#,
        seeds = seeds.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_document_other_seed_other_document() {
        assert_eq!(campaign_json(2015), campaign_json(2015));
        assert_ne!(campaign_json(2015), campaign_json(2016));
    }
}
