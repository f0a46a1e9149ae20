//! Lane-bank scaling gate over `BENCH_dsp_lanes.json`: fails when packing
//! detection hypotheses into the lane bank stops paying for itself.
//!
//! The whole point of `DspLaneBank` is that lanes sharing one template also
//! share one metric evaluation, so a 16-lane threshold sweep should
//! cost far less than 16 separate correlator runs. The bench reports
//! *aggregate* throughput (elements = samples x lanes), which makes the
//! contract easy to state: the `lane_bank` sweep's `lanes_16` aggregate
//! throughput must be at least `RJAM_LANE_SCALING_MIN` (default 4.0) times
//! the `lanes_1` aggregate. A bank that degenerated to per-lane re-evaluation
//! would sit near 1x and fail loudly.
//!
//! Unlike the thread-scaling gate this needs no core-count escape hatch:
//! the speedup comes from instruction-level sharing on one core, so it must
//! hold on any machine.

use rjam_bench::harness::json::{parse, Value};
use std::process::ExitCode;

/// Aggregate throughput (elements/s) for one `bench`+`params` record.
fn throughput_for(records: &[Value], bench: &str, params: &str) -> Result<f64, String> {
    for rec in records {
        let Value::Object(map) = rec else { continue };
        if map.get("bench").and_then(Value::as_str) == Some(bench)
            && map.get("params").and_then(Value::as_str) == Some(params)
        {
            return map
                .get("throughput")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("record '{bench}/{params}' has no numeric throughput"));
        }
    }
    Err(format!(
        "no record with bench '{bench}' params '{params}' in report"
    ))
}

fn env_f64(name: &str, default: f64) -> Result<f64, String> {
    match std::env::var(name) {
        Err(_) => Ok(default),
        Ok(v) => v
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("{name} must be a number, got {v:?}")),
    }
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: read failed: {e}"))?;
    let root = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Value::Array(records) = root else {
        return Err(format!("{path}: top level is not an array"));
    };
    let t1 = throughput_for(&records, "lane_bank", "lanes_1")?;
    let t16 = throughput_for(&records, "lane_bank", "lanes_16")?;
    if t1 <= 0.0 {
        return Err(format!("lanes_1 throughput is not positive ({t1})"));
    }
    let ratio = t16 / t1;
    println!(
        "lane bank scaling: lanes_1 aggregate {:.1} Melem/s, lanes_16 aggregate {:.1} Melem/s \
         (ratio {ratio:.2}x)",
        t1 / 1e6,
        t16 / 1e6,
    );
    let bound = env_f64("RJAM_LANE_SCALING_MIN", 4.0)?;
    if ratio >= bound {
        println!("OK: lanes_16 delivers {ratio:.2}x the lanes_1 aggregate (bound {bound}x)");
        Ok(())
    } else {
        Err(format!(
            "LANE SCALING REGRESSION: lanes_16 aggregate throughput is only {ratio:.2}x \
             lanes_1 (bound {bound}x); the lane bank is no longer amortizing its metric evaluation"
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [p] => p.clone(),
        [] => "BENCH_dsp_lanes.json".to_string(),
        _ => {
            eprintln!("usage: check_lane_scaling [BENCH_dsp_lanes.json]");
            return ExitCode::from(2);
        }
    };
    match check(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("check_lane_scaling: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, params: &str, throughput: f64) -> Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("bench".to_string(), Value::String(bench.to_string()));
        m.insert("params".to_string(), Value::String(params.to_string()));
        m.insert("throughput".to_string(), Value::Number(throughput));
        Value::Object(m)
    }

    #[test]
    fn throughput_lookup_matches_bench_and_params() {
        let r = vec![
            rec("lane_bank", "lanes_1", 60e6),
            rec("lane_bank", "lanes_16", 500e6),
            rec("lane_bank_multi_template", "lanes_16", 90e6),
        ];
        assert_eq!(throughput_for(&r, "lane_bank", "lanes_1").unwrap(), 60e6);
        assert_eq!(throughput_for(&r, "lane_bank", "lanes_16").unwrap(), 500e6);
        // The multi-template record must not shadow the sweep record.
        assert!(throughput_for(&r, "lane_bank", "lanes_64").is_err());
    }

    #[test]
    fn missing_throughput_field_is_an_error() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("bench".to_string(), Value::String("lane_bank".to_string()));
        m.insert("params".to_string(), Value::String("lanes_1".to_string()));
        let r = vec![Value::Object(m)];
        assert!(throughput_for(&r, "lane_bank", "lanes_1")
            .unwrap_err()
            .contains("no numeric throughput"));
    }
}
