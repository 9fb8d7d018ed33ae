//! The svm-tier isolation leg: each Table 1 guest's benign request
//! stream replayed on a bare `svm::Machine` at the three execution
//! tiers (interpreter, decode cache, decode cache + superblocks). No
//! Sweeper hook is attached, so the superblock tier can engage, which it
//! never does inside the fleet (the VSEF instrumenter is always
//! attached there).

use std::collections::BTreeMap;
use std::time::Instant;

use apps::workload::{Target, Workload};
use apps::App;
use svm::loader::Layout;
use svm::{Machine, NopHook, Status};

use crate::trace::boot_app;
use crate::workload::{fnv_fold, FNV_OFFSET};

const GUESTS: [(&str, Target); 4] = [
    ("httpd1", Target::Apache1),
    ("httpd2", Target::Apache2),
    ("cvs", Target::Cvs),
    ("squid", Target::Squid),
];

const TIERS: [&str; 3] = ["interp", "icache", "default"];

/// Cycle budget for one replay; a guest that needs more has hung.
const BUDGET_CYCLES: u64 = 1 << 40;

struct Replay {
    insns: u64,
    outputs: u64,
    wall_s: f64,
}

fn replay(app: &App, inputs: &[Vec<u8>], tier: &str) -> Result<Replay, String> {
    let m = app.boot_at(Layout::nominal()).map_err(|e| e.to_string())?;
    let mut m: Machine = match tier {
        "interp" => m.with_decode_cache(false),
        "icache" => m.with_decode_cache(true).with_superblocks(false),
        _ => m,
    };
    for input in inputs {
        m.net.push_connection(input.clone());
    }
    let start = Instant::now();
    let status = m.run(&mut NopHook, BUDGET_CYCLES);
    let wall_s = start.elapsed().as_secs_f64();
    if !matches!(status, Status::Blocked(_)) {
        return Err(format!("{} {tier}: ended {status:?}, not idle", app.name));
    }
    let mut outputs = FNV_OFFSET;
    for c in m.net.conns() {
        outputs = fnv_fold(outputs, c.output.len() as u64);
        for chunk in c.output.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            outputs = fnv_fold(outputs, u64::from_le_bytes(word));
        }
    }
    Ok(Replay {
        insns: m.insns_retired,
        outputs,
        wall_s,
    })
}

/// Replay the first `requests` workload requests of every guest at all
/// three tiers. Returns `svm.tier.<guest>.<tier>.minsns_per_s` and the
/// failed checks: every tier must retire the same instructions and
/// produce the same connection outputs.
pub fn leg(requests: usize, seed: u64) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut rates = BTreeMap::new();
    let mut failures = Vec::new();
    for (guest, target) in GUESTS {
        let app = match boot_app(target) {
            Ok(a) => a,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let inputs = Workload::new(target, seed).batch(requests);
        let mut first: Option<(u64, u64)> = None;
        for tier in TIERS {
            match replay(&app, &inputs, tier) {
                Ok(r) => {
                    rates.insert(
                        format!("svm.tier.{guest}.{tier}.minsns_per_s"),
                        r.insns as f64 / r.wall_s / 1e6,
                    );
                    let seen = (r.insns, r.outputs);
                    match first {
                        None => first = Some(seen),
                        Some(f) if f != seen => failures.push(format!(
                            "{guest}: tier {tier} retired {} insns / outputs {:#x}, \
                             interpreter {} / {:#x}",
                            seen.0, seen.1, f.0, f.1
                        )),
                        Some(_) => {}
                    }
                }
                Err(e) => failures.push(e),
            }
        }
    }
    (rates, failures)
}
