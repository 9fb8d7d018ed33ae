//! The per-table/figure experiment harnesses (Tables 1-3, §5.3 numbers).

use apps::{all_apps, cvs, httpd1, httpd2, squid, App};
use sweeper::{Config, RequestOutcome, Sweeper};

/// Render Table 1 (the exploit inventory).
pub fn table1() -> String {
    let mut out = String::from(
        "Table 1: List of tested exploits\n\
         Name      Program (stands for)                  CVE             Bug Type              Threat\n",
    );
    for app in all_apps().expect("apps") {
        out.push_str(&format!(
            "{:<9} {:<37} {:<15} {:<21} {}\n",
            app.name,
            app.stands_for,
            app.cve,
            app.bug.to_string(),
            app.threat
        ));
    }
    out
}

/// Run one app's canonical crash exploit through a full Sweeper producer;
/// returns the protected instance and the attack report.
pub fn attack_run(app: &App, exploit: Vec<u8>, seed: u64) -> (Sweeper, sweeper::AttackReport) {
    let mut s = Sweeper::protect(app, Config::producer(seed)).expect("protect");
    // A little benign context before the attack, like the paper's setup.
    let benign: Vec<Vec<u8>> = match app.name {
        "Apache1" => (0..3)
            .map(|i| httpd1::benign_request(&format!("p{i}.html")))
            .collect(),
        "Apache2" => (0..3)
            .map(|i| httpd2::benign_request(&format!("q{i}"), None))
            .collect(),
        "CVS" => (0..2)
            .map(|i| cvs::benign_session(&[&format!("m{i}")]))
            .collect(),
        _ => (0..3)
            .map(|i| squid::benign_request(&format!("u{i}"), "host"))
            .collect(),
    };
    for b in benign {
        s.offer_request(b);
    }
    let out = s.offer_request(exploit);
    let RequestOutcome::Attack(report) = out else {
        panic!("{}: exploit did not register as attack: {out:?}", app.name)
    };
    (s, *report)
}

/// Render Table 2 (per-exploit functionality results).
pub fn table2() -> String {
    let mut out = String::from("Table 2: Overall Sweeper results\n\n");
    for (app, exploit) in apps::all_crash_exploits().expect("exploits") {
        let (_, report) = attack_run(&app, exploit.input, 0x7ab1e2);
        out.push_str(&sweeper::report::table2_block(app.name, &report));
        out.push('\n');
    }
    out
}

/// Render Table 3 (analysis times) for all four exploits.
pub fn table3() -> String {
    let mut out = String::from(
        "Table 3: Sweeper failure analysis time (virtual time; see EXPERIMENTS.md for the\n\
         scale argument — guest servers are ~1000x smaller than the paper's binaries)\n\n",
    );
    for (app, exploit) in apps::all_crash_exploits().expect("exploits") {
        let (_s, report) = attack_run(&app, exploit.input, 0x7ab1e3);
        if let Some(a) = &report.analysis {
            out.push_str(&sweeper::report::table3_row(app.name, a));
            out.push('\n');
        }
    }
    out
}

/// §5.3 "Vulnerability Monitoring": throughput with a deployed VSEF
/// versus without, on benign Squid traffic. Returns `(base_mbps,
/// vsef_mbps, overhead_fraction, vsef_sites)`.
pub fn vsef_overhead(n: usize) -> (f64, f64, f64, usize) {
    use apps::workload::Target;
    let app = squid::app().expect("app");
    let base = crate::driver::run_protected(&app, vsef_config(), Target::Squid, 7, n);
    let antibody = squid_antibody(&app);
    let sites: usize = antibody.vsefs().iter().map(|v| v.site_count()).sum();
    let mut protected = Sweeper::protect(&app, vsef_config()).expect("protect");
    protected.deploy_antibody(&antibody);
    let start = protected.timeline.now();
    let bytes = serve_benign_squid(&mut protected, n);
    let secs = svm::clock::cycles_to_secs(protected.timeline.now() - start);
    let vsef_mbps = bytes as f64 * 8.0 / 1e6 / secs;
    let overhead = (secs - base.secs) / base.secs;
    (base.mbps(), vsef_mbps, overhead, sites)
}

/// §5.3 in host wall time: serving `n` benign Squid requests with the
/// Squid antibody deployed versus with none, over `pairs` in-process
/// pairs (none first in the first pair, then alternating). Each side
/// boots a fresh host outside the timed region. Returns the median wall
/// milliseconds `(none_ms, deployed_ms)`.
pub fn vsef_wall_ms(n: usize, pairs: usize) -> (f64, f64) {
    let app = squid::app().expect("app");
    let antibody = squid_antibody(&app);
    let time = |deploy: bool| {
        let mut s = Sweeper::protect(&app, vsef_config()).expect("protect");
        if deploy {
            s.deploy_antibody(&antibody);
        }
        let start = std::time::Instant::now();
        serve_benign_squid(&mut s, n);
        start.elapsed().as_secs_f64() * 1e3
    };
    let (mut none, mut deployed) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        if i.is_multiple_of(2) {
            none.push(time(false));
            deployed.push(time(true));
        } else {
            deployed.push(time(true));
            none.push(time(false));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(none), median(deployed))
}

/// The §5.3 host configuration: no checkpoints, so serving is VM work
/// plus whatever the VSEF runtime costs.
fn vsef_config() -> Config {
    Config {
        checkpoint_interval: u64::MAX,
        ..Config::producer(21)
    }
}

/// The antibody a producer derives from the canonical Squid exploit.
fn squid_antibody(app: &App) -> antibody::Antibody {
    let (_s, report) = attack_run(app, squid::exploit_crash(app).input, 0x5ca1e);
    report.analysis.expect("analysis").antibody
}

/// Offer `n` benign Squid requests (workload seed 7); every one must be
/// served. Returns the payload bytes moved (requests + responses).
fn serve_benign_squid(s: &mut Sweeper, n: usize) -> usize {
    let mut w = apps::workload::Workload::new(apps::workload::Target::Squid, 7);
    let mut bytes = 0usize;
    for _ in 0..n {
        let req = w.next_request();
        let l = req.len();
        match s.offer_request(req) {
            RequestOutcome::Served { bytes: b, .. } => bytes += b + l,
            other => panic!("VSEF must not false-positive on benign traffic: {other:?}"),
        }
    }
    bytes
}

/// One layer of the `tables servicepath` probe: host wall time per
/// served Squid request, over the probe's rounds.
#[derive(Debug, Clone, Copy)]
pub struct ServicePathRow {
    /// What runs per request (each row adds to the one above it).
    pub layer: &'static str,
    /// Median microseconds per request.
    pub median_us: f64,
    /// Lowest and highest round, microseconds per request.
    pub min_us: f64,
    /// See `min_us`.
    pub max_us: f64,
    /// Checkpoints taken per round after the base snapshot (0 outside
    /// the last row).
    pub takes: u64,
}

/// The layers of the service path, innermost first.
pub const SERVICE_LAYERS: [&str; 5] = [
    "bare Machine::run, NopHook",
    "+ Proxy::offer, release_outputs",
    "+ CheckpointManager::note_service",
    "Sweeper::offer_request, checkpoints off",
    "Sweeper::offer_request, 200 ms",
];

/// The service path of a protected Squid request, layer by layer, in
/// host wall time: `n` benign requests (workload seed 7) on a fresh host
/// per layer and round, the host booted to its accept loop outside the
/// timed region. The layers alternate: round `r` starts at layer
/// `r % 5`. Every request must be served.
pub fn service_path_us(n: usize, rounds: usize) -> Vec<ServicePathRow> {
    let app = squid::app().expect("app");
    let mut times = vec![Vec::with_capacity(rounds); SERVICE_LAYERS.len()];
    let mut takes = [0u64; SERVICE_LAYERS.len()];
    for r in 0..rounds {
        for k in 0..SERVICE_LAYERS.len() {
            let layer = (r + k) % SERVICE_LAYERS.len();
            let (secs, t) = serve_layer(&app, layer, n);
            times[layer].push(secs * 1e6 / n as f64);
            takes[layer] = t;
        }
    }
    times
        .into_iter()
        .zip(SERVICE_LAYERS)
        .zip(takes)
        .map(|((mut us, layer), takes)| {
            us.sort_by(f64::total_cmp);
            ServicePathRow {
                layer,
                median_us: us[us.len() / 2],
                min_us: us[0],
                max_us: us[us.len() - 1],
                takes,
            }
        })
        .collect()
}

/// Serve `n` benign Squid requests through the first `layer + 1` layers
/// of [`SERVICE_LAYERS`]. Returns the timed seconds and the checkpoints
/// taken after the base snapshot.
fn serve_layer(app: &App, layer: usize, n: usize) -> (f64, u64) {
    use checkpoint::{CheckpointManager, Proxy};
    use svm::{NopHook, Status};
    let mut w = apps::workload::Workload::new(apps::workload::Target::Squid, 7);
    let reqs: Vec<Vec<u8>> = (0..n).map(|_| w.next_request()).collect();
    let cfg = Config::producer(7);
    if layer >= 3 {
        let cfg = if layer == 3 {
            Config {
                checkpoint_interval: u64::MAX,
                ..cfg
            }
        } else {
            cfg
        };
        let mut s = Sweeper::protect(app, cfg).expect("protect");
        let start = std::time::Instant::now();
        for req in reqs {
            let out = s.offer_request(req);
            assert!(matches!(out, RequestOutcome::Served { .. }), "{out:?}");
        }
        return (start.elapsed().as_secs_f64(), s.mgr.taken_total - 1);
    }
    let mut m = app.boot(cfg.aslr).expect("boot");
    m.run(&mut NopHook, u64::MAX);
    let mut proxy = Proxy::new();
    let mut mgr = CheckpointManager::new(u64::MAX, cfg.retained_checkpoints);
    mgr.take(&mut m);
    let start = std::time::Instant::now();
    for req in reqs {
        let log_id = if layer == 0 {
            m.net.push_connection(req);
            m.unblock();
            0
        } else {
            proxy.offer(&mut m, req, &[]).0
        };
        let status = m.run(&mut NopHook, u64::MAX);
        assert!(matches!(status, Status::Blocked(_)), "{status:?}");
        if layer >= 1 {
            proxy.release_outputs(&m);
        }
        if layer == 2 {
            mgr.note_service(&mut m, log_id as u32);
        }
    }
    (start.elapsed().as_secs_f64(), 0)
}

/// One end-to-end observability snapshot, for `tables obs[json]`: run
/// the canonical Squid exploit through a full producer and export the
/// merged metrics (VM, checkpoint ring, proxy, VSEF instrumentation,
/// pipeline phase spans, recovery counters).
pub fn obs_snapshot() -> obs::MetricsRegistry {
    let app = squid::app().expect("app");
    let (s, _report) = attack_run(&app, squid::exploit_crash(&app).input, 0x0b5);
    s.export_metrics()
}

/// §6.3 end-to-end γ: measured first-VSEF time (γ₁) plus the paper's
/// Vigilante-based dissemination estimate (γ₂ = 3 s), and the resulting
/// hit-list infection ratios.
pub fn end_to_end_gamma() -> String {
    let app = squid::app().expect("app");
    let (_s, report) = attack_run(&app, squid::exploit_crash(&app).input, 0xe2e);
    let a = report.analysis.expect("analysis");
    let gamma1 = a.timings.initial_ms / 1e3;
    let gamma2 = 3.0; // Vigilante's measured initial dissemination time.
    let gamma = gamma1 + gamma2;
    let mut out = format!(
        "End-to-end response time (paper §6.3):\n  gamma1 (detect+analyze+VSEF+input) = {gamma1:.3} s (measured)\n  gamma2 (dissemination, Vigilante)   = {gamma2:.1} s (literature)\n  gamma = {gamma:.2} s\n\nResulting hit-list infection ratios (alpha = 0.0001, rho = 2^-12):\n",
    );
    for beta in [1000.0, 4000.0] {
        let r = epidemic::solve(&epidemic::Scenario::hitlist(beta, 0.0001, gamma));
        out.push_str(&format!("  beta = {beta:>6}: {:.4}\n", r.infection_ratio));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_four() {
        let t = table1();
        for name in ["Apache1", "Apache2", "CVS", "Squid"] {
            assert!(t.contains(name), "{name} missing");
        }
        for cve in [
            "CVE-2003-0542",
            "CVE-2003-1054",
            "CVE-2003-0015",
            "CVE-2002-0068",
        ] {
            assert!(t.contains(cve));
        }
    }

    #[test]
    fn table2_reproduces_key_rows() {
        let t = table2();
        // Apache1: stack smash found by membug, input found.
        assert!(t.contains("Apache1"), "{t}");
        assert!(t.contains("StackSmash"), "{t}");
        // Apache2: NULL pointer, no memory bug.
        assert!(t.contains("no memory bug detected"), "{t}");
        // CVS: double free attributed to dirswitch's free.
        assert!(t.contains("DoubleFree"), "{t}");
        assert!(t.contains("dirswitch") || t.contains("free"), "{t}");
        // Squid: heap overflow in strcat called by ftp_build_title_url.
        assert!(t.contains("HeapOverflow"), "{t}");
        assert!(t.contains("strcat"), "{t}");
        assert!(t.contains("ftp_build_title_url"), "{t}");
        // Every exploit recovered by rollback-replay or restart.
        assert_eq!(t.matches("recovery").count(), 4, "{t}");
    }

    #[test]
    fn table3_orders_step_costs_like_the_paper() {
        for (app, exploit) in apps::all_crash_exploits().expect("exploits") {
            let (_s, report) = attack_run(&app, exploit.input, 0x123);
            let a = report.analysis.expect("analysis");
            let t = &a.timings;
            // First VSEF is available within tens of ms.
            assert!(
                t.first_vsef_ms > 0.0 && t.first_vsef_ms < 100.0,
                "{}: first VSEF at {:.1} ms",
                app.name,
                t.first_vsef_ms
            );
            // Slicing is the most expensive dynamic step.
            assert!(
                t.slicing_ms >= t.memory_bug_ms,
                "{}: slicing {:.2} ms < membug {:.2} ms",
                app.name,
                t.slicing_ms,
                t.memory_bug_ms
            );
            // Cumulative ordering.
            assert!(t.first_vsef_ms <= t.best_vsef_ms + 1e-9);
            assert!(t.best_vsef_ms <= t.initial_ms + 1e-9);
            assert!(t.initial_ms <= t.total_ms + 1e-9);
        }
    }

    #[test]
    fn vsef_wall_time_is_measured_on_both_sides() {
        let (none_ms, deployed_ms) = vsef_wall_ms(5, 2);
        assert!(none_ms > 0.0 && none_ms.is_finite(), "{none_ms}");
        assert!(
            deployed_ms > 0.0 && deployed_ms.is_finite(),
            "{deployed_ms}"
        );
    }

    #[test]
    fn vsef_overhead_is_under_a_few_percent() {
        let (base, vsef, overhead, sites) = vsef_overhead(150);
        assert!(base > 0.0 && vsef > 0.0);
        assert!(sites >= 1);
        // Paper: 0.93% throughput drop. Shape: small, single-digit %.
        assert!(overhead < 0.05, "VSEF overhead too high: {overhead:.4}");
        assert!(
            overhead > -0.01,
            "negative overhead is nonsense: {overhead:.4}"
        );
    }
}
