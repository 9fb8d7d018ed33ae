//! Community defense against fast worms (paper §6): regenerate the
//! epidemic figures, cross-check the analytic model against Monte-Carlo
//! outbreaks on the discrete-tick community engine, and plug in the
//! *measured* antibody-generation latency to compute the end-to-end
//! response time γ.
//!
//! ```sh
//! cargo run --release --example community_defense
//! ```

use sweeper_repro::apps::squid;
use sweeper_repro::epidemic::community::{self, CommunityParams};
use sweeper_repro::epidemic::{figure6, figure7, figure8, solve, Parallelism, Scenario};
use sweeper_repro::sweeper::{Config, RequestOutcome, Sweeper};

fn main() {
    // --- The analytic figures. -----------------------------------------
    println!("{}", figure6().render());
    println!("{}", figure7().render());
    println!("{}", figure8().render());

    // --- Monte-Carlo cross-check (scaled-down population). -------------
    println!("Monte-Carlo cross-check (N = 10 000, 20 outbreaks each):");
    println!(
        "{:>10} {:>8} {:>12} {:>12}",
        "alpha", "gamma", "ODE", "Monte-Carlo"
    );
    for (alpha, gamma) in [(0.002, 5.0), (0.002, 20.0), (0.01, 10.0)] {
        let s = Scenario {
            beta: 0.1,
            n: 10_000.0,
            alpha,
            rho: 1.0,
            gamma,
            i0: 1.0,
        };
        let ode = solve(&s).infection_ratio;
        // One-second ticks, as `figure6_community` uses for Slammer.
        let mc = (7..27)
            .map(|seed| {
                let p = CommunityParams::from_scenario(&s, 1.0, seed, Parallelism::Fixed(1));
                community::run(&p).infection_ratio
            })
            .sum::<f64>()
            / 20.0;
        println!("{alpha:>10} {gamma:>7}s {ode:>12.4} {mc:>12.4}");
    }

    // --- Measured γ (paper §6.3). ---------------------------------------
    // γ1 = time from detection to a distributable VSEF + exploit input,
    // measured on a real attack against the protected Squid analogue;
    // γ2 = 3 s, Vigilante's reported initial alert dissemination time.
    let app = squid::app().expect("app");
    let mut s = Sweeper::protect(&app, Config::producer(99)).expect("protect");
    s.offer_request(squid::benign_request("warm", "up"));
    let RequestOutcome::Attack(report) = s.offer_request(squid::exploit_crash(&app).input) else {
        panic!("attack not detected")
    };
    let analysis = report.analysis.expect("analysis");
    let gamma1 = analysis.timings.initial_ms / 1e3;
    let gamma = gamma1 + 3.0;
    println!("\nMeasured gamma1 (detect -> VSEF + input): {gamma1:.3} s");
    println!("End-to-end gamma (with 3 s dissemination): {gamma:.2} s\n");
    for beta in [1000.0, 4000.0] {
        let out = solve(&Scenario::hitlist(beta, 0.0001, gamma));
        println!(
            "hit-list beta = {beta:>6}, alpha = 0.0001: infection ratio {:.4}",
            out.infection_ratio
        );
    }
    println!("\nThe paper's conclusion reproduces: with proactive protection and a");
    println!("~5 s response, even thousand-fold-faster-than-Slammer worms are contained.");
}
