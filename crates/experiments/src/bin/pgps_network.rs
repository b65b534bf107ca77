//! **A7 — packetized GPS network**: the paper's results are stated for
//! fluid GPS and "can be easily extended to PGPS". This experiment
//! packetizes the Table-1 sources (one packet per busy slot), runs the
//! Figure-2 network at packet granularity under WFQ at every node, and
//! compares the empirical end-to-end packet-delay CCDF against the
//! Theorem-15 fluid bound shifted by the PGPS packetization allowance
//! (`Σ_m L_max/r^m = 2·L_max` here — one maximum packet per hop).

use gps_analysis::RppsNetworkBounds;
use gps_experiments::csv::CsvWriter;
use gps_experiments::paper::{characterize, figure2_network, table1_sources, ParamSet};
use gps_experiments::{finish_obs, init_obs, measure_slots_or};
use gps_obs::monitor::{env_tolerance, verdict};
use gps_obs::RunManifest;
use gps_sim::packet_network::run_packet_network;
use gps_sim::Packet;
use gps_sources::SlotSource;
use gps_stats::rng::SeedSequence;
use gps_stats::EmpiricalCcdf;

fn main() {
    let quiet = std::env::args().any(|a| a == "--quiet");
    let obs = init_obs("pgps_network", quiet);
    let set = ParamSet::Set1;
    let sessions = characterize(set).to_vec();
    let topo = figure2_network(set);
    let bounds = RppsNetworkBounds::new(&topo, sessions).expect("stable");

    // Packetize: each busy slot of each source emits one packet of that
    // slot's fluid volume, arriving at the slot start.
    let seeds = SeedSequence::new(0x9395);
    let slots = measure_slots_or(200_000);
    let mut sources = table1_sources();
    let mut rngs: Vec<_> = (0..4).map(|i| seeds.rng("src", i as u64)).collect();
    for (s, rng) in sources.iter_mut().zip(&mut rngs) {
        s.reset(rng);
    }
    let mut packets = Vec::new();
    let mut l_max = 0.0_f64;
    for t in 0..slots {
        for i in 0..4 {
            let a = sources[i].next_slot(&mut rngs[i]);
            if a > 0.0 {
                l_max = l_max.max(a);
                packets.push(Packet {
                    session: i,
                    size: a,
                    arrival: t as f64,
                });
            }
        }
    }
    gps_obs::info(
        "pgps_network",
        "simulate",
        &[("packets", packets.len().into()), ("slots", slots.into())],
    );
    let journeys = run_packet_network(&topo, &packets).expect("feed-forward tree");

    let mut csv = CsvWriter::create(
        "pgps_network",
        &["session", "d", "empirical", "fluid_bound_shifted"],
    )
    .expect("csv");

    let hops = 2.0;
    for i in 0..4 {
        let mut ccdf = EmpiricalCcdf::new();
        for (p, j) in packets.iter().zip(&journeys) {
            if p.session == i {
                ccdf.push(j.network_departure() - p.arrival);
            }
        }
        let (_, d_bound) = bounds.paper_fig3_bounds(i);
        let allowance = hops * l_max; // one max packet of slack per hop
        let n = ccdf.len() as u64;
        println!("\nsession {} ({} packets):", i + 1, n);
        println!("{:>6} {:>14} {:>14}", "d", "empirical", "bound(d-slack)");
        let series: Vec<(f64, f64)> = (0..=60)
            .step_by(6)
            .map(|d| (d as f64, ccdf.tail(d as f64)))
            .collect();
        for &(d, emp) in &series {
            let b = d_bound.tail((d - allowance).max(0.0));
            println!("{d:>6.0} {emp:>14.6e} {b:>14.6e}");
            csv.row(&[(i + 1) as f64, d, emp, b]).expect("row");
        }
        let v = verdict(d_bound.into(), &series, n, allowance, env_tolerance());
        println!("violations: {} (expect 0)", v.violations);
    }
    let rows = csv.rows();
    let path = csv.finish().expect("finish");
    println!("\nwritten: {}", path.display());

    let mut manifest = RunManifest::new("pgps_network")
        .seed(0x9395)
        .param("set", "Set1")
        .param("slots", slots)
        .param("packets", packets.len() as u64);
    manifest.output("pgps_network.csv", rows);
    finish_obs(obs, manifest).expect("obs teardown");
}
