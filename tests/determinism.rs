//! Whole-stack determinism: the same seed must reproduce identical
//! datasets, crawls and rendered figures (DESIGN.md §6).

use periscope_repro::core::{experiments, Lab, LabConfig};

#[test]
fn session_dataset_is_bit_reproducible() {
    let run = |seed: u64| {
        let mut lab = Lab::new(LabConfig::small(seed));
        let dataset = lab.session_dataset();
        dataset
            .sessions
            .iter()
            .map(|s| {
                (
                    s.broadcast_id,
                    s.protocol,
                    s.meta.n_stalls,
                    s.traffic_bps.to_bits(),
                    s.join_time_s().map(|j| (j * 1e6) as u64),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12), "different seeds produce different worlds");
}

#[test]
fn deep_crawl_is_reproducible() {
    let crawl = |seed: u64| {
        let lab = Lab::new(LabConfig::small(seed));
        let c = lab.deep_crawl_at(14.0);
        (c.steps.len(), c.discovered.len(), c.rate_limited)
    };
    assert_eq!(crawl(3), crawl(3));
}

#[test]
fn rendered_figures_are_identical_across_runs() {
    let render = |id: &str| {
        let mut lab = Lab::new(LabConfig::small(77));
        let exp = experiments::by_id(id).expect("experiment exists");
        (exp.run)(&mut lab).render()
    };
    for id in ["fig3a", "fig7", "table-protocol"] {
        assert_eq!(render(id), render(id), "experiment {id}");
    }
}

/// Per-session fingerprint covering every scalar metric, the traffic rate
/// and the capture analysis done in the worker, so a single diverging draw
/// anywhere in a session shows up.
fn dataset_fingerprint(threads: usize, seed: u64) -> Vec<String> {
    let mut config = LabConfig::small(seed);
    config.threads = threads;
    let mut lab = Lab::new(config);
    let dataset = lab.session_dataset();
    dataset
        .sessions
        .iter()
        .map(|s| {
            format!(
                "{:?} {:?} {:?} {} {} {} {:?} {:?} {:?}",
                s.broadcast_id,
                s.protocol,
                s.device,
                s.viewers_at_join,
                s.meta.n_stalls,
                s.traffic_bps.to_bits(),
                s.join_time_s().map(|j| (j * 1e6) as u64),
                s.meta.playback_latency_s.map(|l| (l * 1e6) as u64),
                s.stream,
            )
        })
        .collect()
}

#[test]
fn parallel_dataset_matches_serial() {
    for seed in [11, 77] {
        let serial = dataset_fingerprint(1, seed);
        let parallel = dataset_fingerprint(8, seed);
        assert_eq!(serial, parallel, "seed {seed}: 8 threads diverged from serial");
    }
}

#[test]
fn figures_invariant_under_thread_count() {
    let render = |threads: usize, id: &str| {
        let mut config = LabConfig::small(99);
        config.threads = threads;
        let mut lab = Lab::new(config);
        let exp = experiments::by_id(id).expect("experiment exists");
        (exp.run)(&mut lab).render()
    };
    // threads=1 is the true serial path; comparing 2 and 8 against it (not
    // against each other) also validates the crawl fan-out behind fig1a and
    // the in-worker capture analysis behind fig5 against the serial
    // baseline.
    for id in ["fig1a", "fig3b", "fig5"] {
        let serial = render(1, id);
        for threads in [2, 8] {
            assert_eq!(
                serial,
                render(threads, id),
                "experiment {id}: {threads} threads diverged from serial"
            );
        }
    }
}
