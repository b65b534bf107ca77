//! Admission-control service properties: monotonicity of the admissible
//! region (in session counts, server rate, and QoS looseness) and the
//! engine's bit-identity contract — cached, warm-started, and
//! from-scratch decision streams must agree byte-for-byte.

use gps_qos::prelude::*;
use gps_stats::rng::{RngCore, Xoshiro256pp};

fn classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec::new(
            "voice",
            EbbProcess::new(0.02, 1.0, 17.4),
            QosTarget::new(5.0, 1e-6),
        ),
        ClassSpec::new(
            "video",
            EbbProcess::new(0.08, 2.0, 6.0),
            QosTarget::new(10.0, 1e-4),
        ),
        ClassSpec::new(
            "data",
            EbbProcess::new(0.05, 4.0, 3.0),
            QosTarget::new(40.0, 1e-3),
        ),
    ]
}

fn engine(backend: CertBackend, rate: f64) -> AdmissionEngine {
    AdmissionEngine::new(classes(), rate, TimeModel::Discrete, backend).unwrap()
}

/// A deterministic admit/depart stream over `k` classes.
fn workload(n: usize, k: usize, seed: u64) -> Vec<Request> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| Request {
            class: (rng.next_u64() % k as u64) as usize,
            kind: if rng.next_u64() % 10 < 7 {
                RequestKind::Admit
            } else {
                RequestKind::Depart
            },
        })
        .collect()
}

/// Fills the engine with class-`j` sessions until the first rejection;
/// returns how many were admitted.
fn fill(e: &mut AdmissionEngine, j: usize) -> u64 {
    for admitted in 0..100_000 {
        if !e.admit(j).accepted {
            return admitted;
        }
    }
    panic!("admission never saturated");
}

#[test]
fn admission_is_monotone_in_session_counts() {
    // If a mix is admissible, every componentwise-smaller mix is too:
    // walk to the boundary, then re-check admits from decremented mixes.
    for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
        let mut e = engine(backend, 1.0);
        for req in workload(200, 3, 11) {
            e.decide(req);
        }
        let j = 0;
        fill(&mut e, j); // saturate class 0: one more class-0 admit is refused
        assert!(!e.admit(j).accepted);
        let full = e.counts().to_vec();
        for drop_class in 0..full.len() {
            if full[drop_class] == 0 {
                continue;
            }
            let mut fewer = full.clone();
            fewer[drop_class] -= 1;
            let mut smaller = engine(backend, 1.0);
            smaller.set_counts(&fewer);
            assert!(
                smaller.admit(drop_class).accepted,
                "{backend:?}: refilling the slot freed from class {drop_class} was refused"
            );
        }
    }
}

#[test]
fn admission_is_monotone_in_server_rate() {
    for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
        let mut last = 0;
        for rate in [0.5, 1.0, 2.0, 4.0] {
            let mut e = engine(backend, rate);
            let n = fill(&mut e, 1);
            assert!(
                n >= last,
                "{backend:?}: rate {rate} admits {n} < {last} at a lower rate"
            );
            last = n;
        }
        assert!(last > 0, "{backend:?}: largest rate admitted nothing");
    }
}

#[test]
fn admission_is_monotone_in_qos_looseness() {
    // Loosening one class's epsilon (or delay target) can only grow its
    // admissible count: the certificate constraint is one-sided.
    for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
        let mut last = 0;
        for (i, eps) in [1e-8, 1e-6, 1e-4, 1e-2].into_iter().enumerate() {
            let mut cls = classes();
            cls[0].target = QosTarget::new(5.0, eps);
            let mut e = AdmissionEngine::new(cls, 1.0, TimeModel::Discrete, backend).unwrap();
            let n = fill(&mut e, 0);
            assert!(
                n >= last,
                "{backend:?}: eps {eps} (step {i}) admits {n} < {last} at a tighter eps"
            );
            last = n;
        }
        let mut cls = classes();
        cls[0].target = QosTarget::new(50.0, 1e-6);
        let mut loose_delay = AdmissionEngine::new(
            cls,
            1.0,
            TimeModel::Discrete,
            CertBackend::EffectiveBandwidth,
        )
        .unwrap();
        let mut tight_delay = engine(CertBackend::EffectiveBandwidth, 1.0);
        assert!(fill(&mut loose_delay, 0) >= fill(&mut tight_delay, 0));
    }
}

#[test]
fn cached_and_uncached_admit_batch_are_byte_identical() {
    // The cache stores exact values of pure functions: decision bytes
    // must not depend on it.
    let stream = workload(600, 3, 23);
    for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
        let mut cached = engine(backend, 1.0);
        let mut uncached =
            AdmissionEngine::with_cache_cap(classes(), 1.0, TimeModel::Discrete, backend, 0)
                .unwrap();
        let with_cache: Vec<String> = stream.iter().map(|r| cached.decide(*r).line()).collect();
        let without: Vec<String> = stream.iter().map(|r| uncached.decide(*r).line()).collect();
        assert_eq!(with_cache, without, "{backend:?}: cached vs uncached");
        assert_eq!(uncached.cache_stats().hits, 0, "cap-0 cache must never hit");
        assert!(
            cached.cache_stats().hits > cached.cache_stats().misses,
            "{backend:?}: replayed stream should be hit-dominated"
        );
    }
}

#[test]
fn cached_warm_started_and_from_scratch_streams_are_bit_identical() {
    // The pinned three-way identity: (a) default engine, (b) warm-start
    // hints disabled, (c) cache disabled AND hints disabled — same
    // request stream, byte-identical decision lines (loads and
    // certificates compared as exact f64 bit patterns).
    let stream = workload(600, 3, 47);
    for backend in [CertBackend::Rpps, CertBackend::EffectiveBandwidth] {
        let mut cached = engine(backend, 1.0);
        let mut no_hints = engine(backend, 1.0);
        no_hints.set_warm_start(false);
        let mut scratch =
            AdmissionEngine::with_cache_cap(classes(), 1.0, TimeModel::Discrete, backend, 0)
                .unwrap();
        scratch.set_warm_start(false);
        for req in &stream {
            let a = cached.decide(*req).line();
            let b = no_hints.decide(*req).line();
            let c = scratch.decide(*req).line();
            assert_eq!(a, b, "{backend:?}: cached vs hint-free diverged");
            assert_eq!(b, c, "{backend:?}: hint-free vs from-scratch diverged");
        }
    }
}

#[test]
fn depart_then_readmit_restores_the_same_certificate() {
    // Departures reopen exactly the freed slot, and the re-admitted
    // session gets a bit-identical certificate (the region depends only
    // on the mix, not the path that reached it).
    let mut e = engine(CertBackend::EffectiveBandwidth, 1.0);
    fill(&mut e, 2);
    let before = e.counts().to_vec();
    assert!(e.depart(2).accepted);
    let d = e.admit(2);
    assert!(d.accepted);
    assert_eq!(e.counts(), &before[..]);
    let again = {
        assert!(e.depart(2).accepted);
        e.admit(2)
    };
    assert_eq!(
        d.certificate
            .map(|c| (c.prefactor.to_bits(), c.decay.to_bits())),
        again
            .certificate
            .map(|c| (c.prefactor.to_bits(), c.decay.to_bits())),
    );
}
