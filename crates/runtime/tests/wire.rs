//! Property tests of the wire protocol: round-trip fidelity over
//! random jobs, batch results and latency histograms (including `f64`
//! bit patterns the cross-host determinism argument depends on), the
//! histogram's merge laws and error bound, and typed rejection of
//! malformed bytes.

use std::time::Duration;

use eqasm_core::{
    Bundle, BundleOp, CmpFlag, Gpr, Instantiation, Instruction, OpTarget, Qubit, SReg, TReg,
    Topology,
};
use eqasm_microarch::{BackendSelect, MeasurementSource, SimConfig, TimingPolicy};
use eqasm_quantum::{NoiseModel, ReadoutModel};
use eqasm_runtime::wire::{
    self, decode_batch_out, decode_job, encode_batch_out, encode_job, WireError,
};
use eqasm_runtime::{
    BatchOut, BitString, Histogram, Job, JobResult, LatencyHistogram, PartialResult, Submission,
    TenantId, WorkloadKind, WorkloadSpec,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// An f64 from "interesting" bit patterns: ordinary values plus the
/// ones naive (value-based) encodings corrupt — NaN with payload,
/// signed zero, infinities, subnormals.
fn edge_f64(selector: u8, ordinary: f64) -> f64 {
    match selector % 8 {
        0 => f64::NAN,
        1 => f64::from_bits(0x7ff8_dead_beef_0001), // NaN with payload
        2 => -0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => ordinary,
    }
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    (0u8..21, any::<u32>(), any::<i32>(), any::<u16>()).prop_map(|(tag, a, b, c)| {
        let r = |v: u32| Gpr::new((v % 32) as u8);
        match tag {
            0 => Instruction::Nop,
            1 => Instruction::Stop,
            2 => Instruction::Cmp {
                rs: r(a),
                rt: r(a >> 8),
            },
            3 => Instruction::Br {
                flag: CmpFlag::ALL[(a % 12) as usize],
                offset: b,
            },
            4 => Instruction::Fbr {
                flag: CmpFlag::ALL[(a % 12) as usize],
                rd: r(a >> 8),
            },
            5 => Instruction::Ldi { rd: r(a), imm: b },
            6 => Instruction::Ldui {
                rd: r(a),
                imm: c,
                rs: r(a >> 8),
            },
            7 => Instruction::Ld {
                rd: r(a),
                rt: r(a >> 8),
                imm: b,
            },
            8 => Instruction::St {
                rs: r(a),
                rt: r(a >> 8),
                imm: b,
            },
            9 => Instruction::Fmr {
                rd: r(a),
                qubit: Qubit::new((a >> 8) as u8 % 7),
            },
            10 => Instruction::And {
                rd: r(a),
                rs: r(a >> 8),
                rt: r(a >> 16),
            },
            11 => Instruction::Or {
                rd: r(a),
                rs: r(a >> 8),
                rt: r(a >> 16),
            },
            12 => Instruction::Xor {
                rd: r(a),
                rs: r(a >> 8),
                rt: r(a >> 16),
            },
            13 => Instruction::Not {
                rd: r(a),
                rt: r(a >> 8),
            },
            14 => Instruction::Add {
                rd: r(a),
                rs: r(a >> 8),
                rt: r(a >> 16),
            },
            15 => Instruction::Sub {
                rd: r(a),
                rs: r(a >> 8),
                rt: r(a >> 16),
            },
            16 => Instruction::QWait { cycles: a },
            17 => Instruction::QWaitR { rs: r(a) },
            18 => Instruction::Smis {
                sd: SReg::new((a % 32) as u8),
                mask: b as u32,
            },
            19 => Instruction::Smit {
                td: TReg::new((a % 32) as u8),
                mask: b as u32,
            },
            _ => {
                // A bundle mixing a real op, a QNOP and explicit PI.
                let ops = vec![
                    BundleOp {
                        opcode: eqasm_core::QOpcode::new(c % 512),
                        target: match a % 3 {
                            0 => OpTarget::None,
                            1 => OpTarget::S(SReg::new((a >> 8) as u8 % 32)),
                            _ => OpTarget::T(TReg::new((a >> 8) as u8 % 32)),
                        },
                    },
                    BundleOp::QNOP,
                ];
                Instruction::Bundle(Bundle::with_pre_interval((a % 8) as u8, ops))
            }
        }
    })
}

fn arb_instantiation() -> impl Strategy<Value = Instantiation> {
    (0u8..4, 1usize..6).prop_map(|(kind, n)| match kind {
        0 => Instantiation::paper(),
        1 => Instantiation::paper_two_qubit(),
        2 => Instantiation::paper().with_topology(Topology::linear(n)),
        _ => Instantiation::paper().with_topology(Topology::fully_connected(n)),
    })
}

fn arb_sim_config() -> impl Strategy<Value = SimConfig> {
    (
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        (0.1f64..100.0, 0.0f64..1.0, 0.0f64..1.0),
        any::<u64>(),
        (0u8..3, any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((s1, s2, s3, s4), (cycle, p0, p1), seed, (src, b0, b1, b2))| SimConfig {
                cycle_time_ns: edge_f64(s1, cycle),
                noise: NoiseModel {
                    t1_ns: edge_f64(s2, cycle * 1000.0),
                    t2_ns: edge_f64(s3, cycle * 800.0),
                    depol_1q: p0,
                    depol_2q: p1,
                },
                readout: ReadoutModel {
                    p_read1_given0: edge_f64(s4, p0),
                    p_read0_given1: p1,
                },
                measurement_source: match src {
                    0 => MeasurementSource::Quantum,
                    1 => MeasurementSource::MockAlternating { start: b0 },
                    _ => MeasurementSource::MockFixed(vec![b0, b1, b2]),
                },
                timing_policy: if b1 {
                    TimingPolicy::Fault
                } else {
                    TimingPolicy::SlipAndCount
                },
                seed,
                max_classical_cycles: seed | 1,
                backend: match seed % 5 {
                    0 => BackendSelect::Auto,
                    1 => BackendSelect::Dense,
                    2 => BackendSelect::Stabilizer,
                    3 => BackendSelect::Density,
                    _ => BackendSelect::Pure,
                },
                record_trace: b0,
                ..SimConfig::default()
            },
        )
}

fn arb_job() -> impl Strategy<Value = Job> {
    (
        "[a-z][a-z0-9_-]{0,20}",
        arb_instantiation(),
        prop::collection::vec(arb_instruction(), 0..40),
        arb_sim_config(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(name, inst, program, config, shots, seed)| {
            Job::new(name, inst, program)
                .with_config(config)
                .with_shots(shots)
                .with_seed(seed)
        })
}

/// Durations from several regimes: the exact small-value buckets,
/// realistic shot times, long stalls and the full `u64` range.
fn arb_durations() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        (0u8..4, any::<u64>()).prop_map(|(regime, v)| match regime {
            0 => v % 64,
            1 => 1_000 + v % 100_000,
            2 => v % 10_000_000_000,
            _ => v,
        }),
        0..200,
    )
}

fn histogram_of(durations: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &d in durations {
        h.record(d);
    }
    h
}

fn arb_batch_out() -> impl Strategy<Value = BatchOut> {
    (
        prop::collection::vec((any::<u64>(), any::<u64>(), 1u64..1000), 0..12),
        prop::collection::vec((any::<u8>(), any::<u64>()), 0..8),
        arb_durations(),
        (any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(
            |(entries, prob1, durations, (non_halted, elapsed, failed))| {
                let mut histogram = Histogram::new();
                for (measured, bits, count) in entries {
                    histogram.add(
                        BitString {
                            measured,
                            bits: bits & measured,
                        },
                        count,
                    );
                }
                let mut stats = eqasm_microarch::RunStats::default();
                stats.classical_cycles = non_halted.wrapping_mul(3);
                stats.measurements = non_halted.rotate_left(7);
                BatchOut {
                    histogram,
                    stats,
                    prob1_sum: prob1
                        .into_iter()
                        .map(|(sel, bits)| edge_f64(sel, f64::from_bits(bits | 1).fract()))
                        .collect(),
                    latency: histogram_of(&durations),
                    non_halted,
                    first_failure: failed.then(|| (non_halted, "fault: test".to_owned())),
                    elapsed_ns: elapsed,
                }
            },
        )
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// decode(encode(job)) reproduces the job bit-exactly. Structural
    /// equality would miss NaN fields (NaN != NaN), so the property is
    /// canonical-bytes equality: re-encoding the decoded job yields
    /// the identical byte string, which covers every f64 bit pattern.
    #[test]
    fn job_roundtrip_canonical_bytes(job in arb_job()) {
        let bytes = encode_job(&job).expect("encodes");
        let decoded = decode_job(&bytes).expect("decodes");
        let re_encoded = encode_job(&decoded).expect("re-encodes");
        prop_assert_eq!(&bytes, &re_encoded, "wire bytes must be canonical");
        // Structural spot-checks on NaN-free fields.
        prop_assert_eq!(&job.name, &decoded.name);
        prop_assert_eq!(job.shape.program(), decoded.shape.program());
        prop_assert_eq!(job.shots, decoded.shots);
        prop_assert_eq!(job.base_seed, decoded.base_seed);
        prop_assert_eq!(job.shape.inst().topology(), decoded.shape.inst().topology());
        prop_assert_eq!(job.shape.inst().params(), decoded.shape.inst().params());
        prop_assert_eq!(job.shape.inst().ops(), decoded.shape.inst().ops());
        prop_assert_eq!(job.shape.config().seed, decoded.shape.config().seed);
        // f64 fields compare by bit pattern.
        prop_assert_eq!(
            job.shape.config().cycle_time_ns.to_bits(),
            decoded.shape.config().cycle_time_ns.to_bits()
        );
        prop_assert_eq!(
            job.shape.config().noise.t1_ns.to_bits(),
            decoded.shape.config().noise.t1_ns.to_bits()
        );
        prop_assert_eq!(
            job.shape.config().readout.p_read1_given0.to_bits(),
            decoded.shape.config().readout.p_read1_given0.to_bits()
        );
    }

    /// Same property for batch results, plus structural equality of
    /// the deterministic aggregate fields.
    #[test]
    fn batch_out_roundtrip(out in arb_batch_out()) {
        let bytes = encode_batch_out(&out);
        let decoded = decode_batch_out(&bytes).expect("decodes");
        prop_assert_eq!(&bytes, &encode_batch_out(&decoded));
        prop_assert_eq!(&out.histogram, &decoded.histogram);
        prop_assert_eq!(&out.stats, &decoded.stats);
        prop_assert_eq!(&out.latency, &decoded.latency);
        prop_assert_eq!(out.non_halted, decoded.non_halted);
        prop_assert_eq!(&out.first_failure, &decoded.first_failure);
        prop_assert_eq!(out.elapsed_ns, decoded.elapsed_ns);
        let ours: Vec<u64> = out.prob1_sum.iter().map(|p| p.to_bits()).collect();
        let theirs: Vec<u64> = decoded.prob1_sum.iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(ours, theirs, "P(1) sums must round-trip bit-exactly");
    }

    /// Every strict prefix of an encoded job fails with a typed error
    /// — never a panic, never a bogus success.
    #[test]
    fn truncation_always_rejected(job in arb_job(), cut_seed in any::<u64>()) {
        let bytes = encode_job(&job).expect("encodes");
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let err = decode_job(&bytes[..cut]).expect_err("prefix cannot decode");
        prop_assert!(
            matches!(
                err,
                WireError::Truncated { .. } | WireError::Invalid(_) | WireError::UnknownTag { .. }
            ),
            "unexpected error class: {}", err
        );
    }

    /// Flipping the instruction-count prefix region or appending bytes
    /// is always detected (the job codec consumes exactly its bytes).
    #[test]
    fn trailing_garbage_rejected(job in arb_job(), extra in 1usize..16) {
        let mut bytes = encode_job(&job).expect("encodes");
        bytes.extend(std::iter::repeat_n(0xabu8, extra));
        prop_assert!(decode_job(&bytes).is_err());
    }
}

// ---------------------------------------------------------------------
// The latency histogram
// ---------------------------------------------------------------------

/// The exact nearest-rank percentile of sorted values.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The decoders' contract on hostile bytes: a typed error or a value,
/// never a panic (the proptest runner reports a panic as a failure).
fn is_typed(err: &WireError) -> bool {
    matches!(
        err,
        WireError::Truncated { .. } | WireError::Invalid(_) | WireError::UnknownTag { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The histogram round-trips to an equal value and canonical bytes,
    /// on its own and inside a job result.
    #[test]
    fn latency_histogram_roundtrips(durations in arb_durations()) {
        let h = histogram_of(&durations);
        let bytes = wire::encode_latency_histogram(&h);
        let decoded = wire::decode_latency_histogram(&bytes).expect("decodes");
        prop_assert_eq!(&decoded, &h);
        prop_assert_eq!(wire::encode_latency_histogram(&decoded), bytes);

        let mut result = eqasm_runtime::ShotEngine::serial()
            .run_job(&Job::new("h", Instantiation::paper_two_qubit(), vec![Instruction::Stop]).with_shots(1))
            .expect("runs");
        result.latency = h.clone();
        let bytes = wire::encode_job_result(&result);
        let decoded = wire::decode_job_result(&bytes).expect("decodes");
        prop_assert_eq!(&decoded.latency, &h);
        prop_assert_eq!(wire::encode_job_result(&decoded), bytes);
    }

    /// Merging is commutative and associative, and equals recording
    /// every sample into one histogram.
    #[test]
    fn latency_merge_is_commutative_and_associative(
        a in arb_durations(),
        b in arb_durations(),
        c in arb_durations(),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&ab_c, &histogram_of(&all));
    }

    /// p50/p95/p99 stay within 1/64 of the exact sorted reference; the
    /// count, mean and max are exact.
    #[test]
    fn latency_percentiles_are_within_a_64th(durations in arb_durations()) {
        let h = histogram_of(&durations);
        let stats = h.stats();
        let mut sorted = durations.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            prop_assert_eq!(stats, eqasm_runtime::LatencyStats::default());
        } else {
            for (q, got) in [(0.50, stats.p50_ns), (0.95, stats.p95_ns), (0.99, stats.p99_ns)] {
                let exact = exact_quantile(&sorted, q);
                prop_assert!(
                    got.abs_diff(exact) as f64 <= exact as f64 / 64.0,
                    "q{}: {} vs exact {}", q, got, exact
                );
            }
            let sum: u128 = durations.iter().map(|&d| u128::from(d)).sum();
            prop_assert_eq!(h.count(), durations.len() as u64);
            prop_assert_eq!(h.sum(), sum);
            prop_assert_eq!(stats.mean_ns, (sum / durations.len() as u128) as u64);
            prop_assert_eq!(stats.max_ns, *sorted.last().unwrap());
        }
    }

    /// Arbitrary bytes into the histogram and batch decoders: a typed
    /// error or a value, never a panic.
    #[test]
    fn latency_decoders_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        if let Err(e) = wire::decode_latency_histogram(&bytes) {
            prop_assert!(is_typed(&e), "untyped: {}", e);
        }
        if let Err(e) = decode_batch_out(&bytes) {
            prop_assert!(is_typed(&e), "untyped: {}", e);
        }
    }

    /// Every strict prefix of an encoded histogram or batch is a typed
    /// error; a mutated byte is a typed error or decodes to a value
    /// that survives its own round trip.
    #[test]
    fn latency_decoders_reject_truncated_and_mutated_bytes(
        out in arb_batch_out(),
        cut_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let histogram = wire::encode_latency_histogram(&out.latency);
        let cut = (cut_seed % histogram.len() as u64) as usize;
        let err = wire::decode_latency_histogram(&histogram[..cut]).expect_err("prefix");
        prop_assert!(is_typed(&err), "untyped: {}", err);
        let mut mutated = histogram.clone();
        mutated[cut] ^= flip;
        match wire::decode_latency_histogram(&mutated) {
            Ok(h) => {
                let again = wire::encode_latency_histogram(&h);
                prop_assert_eq!(wire::decode_latency_histogram(&again).ok(), Some(h));
            }
            Err(e) => prop_assert!(is_typed(&e), "untyped: {}", e),
        }

        let batch = encode_batch_out(&out);
        let cut = (cut_seed % batch.len() as u64) as usize;
        let err = decode_batch_out(&batch[..cut]).expect_err("prefix");
        prop_assert!(is_typed(&err), "untyped: {}", err);
        let mut mutated = batch.clone();
        mutated[cut] ^= flip;
        match decode_batch_out(&mutated) {
            Ok(b) => {
                let again = decode_batch_out(&encode_batch_out(&b)).expect("re-decodes");
                prop_assert_eq!(&again.latency, &b.latency);
                prop_assert_eq!(again.shots(), b.shots());
            }
            Err(e) => prop_assert!(is_typed(&e), "untyped: {}", e),
        }
    }
}

fn arb_partial_result() -> impl Strategy<Value = PartialResult> {
    (
        arb_batch_out(),
        "[a-z0-9-]{0,12}",
        (any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|(out, name, (total, wait, done))| PartialResult {
            name,
            tenant: TenantId::new("tenant"),
            shots_done: out.shots(),
            shots_total: total,
            batches_done: (total % 7) as usize,
            batches_total: (total % 11) as usize,
            latency: out.latency.stats(),
            histogram: out.histogram,
            stats: out.stats,
            mean_prob1: out.prob1_sum,
            non_halted: out.non_halted,
            done,
            failed: out.first_failure.map(|(_, message)| message),
            queue_wait: Duration::from_nanos(wait),
            active: Duration::from_nanos(out.elapsed_ns),
        })
}

fn arb_job_result() -> impl Strategy<Value = JobResult> {
    (arb_batch_out(), "[a-z0-9-]{0,12}", any::<u64>()).prop_map(|(out, name, bits)| {
        // `JobResult` has a private field: start from a real result.
        let mut result = eqasm_runtime::ShotEngine::serial()
            .run_job(&Job::new(
                "r",
                Instantiation::paper_two_qubit(),
                vec![Instruction::Stop],
            ))
            .expect("runs");
        result.name = name;
        result.shots = out.shots();
        result.histogram = out.histogram;
        result.stats = out.stats;
        result.mean_prob1 = out.prob1_sum;
        result.latency = out.latency;
        result.elapsed = Duration::from_nanos(out.elapsed_ns);
        result.shots_per_sec = edge_f64(bits as u8, f64::from_bits(bits));
        result.non_halted = out.non_halted;
        result.first_failure = out.first_failure;
        result
    })
}

fn arb_submission() -> impl Strategy<Value = Submission> {
    (arb_job(), 0u8..7, any::<u64>(), "[a-z0-9-]{0,12}").prop_map(|(job, kind, v, name)| {
        let kind = match kind {
            0 => WorkloadKind::Rabi {
                amplitudes: vec![0.25, f64::from_bits(v)],
                amplitude_index: (v % 2) as usize,
            },
            1 => WorkloadKind::AllXy {
                round: (v % 42) as usize,
                init_cycles: v as u32,
            },
            2 => WorkloadKind::Rb {
                k: (v % 64) as usize,
                interval_cycles: (v >> 8) as u32,
                sequence_seed: v,
            },
            3 => WorkloadKind::ActiveReset {
                init_cycles: v as u32,
            },
            4 => WorkloadKind::Source { text: name.clone() },
            5 => WorkloadKind::CliffordChain {
                qubits: 2 + (v % 16) as usize,
                layers: 1 + (v >> 32) as u32 % 16,
            },
            _ => return Submission::job(TenantId::new(name), job),
        };
        let spec = WorkloadSpec::new(name, kind, v >> 40)
            .with_weight(v as u32 % 4)
            .with_seed(v.rotate_left(17))
            .with_config(job.shape.config().clone());
        Submission::workload("tenant", spec)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes into the snapshot, final-result and submission
    /// decoders: a typed error or a value, never a panic.
    #[test]
    fn result_and_submission_decoders_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        if let Err(e) = wire::decode_partial_result(&bytes) {
            prop_assert!(is_typed(&e), "untyped: {}", e);
        }
        if let Err(e) = wire::decode_job_result(&bytes) {
            prop_assert!(is_typed(&e), "untyped: {}", e);
        }
        if let Err(e) = wire::decode_submission(&bytes) {
            prop_assert!(is_typed(&e), "untyped: {}", e);
        }
    }

    /// Every strict prefix of an encoded snapshot or final result is a
    /// typed error; a byte mutated at a random offset is a typed error
    /// or decodes to a value whose encoding survives its own round
    /// trip.
    #[test]
    fn result_decoders_reject_truncated_and_mutated_bytes(
        partial in arb_partial_result(),
        result in arb_job_result(),
        cut_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bytes = wire::encode_partial_result(&partial);
        for cut in 0..bytes.len() {
            let err = wire::decode_partial_result(&bytes[..cut]).expect_err("prefix");
            prop_assert!(is_typed(&err), "untyped: {}", err);
        }
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut mutated = bytes.clone();
        mutated[cut] ^= flip;
        match wire::decode_partial_result(&mutated) {
            Ok(p) => {
                let again = wire::encode_partial_result(&p);
                let back = wire::decode_partial_result(&again).expect("re-decodes");
                prop_assert_eq!(wire::encode_partial_result(&back), again);
            }
            Err(e) => prop_assert!(is_typed(&e), "untyped: {}", e),
        }

        let bytes = wire::encode_job_result(&result);
        for cut in 0..bytes.len() {
            let err = wire::decode_job_result(&bytes[..cut]).expect_err("prefix");
            prop_assert!(is_typed(&err), "untyped: {}", err);
        }
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut mutated = bytes.clone();
        mutated[cut] ^= flip;
        match wire::decode_job_result(&mutated) {
            Ok(r) => {
                let again = wire::encode_job_result(&r);
                let back = wire::decode_job_result(&again).expect("re-decodes");
                prop_assert_eq!(wire::encode_job_result(&back), again);
            }
            Err(e) => prop_assert!(is_typed(&e), "untyped: {}", e),
        }
    }

    /// The same for submissions. A job submission whose job bytes are
    /// cut inside an intact frame takes the job decoder through every
    /// truncation too.
    #[test]
    fn submission_decoder_rejects_truncated_and_mutated_bytes(
        submission in arb_submission(),
        job in arb_job(),
        cut_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let job_bytes = encode_job(&job).expect("encodes");
        let framed = |job_bytes: &[u8]| {
            [&[1, 0, 0, 0, b't', 0][..], &(job_bytes.len() as u32).to_le_bytes(), job_bytes].concat()
        };
        let whole = wire::encode_submission(&Submission::job("t", job)).expect("encodes");
        prop_assert_eq!(framed(&job_bytes), whole);
        for cut in 0..job_bytes.len() {
            let err = wire::decode_submission(&framed(&job_bytes[..cut])).expect_err("cut job");
            prop_assert!(is_typed(&err), "untyped: {}", err);
        }

        let bytes = wire::encode_submission(&submission).expect("encodes");
        for cut in 0..bytes.len() {
            let err = wire::decode_submission(&bytes[..cut]).expect_err("prefix");
            prop_assert!(is_typed(&err), "untyped: {}", err);
        }
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut mutated = bytes.clone();
        mutated[cut] ^= flip;
        match wire::decode_submission(&mutated) {
            Ok(s) => {
                let again = wire::encode_submission(&s).expect("re-encodes");
                let back = wire::decode_submission(&again).expect("re-decodes");
                prop_assert_eq!(wire::encode_submission(&back).expect("re-encodes"), again);
            }
            Err(e) => prop_assert!(is_typed(&e), "untyped: {}", e),
        }
    }
}

/// A length or count prefix claiming far more than the payload holds
/// is a `Truncated` error raised before anything is allocated for it.
#[test]
fn result_and_submission_lengths_are_bounded_by_the_bytes_present() {
    let huge = u32::MAX.to_le_bytes();
    // Snapshot name, submission tenant, a job result's histogram count
    // (24 bytes per entry), and a submitted job's byte length.
    let name = [&huge[..], &[1, 2]].concat();
    let count = [&[0u8; 4][..], &[0; 8], &huge, &[1, 2]].concat();
    let job_bytes = [&[0u8; 4][..], &[0], &huge, &[1, 2]].concat();
    let cases: [(&str, Result<(), WireError>, usize); 4] = [
        (
            "snapshot",
            wire::decode_partial_result(&name).map(drop),
            u32::MAX as usize,
        ),
        (
            "submission",
            wire::decode_submission(&name).map(drop),
            u32::MAX as usize,
        ),
        (
            "job result",
            wire::decode_job_result(&count).map(drop),
            u32::MAX as usize * 24,
        ),
        (
            "submitted job",
            wire::decode_submission(&job_bytes).map(drop),
            u32::MAX as usize,
        ),
    ];
    for (what, got, floor) in cases {
        match got {
            Err(WireError::Truncated { needed, have, .. }) => {
                assert_eq!((needed, have), (floor, 2), "{what}");
            }
            other => panic!("{what}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn latency_bucket_count_is_bounded_by_the_bytes_present() {
    // sum (0, 0), max 0, then a bucket count of 2^40 with two bytes of
    // payload behind it: rejected before anything is allocated for it.
    let mut bytes = vec![0, 0, 0];
    bytes.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
    bytes.extend([1, 1]);
    match wire::decode_latency_histogram(&bytes) {
        Err(WireError::Invalid(msg)) => assert!(msg.contains("buckets"), "{msg}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Deterministic rejection cases
// ---------------------------------------------------------------------

#[test]
fn bad_magic_is_typed() {
    let hello = wire::Hello {
        version: wire::PROTOCOL_VERSION,
    };
    let mut bytes = hello.encode();
    bytes[0] ^= 0x20;
    match wire::Hello::decode(&bytes) {
        Err(WireError::BadMagic { found }) => assert_eq!(found[1..], wire::MAGIC[1..]),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn version_mismatch_reports_both_versions() {
    // The client-side check: a HelloAck carrying a different version.
    let ack = wire::HelloAck {
        version: wire::PROTOCOL_VERSION + 7,
        capacity: 1,
        name: "future-worker".to_owned(),
    };
    let decoded = wire::HelloAck::decode(&ack.encode()).expect("well-formed");
    assert_eq!(decoded.version, wire::PROTOCOL_VERSION + 7);
    // net.rs turns this into WireError::VersionMismatch; the typed
    // error renders both ends' versions for the operator.
    let err = WireError::VersionMismatch {
        ours: wire::PROTOCOL_VERSION,
        theirs: decoded.version,
    };
    let rendered = err.to_string();
    assert!(rendered.contains(&format!("v{}", wire::PROTOCOL_VERSION)));
    assert!(rendered.contains(&format!("v{}", wire::PROTOCOL_VERSION + 7)));
}

#[test]
fn unknown_instruction_tag_rejected() {
    let job = Job::new(
        "tagged",
        Instantiation::paper_two_qubit(),
        vec![Instruction::Stop],
    );
    let bytes = encode_job(&job).expect("encodes");
    // The program's single instruction tag is the byte right before
    // the trailing SimConfig + shots + seed block. Find it by
    // re-encoding with a different instruction and diffing.
    let nop_bytes = encode_job(&Job::new(
        "tagged",
        Instantiation::paper_two_qubit(),
        vec![Instruction::Nop],
    ))
    .expect("encodes");
    let diff_at = bytes
        .iter()
        .zip(&nop_bytes)
        .position(|(a, b)| a != b)
        .expect("programs differ");
    let mut corrupt = bytes.clone();
    corrupt[diff_at] = 0xee;
    match decode_job(&corrupt) {
        Err(WireError::UnknownTag { what, tag }) => {
            assert_eq!(what, "Instruction");
            assert_eq!(tag, 0xee);
        }
        other => panic!("expected UnknownTag, got {other:?}"),
    }
}

#[test]
fn zero_length_frame_rejected() {
    let buf = 0u32.to_le_bytes().to_vec();
    assert!(matches!(
        wire::read_frame(&mut buf.as_slice()),
        Err(WireError::Invalid(_))
    ));
}

#[test]
fn short_frame_body_is_io_error() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&100u32.to_le_bytes());
    buf.extend_from_slice(&[1, 2, 3]); // 97 bytes missing
    assert!(matches!(
        wire::read_frame(&mut buf.as_slice()),
        Err(WireError::Io(_))
    ));
}

#[test]
fn fingerprint_distinguishes_jobs() {
    let a = encode_job(&Job::new(
        "a",
        Instantiation::paper_two_qubit(),
        vec![Instruction::Stop],
    ))
    .unwrap();
    let b = encode_job(&Job::new(
        "b",
        Instantiation::paper_two_qubit(),
        vec![Instruction::Stop],
    ))
    .unwrap();
    assert_ne!(wire::job_fingerprint(&a), wire::job_fingerprint(&b));
    assert_eq!(wire::job_fingerprint(&a), wire::job_fingerprint(&a));
}

// ---------------------------------------------------------------------
// Job registry, auth and service codecs
// ---------------------------------------------------------------------

#[test]
fn load_job_and_run_range_by_id_roundtrip() {
    let job = Job::new(
        "registry",
        Instantiation::paper_two_qubit(),
        vec![Instruction::Stop],
    );
    let load = wire::LoadJob {
        job_id: 42,
        job_bytes: encode_job(&job).unwrap(),
    };
    assert_eq!(wire::LoadJob::decode(&load.encode()).unwrap(), load);
    // The borrowing encoder must produce identical bytes.
    assert_eq!(
        load.encode(),
        wire::LoadJob::encode_parts(42, &load.job_bytes)
    );

    let ack = wire::LoadAck {
        job_id: 42,
        cached: 3,
    };
    assert_eq!(wire::LoadAck::decode(&ack.encode()).unwrap(), ack);

    let run = wire::RunRangeById {
        job_id: 42,
        start: 1_000_000,
        end: 1_000_256,
    };
    let encoded = run.encode();
    assert_eq!(
        encoded.len(),
        24,
        "the by-id request is constant-size whatever the program"
    );
    assert_eq!(wire::RunRangeById::decode(&encoded).unwrap(), run);
}

#[test]
fn auth_frames_roundtrip() {
    let challenge = wire::AuthChallenge {
        server_nonce: (0..32u8).collect(),
    };
    assert_eq!(
        wire::AuthChallenge::decode(&challenge.encode()).unwrap(),
        challenge
    );
    let response = wire::AuthResponse {
        client_nonce: (32..64u8).collect(),
        proof: vec![0xaa; 32],
    };
    assert_eq!(
        wire::AuthResponse::decode(&response.encode()).unwrap(),
        response
    );
    let ok = wire::AuthOk {
        proof: vec![0x55; 32],
    };
    assert_eq!(wire::AuthOk::decode(&ok.encode()).unwrap(), ok);
}

#[test]
fn frame_limit_rejects_over_budget_before_reading_payload() {
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, wire::tag::PING, &[0u8; 4096]).unwrap();
    // The same bytes pass the global cap but not a 1 KiB budget.
    assert!(wire::read_frame(&mut buf.as_slice()).is_ok());
    match wire::read_frame_limit(&mut buf.as_slice(), 1024) {
        Err(WireError::FrameTooLarge { len, cap }) => {
            assert_eq!(len, 4097);
            assert_eq!(cap, 1024);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn partial_result_roundtrips_bit_exactly() {
    use eqasm_runtime::{LatencyStats, PartialResult, TenantId};
    let mut histogram = Histogram::new();
    histogram.add(
        BitString {
            measured: 0b11,
            bits: 0b01,
        },
        17,
    );
    let mut stats = eqasm_microarch::RunStats::default();
    stats.classical_cycles = 12345;
    stats.measurements = 99;
    let snapshot = PartialResult {
        name: "snap".to_owned(),
        tenant: TenantId::new("cal-team"),
        shots_done: 24,
        shots_total: 96,
        batches_done: 3,
        batches_total: 12,
        histogram,
        stats,
        mean_prob1: vec![0.25, f64::from_bits(0x7ff8_dead_beef_0002), -0.0],
        latency: LatencyStats {
            p50_ns: 1,
            p95_ns: 2,
            p99_ns: 3,
            mean_ns: 4,
            max_ns: 5,
        },
        non_halted: 1,
        done: false,
        failed: Some("partial failure".to_owned()),
        queue_wait: std::time::Duration::from_millis(7),
        active: std::time::Duration::from_micros(9),
    };
    let bytes = wire::encode_partial_result(&snapshot);
    let decoded = wire::decode_partial_result(&bytes).expect("decodes");
    assert_eq!(decoded.name, snapshot.name);
    assert_eq!(decoded.tenant, snapshot.tenant);
    assert_eq!(decoded.shots_done, snapshot.shots_done);
    assert_eq!(decoded.batches_done, snapshot.batches_done);
    assert_eq!(decoded.histogram, snapshot.histogram);
    assert_eq!(decoded.stats, snapshot.stats);
    assert_eq!(decoded.latency, snapshot.latency);
    assert_eq!(decoded.failed, snapshot.failed);
    assert_eq!(decoded.queue_wait, snapshot.queue_wait);
    assert_eq!(decoded.active, snapshot.active);
    let ours: Vec<u64> = snapshot.mean_prob1.iter().map(|p| p.to_bits()).collect();
    let theirs: Vec<u64> = decoded.mean_prob1.iter().map(|p| p.to_bits()).collect();
    assert_eq!(ours, theirs, "mean P(1) must cross by bit pattern");
    // Canonical bytes.
    assert_eq!(bytes, wire::encode_partial_result(&decoded));
}

#[test]
fn job_result_roundtrips_from_a_real_run() {
    use eqasm_runtime::ShotEngine;
    let (inst, program) = eqasm_runtime::WorkloadKind::ActiveReset { init_cycles: 20 }
        .build()
        .expect("builds");
    let job = Job::new("jr", inst, program).with_shots(16).with_seed(3);
    let result = ShotEngine::serial().run_job(&job).expect("runs");
    let bytes = wire::encode_job_result(&result);
    let decoded = wire::decode_job_result(&bytes).expect("decodes");
    assert_eq!(decoded.name, result.name);
    assert_eq!(decoded.shots, result.shots);
    assert_eq!(decoded.histogram, result.histogram);
    assert_eq!(decoded.stats, result.stats);
    assert_eq!(decoded.mean_prob1, result.mean_prob1);
    assert_eq!(decoded.latency, result.latency);
    assert_eq!(decoded.non_halted, result.non_halted);
    assert_eq!(decoded.first_failure, result.first_failure);
    assert_eq!(bytes, wire::encode_job_result(&decoded), "canonical bytes");
}

#[test]
fn submission_roundtrips_jobs_and_specs() {
    use eqasm_runtime::{Submission, WorkloadKind, WorkloadSpec};
    let job = Job::new(
        "sub-job",
        Instantiation::paper_two_qubit(),
        vec![Instruction::Stop],
    )
    .with_shots(32)
    .with_seed(9);
    let as_job = Submission::job("tenant-a", job.clone());
    let decoded = wire::decode_submission(&wire::encode_submission(&as_job).unwrap()).unwrap();
    assert_eq!(decoded.tenant().as_str(), "tenant-a");

    let spec = WorkloadSpec::new(
        "rb-sweep",
        WorkloadKind::Rb {
            k: 16,
            interval_cycles: 2,
            sequence_seed: 0x5eed,
        },
        400,
    )
    .with_weight(3)
    .with_seed(77);
    let as_spec = Submission::workload("tenant-b", spec);
    let bytes = wire::encode_submission(&as_spec).unwrap();
    let decoded = wire::decode_submission(&bytes).unwrap();
    assert_eq!(decoded.tenant().as_str(), "tenant-b");
    // Canonical: re-encoding the decoded submission yields the bytes.
    assert_eq!(bytes, wire::encode_submission(&decoded).unwrap());

    let mut corrupt = bytes.clone();
    corrupt.push(0xff);
    assert!(wire::decode_submission(&corrupt).is_err());
}

#[test]
fn submit_ack_roundtrips() {
    let ack = wire::SubmitAck {
        jobs: vec![
            wire::RemoteJobInfo {
                job_id: 1,
                name: "a".to_owned(),
                shots: 100,
            },
            wire::RemoteJobInfo {
                job_id: 2,
                name: "b".to_owned(),
                shots: 200,
            },
        ],
    };
    assert_eq!(wire::SubmitAck::decode(&ack.encode()).unwrap(), ack);
    assert_eq!(wire::decode_job_id(&wire::encode_job_id(7)).unwrap(), 7);
    assert!(wire::decode_job_id(&[1, 2, 3]).is_err());
}

// ---------------------------------------------------------------------
// Incremental framing (FrameReader / FrameWriter) and resume codec
// ---------------------------------------------------------------------

/// Every frame shape the protocol ships, as one stream: the full auth
/// transcript, a `LoadJob`, fresh and resuming subscribes,
/// a by-id run request, snapshots and typed errors. The incremental
/// reader must decode this stream identically to the blocking reader
/// however the bytes are chopped up.
fn frame_corpus() -> Vec<(u8, Vec<u8>)> {
    let job = Job::new(
        "corpus",
        Instantiation::paper_two_qubit(),
        vec![Instruction::Stop; 8],
    )
    .with_shots(64)
    .with_seed(11);
    let job_bytes = encode_job(&job).unwrap();
    let load = wire::LoadJob::encode_parts(8, &job_bytes);
    vec![
        (
            wire::tag::HELLO,
            wire::Hello {
                version: wire::PROTOCOL_VERSION,
            }
            .encode(),
        ),
        (
            wire::tag::HELLO_ACK,
            wire::HelloAck {
                version: wire::PROTOCOL_VERSION,
                capacity: 8,
                name: "corpus-server".to_owned(),
            }
            .encode(),
        ),
        (
            wire::tag::AUTH_CHALLENGE,
            wire::AuthChallenge {
                server_nonce: (0..32u8).collect(),
            }
            .encode(),
        ),
        (
            wire::tag::AUTH_RESPONSE,
            wire::AuthResponse {
                client_nonce: (32..64u8).collect(),
                proof: vec![0xaa; 32],
            }
            .encode(),
        ),
        (
            wire::tag::AUTH_OK,
            wire::AuthOk {
                proof: vec![0x55; 32],
            }
            .encode(),
        ),
        (wire::tag::LOAD_JOB, load),
        (
            wire::tag::RUN_RANGE_BY_ID,
            wire::RunRangeById {
                job_id: 9,
                start: 0,
                end: 64,
            }
            .encode(),
        ),
        (
            wire::tag::SUBSCRIBE,
            wire::encode_subscribe(&wire::Subscribe {
                job_id: 3,
                resume_after: None,
            }),
        ),
        (
            wire::tag::SUBSCRIBE,
            wire::encode_subscribe(&wire::Subscribe {
                job_id: 3,
                resume_after: Some(17),
            }),
        ),
        (wire::tag::PING, Vec::new()),
        (
            wire::tag::ERROR,
            wire::ErrorMsg {
                kind: wire::ErrorKind::Budget,
                version: wire::PROTOCOL_VERSION,
                message: "corpus error".to_owned(),
            }
            .encode(),
        ),
    ]
}

/// The corpus as one contiguous byte stream, plus the frames the
/// blocking reader extracts from it (the baseline).
fn corpus_stream() -> (Vec<u8>, Vec<(u8, Vec<u8>)>) {
    let frames = frame_corpus();
    let mut stream = Vec::new();
    for (tag, payload) in &frames {
        stream.extend(wire::encode_frame(*tag, payload).unwrap());
    }
    let mut cursor = stream.as_slice();
    let mut blocking = Vec::new();
    while !cursor.is_empty() {
        blocking.push(wire::read_frame(&mut cursor).expect("blocking reader decodes corpus"));
    }
    assert_eq!(blocking.len(), frames.len());
    (stream, blocking)
}

#[test]
fn frame_reader_decodes_byte_at_a_time() {
    let (stream, blocking) = corpus_stream();
    let mut reader = wire::FrameReader::new(wire::MAX_FRAME_LEN);
    let mut incremental = Vec::new();
    for byte in &stream {
        reader.extend(std::slice::from_ref(byte));
        while let Some(frame) = reader.next_frame().expect("incremental decode") {
            incremental.push(frame);
        }
    }
    assert_eq!(incremental, blocking);
    assert_eq!(reader.pending(), 0, "no bytes left over");
}

proptest! {
    /// Chop the corpus stream at arbitrary points — the incremental
    /// reader must reassemble exactly what the blocking reader sees,
    /// regardless of where `EWOULDBLOCK` would have landed.
    #[test]
    fn frame_reader_decodes_any_split(cuts in prop::collection::vec(1usize..257, 1..64)) {
        let (stream, blocking) = corpus_stream();
        let mut reader = wire::FrameReader::new(wire::MAX_FRAME_LEN);
        let mut incremental = Vec::new();
        let mut pos = 0;
        let mut cut = 0;
        while pos < stream.len() {
            let take = cuts[cut % cuts.len()].min(stream.len() - pos);
            cut += 1;
            reader.extend(&stream[pos..pos + take]);
            pos += take;
            while let Some(frame) = reader.next_frame().expect("incremental decode") {
                incremental.push(frame);
            }
        }
        prop_assert_eq!(incremental, blocking);
        prop_assert_eq!(reader.pending(), 0);
    }

    /// The outbound path: frames drained through a FrameWriter in
    /// arbitrarily small write windows produce the identical byte
    /// stream `write_frame` would have produced on a blocking socket.
    #[test]
    fn frame_writer_matches_blocking_writer(window in 1usize..97) {
        struct Window {
            out: Vec<u8>,
            cap: usize,
        }
        impl std::io::Write for Window {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.cap);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (stream, _) = corpus_stream();
        let mut writer = wire::FrameWriter::new(usize::MAX);
        for (tag, payload) in frame_corpus() {
            let frame = wire::encode_frame(tag, &payload).unwrap();
            prop_assert!(writer.enqueue(std::sync::Arc::new(frame)));
        }
        let mut sink = Window { out: Vec::new(), cap: window };
        prop_assert!(writer.flush_into(&mut sink).expect("drains"));
        prop_assert!(!writer.has_pending());
        prop_assert_eq!(sink.out, stream, "byte-identical to the blocking writer");
    }
}

#[test]
fn subscribe_codec_fresh_and_resume_forms() {
    // The fresh form is byte-identical to a job-id payload.
    let plain = wire::encode_subscribe(&wire::Subscribe {
        job_id: 5,
        resume_after: None,
    });
    assert_eq!(plain, wire::encode_job_id(5));
    let decoded = wire::decode_subscribe(&plain).unwrap();
    assert_eq!(decoded.job_id, 5);
    assert_eq!(decoded.resume_after, None);

    // The resume form appends the last-seen prefix; both fields
    // round-trip.
    let resume = wire::encode_subscribe(&wire::Subscribe {
        job_id: 5,
        resume_after: Some(7),
    });
    assert_eq!(resume.len(), 16);
    let decoded = wire::decode_subscribe(&resume).unwrap();
    assert_eq!(decoded.job_id, 5);
    assert_eq!(decoded.resume_after, Some(7));

    // Anything else is malformed: truncated resume field, trailing
    // garbage, empty payload.
    assert!(wire::decode_subscribe(&resume[..12]).is_err());
    let mut trailing = resume.clone();
    trailing.push(0);
    assert!(wire::decode_subscribe(&trailing).is_err());
    assert!(wire::decode_subscribe(&[]).is_err());
}
