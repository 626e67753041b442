//! Seeded garbage-trace fuzz against the full replay path.
//!
//! The `BMT1` reader already has a unit-level fuzz test proving it
//! never panics on malformed bytes. These tests extend that corpus one
//! layer up: whatever the reader *does* yield — clean records, a good
//! prefix before a truncation, or nothing — is replayed into every
//! cache organization in the comparison set. External trace input must
//! never panic any scheme; every malformation surfaces as a typed
//! [`TraceError`], and every parsed record is serviced.

use bimodal::cache::CacheAccess;
use bimodal::prng::SmallRng;
use bimodal::sim::{SchemeKind, SystemConfig};
use bimodal::workloads::{read_trace, write_trace, Access, TraceError};

const MAGIC: &[u8; 4] = b"BMT1";

fn temp(name: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "bimodal-fuzz-{name}-{seed}-{}.bmt",
        std::process::id()
    ))
}

fn system() -> SystemConfig {
    SystemConfig::quad_core().with_cache_mb(4)
}

/// Replays `accesses` through `kind` on `config`'s memory substrate,
/// asserting time always advances.
fn replay_on(kind: SchemeKind, config: &SystemConfig, accesses: &[Access]) {
    let mut scheme = kind.build(config);
    let mut mem = config.build_memory();
    let mut now = 0;
    for a in accesses {
        let access = if a.is_write {
            CacheAccess::write(a.addr, now)
        } else {
            CacheAccess::read(a.addr, now)
        };
        let out = scheme.access(access, &mut mem);
        assert!(out.complete > now, "{kind}: completion must advance");
        now = out.complete + a.gap;
    }
    assert_eq!(scheme.stats().accesses, accesses.len() as u64, "{kind}");
}

/// Replays `accesses` through `kind` on the default substrate.
fn replay(kind: SchemeKind, accesses: &[Access]) {
    replay_on(kind, &system(), accesses);
}

/// Random byte garbage — raw, or with a valid `BMT1` header spliced on
/// so the record parser gets exercised — must never panic the reader or
/// any scheme fed from it. Garbage that parses yields arbitrary 63-bit
/// addresses and gaps; every organization must service them.
#[test]
fn garbage_traces_never_panic_any_scheme() {
    for seed in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..240);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        if seed.is_multiple_of(2) {
            let mut with_magic = MAGIC.to_vec();
            with_magic.append(&mut bytes);
            bytes = with_magic;
        }
        let path = temp("garbage", seed);
        std::fs::write(&path, &bytes).expect("writes");
        let opened = read_trace(&path);
        match opened {
            Err(e) => assert!(
                matches!(e, TraceError::NotATrace | TraceError::Io(_)),
                "open failures are typed (seed {seed})"
            ),
            Ok(trace) => {
                let mut good = Vec::new();
                for (i, item) in trace.enumerate() {
                    match item {
                        Ok(a) => {
                            assert_eq!(a.addr >> 63, 0, "write flag stripped (seed {seed})");
                            good.push(a);
                        }
                        Err(e) => {
                            // Errors are typed and terminal: only a
                            // truncated tail can follow a valid header.
                            assert!(
                                matches!(e, TraceError::TruncatedRecord { index } if index == i as u64),
                                "seed {seed}"
                            );
                            break;
                        }
                    }
                }
                for kind in SchemeKind::comparison_set() {
                    replay(kind, &good);
                }
            }
        }
        std::fs::remove_file(&path).expect("cleanup");
    }
}

/// A trace cut off mid-record still replays its good prefix on every
/// scheme, and the truncation reports exactly how many records survived.
#[test]
fn truncated_traces_replay_their_good_prefix_everywhere() {
    for seed in [3u64, 17, 99] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(4u64..20);
        let accesses: Vec<Access> = (0..n)
            .map(|_| {
                let addr = rng.gen_range(0u64..1 << 26) & !63;
                let gap = rng.gen_range(0u64..500);
                if rng.gen_bool(0.3) {
                    Access::write(addr, gap)
                } else {
                    Access::read(addr, gap)
                }
            })
            .collect();
        let path = temp("truncated", seed);
        write_trace(&path, &accesses).expect("writes");
        // Chop the file inside the final record.
        let mut bytes = std::fs::read(&path).expect("reads back");
        let cut = rng.gen_range(1usize..12);
        bytes.truncate(bytes.len() - cut);
        std::fs::write(&path, &bytes).expect("rewrites");
        let items: Vec<_> = read_trace(&path).expect("opens").collect();
        std::fs::remove_file(&path).expect("cleanup");
        assert_eq!(items.len() as u64, n, "seed {seed}");
        let good: Vec<Access> = items[..items.len() - 1]
            .iter()
            .map(|r| *r.as_ref().expect("prefix parses"))
            .collect();
        assert!(
            matches!(
                items[items.len() - 1],
                Err(TraceError::TruncatedRecord { index }) if index == n - 1
            ),
            "seed {seed}"
        );
        for kind in SchemeKind::comparison_set() {
            replay(kind, &good);
        }
    }
}

/// Round-trip determinism through the file format: replaying a trace
/// read back from disk gives every scheme the same statistics as
/// replaying the in-memory original.
#[test]
fn file_round_trip_replays_identically_on_every_scheme() {
    let mut rng = SmallRng::seed_from_u64(0xF0F0);
    let accesses: Vec<Access> = (0..400)
        .map(|_| {
            let addr = rng.gen_range(0u64..1 << 23) & !63;
            let gap = rng.gen_range(0u64..200);
            if rng.gen_bool(0.25) {
                Access::write(addr, gap)
            } else {
                Access::read(addr, gap)
            }
        })
        .collect();
    let path = temp("roundtrip", 0);
    write_trace(&path, &accesses).expect("writes");
    let back: Vec<Access> = read_trace(&path)
        .expect("opens")
        .collect::<Result<_, _>>()
        .expect("parses");
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(back, accesses);
    for kind in SchemeKind::comparison_set() {
        let run = |trace: &[Access]| {
            let mut scheme = kind.build(&system());
            let mut mem = system().build_memory();
            let mut now = 0;
            for a in trace {
                let access = if a.is_write {
                    CacheAccess::write(a.addr, now)
                } else {
                    CacheAccess::read(a.addr, now)
                };
                now = scheme.access(access, &mut mem).complete + a.gap;
            }
            (scheme.stats().clone(), now)
        };
        assert_eq!(run(&accesses), run(&back), "{kind}");
    }
}

/// The exotic substrates digest the same hostile corpus: garbage and
/// truncated `BMT1` bytes replay whatever parses through every scheme on
/// the fused-burst `tdram` and slow-media `pcm-far` backends without a
/// panic. The fused tag+data shortcut and the asymmetric write penalty
/// both sit on the hit/miss hot paths, so arbitrary 63-bit addresses and
/// gaps must not trip either.
#[test]
fn hostile_traces_never_panic_on_tdram_or_pcm_far() {
    use bimodal::dram::BackendKind;
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0x7D0 ^ seed);
        // Half the corpus is raw garbage behind a valid magic; the other
        // half is a real trace chopped mid-record.
        let path = temp("backend", seed);
        if seed.is_multiple_of(2) {
            let len = rng.gen_range(0usize..240);
            let mut bytes = MAGIC.to_vec();
            bytes.extend((0..len).map(|_| rng.gen_range(0u32..256) as u8));
            std::fs::write(&path, &bytes).expect("writes");
        } else {
            let n = rng.gen_range(4u64..20);
            let accesses: Vec<Access> = (0..n)
                .map(|_| {
                    let addr = rng.gen_range(0u64..1 << 26) & !63;
                    let gap = rng.gen_range(0u64..500);
                    if rng.gen_bool(0.3) {
                        Access::write(addr, gap)
                    } else {
                        Access::read(addr, gap)
                    }
                })
                .collect();
            write_trace(&path, &accesses).expect("writes");
            let mut bytes = std::fs::read(&path).expect("reads back");
            let cut = rng.gen_range(1usize..12);
            bytes.truncate(bytes.len() - cut);
            std::fs::write(&path, &bytes).expect("rewrites");
        }
        let good: Vec<Access> = match read_trace(&path) {
            Err(e) => {
                assert!(
                    matches!(e, TraceError::NotATrace | TraceError::Io(_)),
                    "open failures are typed (seed {seed})"
                );
                Vec::new()
            }
            Ok(trace) => trace.map_while(Result::ok).collect(),
        };
        std::fs::remove_file(&path).expect("cleanup");
        for backend in [BackendKind::Tdram, BackendKind::PcmFar] {
            let config = system().with_backend(backend);
            for kind in SchemeKind::comparison_set() {
                replay_on(kind, &config, &good);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Corrupt-checkpoint fuzz: the `bimodal-ckpt-v1` container and the full
// resume path must turn every malformed snapshot into a typed error —
// truncations, bit flips, and wrong versions never panic, and a payload
// checksum mismatch names the section it caught.
// ---------------------------------------------------------------------

/// A real mid-run snapshot to mutilate, produced by a checkpointed run.
fn pristine_checkpoint(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    use bimodal::obs::Observer;
    use bimodal::sim::{CheckpointSpec, Simulation};
    use bimodal::workloads::WorkloadMix;
    let path = std::env::temp_dir().join(format!(
        "bimodal-fuzz-ckpt-{tag}-{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let spec = CheckpointSpec::new(path.clone(), 2_000).expect("valid cadence");
    let mut obs = Observer::disabled();
    Simulation::new(system(), SchemeKind::BiModal)
        .run_mix_checkpointed(&mix, 3_000, &mut obs, Some(&spec), None)
        .expect("checkpointed run");
    let bytes = std::fs::read(&path).expect("snapshot exists");
    (path, bytes)
}

/// Resumes a run from `bytes` written at `path`; must never panic.
fn try_resume(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    use bimodal::obs::Observer;
    use bimodal::sim::Simulation;
    use bimodal::workloads::WorkloadMix;
    std::fs::write(path, bytes).expect("writable temp file");
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let mut obs = Observer::disabled();
    Simulation::new(system(), SchemeKind::BiModal)
        .run_mix_checkpointed(&mix, 3_000, &mut obs, None, Some(path))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn truncated_checkpoints_fail_typed_at_every_length() {
    use bimodal::ckpt::CkptFile;
    let (path, bytes) = pristine_checkpoint("trunc");
    // Sanity: the untouched snapshot parses and resumes.
    CkptFile::from_bytes(&bytes).expect("pristine snapshot parses");
    try_resume(&path, &bytes).expect("pristine snapshot resumes");
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut cuts: Vec<usize> = (0..64)
        .map(|_| (rng.next_u64() as usize) % bytes.len())
        .collect();
    cuts.extend([0, 1, 11, 12, 15, 16, bytes.len() - 1]);
    for cut in cuts {
        let err = CkptFile::from_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("a snapshot cut to {cut} bytes must not parse"));
        // Every truncation is a typed error with a readable rendering.
        assert!(!format!("{err}").is_empty());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_checkpoints_never_panic_the_resume_path() {
    let (path, bytes) = pristine_checkpoint("flip");
    let mut rng = SmallRng::seed_from_u64(0xBADC0DE);
    for _ in 0..48 {
        let pos = (rng.next_u64() as usize) % bytes.len();
        let bit = 1u8 << (rng.next_u64() % 8) as u8;
        let mut mutated = bytes.clone();
        mutated[pos] ^= bit;
        // A flipped snapshot must be rejected with a typed error: the
        // container checksums every section, so nothing slips through
        // to corrupt a resumed run silently.
        let err = try_resume(&path, &mutated)
            .err()
            .unwrap_or_else(|| panic!("flipping bit {bit:#x} at byte {pos} must be caught"));
        assert!(!err.is_empty());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_checkpoints_name_the_version() {
    use bimodal::ckpt::{CkptError, CkptFile, MAGIC};
    let (path, bytes) = pristine_checkpoint("version");
    // 1 is the previous layout: no reader for it remains.
    for version in [1u8, 0x2A] {
        let mut mutated = bytes.clone();
        // The little-endian u32 version sits right after the magic.
        mutated[MAGIC.len()] = version;
        match CkptFile::from_bytes(&mutated) {
            Err(CkptError::BadVersion { found }) => assert_eq!(found, u32::from(version)),
            other => panic!("expected BadVersion for {version}, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checksum_mismatch_names_the_offending_section() {
    use bimodal::ckpt::{CkptError, CkptFile};
    let mut file = CkptFile::new();
    file.put("alpha", vec![1, 2, 3, 4]);
    file.put("beta", b"payload under test".to_vec());
    let bytes = file.to_bytes();
    // Flip one byte inside beta's payload (search from the end so the
    // section name bytes themselves stay intact).
    let payload_pos = bytes
        .windows(7)
        .rposition(|w| w == b"payload")
        .expect("beta payload is in the serialized image");
    let mut mutated = bytes;
    mutated[payload_pos + 3] ^= 0x10;
    match CkptFile::from_bytes(&mutated) {
        Err(CkptError::Checksum { section }) => {
            assert_eq!(section, "beta", "the error names the damaged section");
        }
        other => panic!("expected a Checksum error naming beta, got {other:?}"),
    }
}
