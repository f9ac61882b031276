//! The benchmark's own sequential BFS and layer probes: each workload's
//! space replayed through the public layer calls, one span around each.
//!
//! The replay admits configurations in the engines' order (layer by layer,
//! frontier order, pid order), so its `(configs, frontier_peak,
//! depth_reached)` must equal the engine's; every admitted state also goes
//! through the delta codec and the frame codec and must come back equal.

use crate::spans::{Layer, Recorder};
use crate::workload::{Pin, MAX_CONFIGS};
use cbh_model::packed::frame::{
    decode_frame_exact, encode_frame, StateChainDecoder, StateChainEncoder,
};
use cbh_model::{apply_delta_into, encode_delta, PackedCache, PackedState, Protocol};
use cbh_sim::Machine;
use cbh_verify::claim::ClaimTable;
use cbh_verify::fpset::FpSet;
use cbh_verify::frontier::SpillContext;
use cbh_verify::snapshot::{Snapshot, NO_PARENT};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// States per frame, as the sharded engine batches candidates.
const FRAME_BATCH: usize = 512;

/// Fingerprints per span in the seen-set probes: one call is tens of
/// nanoseconds, too short to time alone.
pub const PROBE_CHUNK: usize = 1024;

/// What a replay pass produced.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// The explored space's semantic result.
    pub pin: Option<Pin>,
    /// Configurations whose decisions broke validity or agreement.
    pub defects: u64,
    /// Delta or frame round trips that did not give back the state.
    pub codec_mismatches: u64,
    /// Every successor fingerprint previewed, in admission-attempt order,
    /// the root's first: the stream the seen-set probes replay.
    pub stream: Vec<u128>,
    /// Provenance `(parent link, pid)` of every admitted non-root state.
    pub links: Vec<(usize, usize)>,
    /// Encoded delta bytes.
    pub delta_bytes: u64,
    /// Delta records encoded.
    pub delta_records: u64,
    /// Encoded frame bytes (headers and CRC included).
    pub frame_bytes: u64,
    /// States carried in frames.
    pub frame_states: u64,
}

/// Replays `protocol`'s space to `depth`, recording spans into `rec`.
///
/// # Errors
///
/// A step or decode error, as text.
pub fn replay<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    depth: usize,
    rec: &mut Recorder,
) -> Result<ReplayOut, String> {
    let machine = Machine::start(protocol, inputs).map_err(|e| e.to_string())?;
    let ctx = machine.packed_ctx();
    let mut cache = PackedCache::new();
    let root = machine.pack(&ctx);
    let root_fp = ctx.digest_cached(&mut cache, &root, false);
    let seen = ClaimTable::new(MAX_CONFIGS);
    seen.admit(root_fp);

    let mut out = ReplayOut {
        stream: vec![root_fp],
        ..ReplayOut::default()
    };
    let defective =
        |ctx: &cbh_model::PackedCtx<P::Proc>, cache: &mut PackedCache<P::Proc>, s: &PackedState| {
            let decided: Vec<u64> = (0..s.n())
                .filter_map(|p| ctx.decision_cached(cache, s, p))
                .collect();
            decided.iter().any(|d| !inputs.contains(d)) || decided.windows(2).any(|w| w[0] != w[1])
        };
    out.defects += u64::from(defective(&ctx, &mut cache, &root));

    let mut delta_base = root.clone();
    let mut delta_buf = Vec::new();
    let mut chain = StateChainEncoder::new();
    let mut payload = Vec::new();
    let mut batch: Vec<PackedState> = Vec::with_capacity(FRAME_BATCH);
    let mut wire = Vec::new();

    let mut configs = 1usize;
    let mut frontier_peak = 1usize;
    let mut depth_reached = 0usize;
    let mut complete = true;
    let mut frontier: Vec<(PackedState, u128, usize)> = vec![(root, root_fp, NO_PARENT)];
    rec.open(Layer::Replay);
    while !frontier.is_empty() {
        frontier_peak = frontier_peak.max(frontier.len());
        if depth_reached >= depth {
            if frontier.iter().any(|(s, _, _)| ctx.has_active(s)) {
                complete = false;
            }
            break;
        }
        rec.open(Layer::BfsLayer);
        let mut next = Vec::new();
        for (state, fp, link) in &frontier {
            for pid in (0..state.n()).filter(|&p| ctx.is_active(state, p)) {
                let child_fp = rec
                    .leaf(Layer::EdgeDigest, 1, || {
                        ctx.edge_digest_cached(&mut cache, state, pid, *fp, false)
                    })
                    .map_err(|e| e.to_string())?;
                out.stream.push(child_fp);
                if !rec.leaf(Layer::ClaimAdmit, 1, || seen.admit(child_fp)) {
                    continue;
                }
                configs += 1;
                let mut child = state.clone();
                rec.leaf(Layer::Step, 1, || {
                    ctx.step_cached(&mut cache, &mut child, pid)
                })
                .map_err(|e| e.to_string())?;
                out.defects += u64::from(defective(&ctx, &mut cache, &child));

                // Delta codec: encode against the previous admitted state
                // and decode back in place, the spill-run discipline.
                delta_buf.clear();
                rec.leaf(Layer::DeltaEncode, 1, || {
                    encode_delta(&delta_base, &child, &mut delta_buf)
                });
                rec.leaf(Layer::DeltaApply, 1, || {
                    apply_delta_into(&mut delta_base, &delta_buf)
                })
                .map_err(|e| e.to_string())?;
                out.codec_mismatches += u64::from(delta_base != child);
                out.delta_bytes += delta_buf.len() as u64;
                out.delta_records += 1;

                // Frame codec: delta-chained batches, one frame each.
                rec.leaf(Layer::FrameEncode, 1, || chain.push(&child, &mut payload));
                batch.push(child.clone());
                if batch.len() == FRAME_BATCH {
                    let bad = frame_round_trip(
                        rec,
                        &mut chain,
                        &mut payload,
                        &mut batch,
                        &mut wire,
                        &mut out,
                    )?;
                    out.codec_mismatches += bad;
                }

                let child_link = out.links.len();
                out.links.push((*link, pid));
                next.push((child, child_fp, child_link));
            }
        }
        rec.close(0);
        frontier = next;
        depth_reached += 1;
    }
    if !batch.is_empty() {
        let bad = frame_round_trip(
            rec,
            &mut chain,
            &mut payload,
            &mut batch,
            &mut wire,
            &mut out,
        )?;
        out.codec_mismatches += bad;
    }
    rec.close(1);
    out.pin = Some(Pin {
        configs,
        complete,
        frontier_peak,
        depth_reached,
    });
    Ok(out)
}

/// Seals the pending batch into a frame, decodes it back and counts the
/// states that did not survive.
fn frame_round_trip(
    rec: &mut Recorder,
    chain: &mut StateChainEncoder,
    payload: &mut Vec<u8>,
    batch: &mut Vec<PackedState>,
    wire: &mut Vec<u8>,
    out: &mut ReplayOut,
) -> Result<u64, String> {
    wire.clear();
    rec.leaf(Layer::FrameEncode, 0, || encode_frame(1, payload, wire));
    let decoded = rec
        .leaf(Layer::FrameDecode, batch.len() as u64, || {
            let (_, mut body, _) = decode_frame_exact(wire)?;
            let mut dec = StateChainDecoder::new();
            (0..batch.len())
                .map(|_| dec.next(&mut body))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let bad = decoded
        .iter()
        .zip(batch.iter())
        .filter(|(a, b)| a != b)
        .count() as u64;
    out.frame_bytes += wire.len() as u64;
    out.frame_states += batch.len() as u64;
    *chain = StateChainEncoder::new();
    payload.clear();
    batch.clear();
    Ok(bad)
}

/// `ClaimTable::claim` over `stream` on `threads` racing threads, which
/// take chunks of [`PROBE_CHUNK`] fingerprints off a shared cursor. Returns
/// the probe's recorder (each thread's spans absorbed) and the claims that
/// came back new.
pub fn claim_probe(
    stream: &[u128],
    threads: usize,
    layer: Layer,
    epoch: Instant,
    run: u32,
) -> (Recorder, u64) {
    let table = ClaimTable::new(MAX_CONFIGS);
    let cursor = AtomicUsize::new(0);
    let fresh = AtomicU64::new(0);
    let mut merged = Recorder::new(true, epoch, run);
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (table, cursor, fresh) = (&table, &cursor, &fresh);
                scope.spawn(move || {
                    let mut rec = Recorder::new(true, epoch, run + t as u32);
                    let mut mine = 0u64;
                    loop {
                        let at = cursor.fetch_add(1, Ordering::Relaxed) * PROBE_CHUNK;
                        let Some(chunk) = stream.get(at..(at + PROBE_CHUNK).min(stream.len()))
                        else {
                            break;
                        };
                        if chunk.is_empty() {
                            break;
                        }
                        mine += rec.leaf(layer, chunk.len() as u64, || {
                            chunk.iter().filter(|&&fp| table.claim(fp)).count() as u64
                        });
                    }
                    fresh.fetch_add(mine, Ordering::Relaxed);
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("claim probe thread panicked"))
            .collect()
    });
    for r in recorders {
        merged.absorb(r);
    }
    (merged, fresh.load(Ordering::Relaxed))
}

/// `FpSet::admit` over `stream` in order, under `budget`, in chunks of
/// [`PROBE_CHUNK`]. Returns the admissions that came back new.
///
/// # Errors
///
/// A spill error, as text.
pub fn fpset_probe(
    stream: &[u128],
    budget: Option<usize>,
    rec: &mut Recorder,
) -> Result<u64, String> {
    let set = FpSet::new(MAX_CONFIGS, SpillContext::new(budget));
    let mut fresh = 0u64;
    for chunk in stream.chunks(PROBE_CHUNK) {
        fresh += rec
            .leaf(Layer::FpsetAdmit, chunk.len() as u64, || {
                chunk
                    .iter()
                    .try_fold(0u64, |n, &fp| set.admit(fp).map(|new| n + u64::from(new)))
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(fresh)
}

/// Writes `snapshot` to `path` and reads it back, `reps` times. Returns the
/// bytes of one snapshot and how many read-backs differed.
///
/// # Errors
///
/// A snapshot error, as text.
pub fn snapshot_probe(
    snapshot: &Snapshot,
    path: &Path,
    reps: usize,
    rec: &mut Recorder,
) -> Result<(u64, u64), String> {
    let mut bytes = 0;
    let mut bad = 0;
    for _ in 0..reps {
        bytes = rec
            .leaf(Layer::SnapshotWrite, 1, || snapshot.write(path))
            .map_err(|e| e.to_string())?;
        let back = rec
            .leaf(Layer::SnapshotRead, 1, || Snapshot::read(path))
            .map_err(|e| e.to_string())?;
        bad += u64::from(&back != snapshot);
    }
    Ok((bytes, bad))
}

/// The checkpoint a committer would write at the end of the replayed run.
pub fn snapshot_of<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    depth: usize,
    r: &ReplayOut,
) -> Option<Snapshot> {
    let pin = r.pin?;
    let mut seen = r.stream.clone();
    seen.sort_unstable();
    seen.dedup();
    Some(Snapshot {
        protocol: protocol.name(),
        n: inputs.len(),
        inputs: inputs.to_vec(),
        depth,
        max_configs: MAX_CONFIGS,
        solo_check_budget: None,
        symmetric: false,
        links: r.links.clone(),
        seen,
        next_commit: pin.configs,
        frontier_peak: pin.frontier_peak,
        depth_reached: pin.depth_reached,
        complete: pin.complete,
    })
}
