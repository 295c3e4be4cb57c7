#ifndef VERO_COMMON_COLLECTIVE_MODES_H_
#define VERO_COMMON_COLLECTIVE_MODES_H_

namespace vero {

/// Straggler handling of the distributed trainers' aggregation collectives
/// (MitigationOptions::mode of a CollectivePolicy, set from
/// GbdtParams::straggler_mitigation). Lives in common/ so GbdtParams can
/// name it while core stays collective-free. See
/// docs/straggler_mitigation.md for semantics and accuracy caveats.
enum class MitigationMode {
  /// Fully synchronous aggregation (the paper's protocol and the default):
  /// accounting is bit-identical to builds that predate mitigation.
  kStrict = 0,
  /// Return once W - max_stale_ranks ranks contribute within
  /// deadline_seconds; a late rank's contribution is dropped for the call
  /// (its gradient mass reappears in the next layer's rebuilt histograms),
  /// its delay moves off the round's critical path, and no rank is deferred
  /// more than staleness_bound consecutive calls. Trades bounded accuracy
  /// deviation for straggler immunity.
  kBoundedStaleness = 1,
  /// A rank delayed beyond speculation_threshold_seconds has its share of
  /// the op re-served by a deterministically chosen on-time backup; results
  /// stay exact at the price of duplicated traffic (charged as waste).
  kSpeculative = 2,
};

/// Histogram-payload compression applied underneath the collectives
/// (CodecSpec::mode of a CollectivePolicy, set from GbdtParams::compression).
/// `kOff` ships raw doubles and stays bit-identical to seed; the two sparse
/// modes are lossless (raw f64 bit patterns are preserved, including -0.0,
/// denormals, and NaN payloads); `kQuantized` trades a documented per-block
/// error bound for 16-bit values on the wire. See docs/wire_formats.md for
/// the frame layout and docs/cost_model.md for the pricing.
enum class CollectiveCompression {
  kOff = 0,
  /// Per-block dense/sparse switch; sparse blocks store absolute bin
  /// indices as varints plus the raw nonzero doubles.
  kSparse = 1,
  /// Like kSparse, but bin indices are gap-encoded (first index, then
  /// successive deltas minus one) before varint packing, so clustered
  /// nonzeros cost ~1 byte of index each. Never larger than kSparse.
  kSparseDelta = 2,
  /// Delta-indexed sparse layout with 16-bit linear quantization of the
  /// values: per block offset/scale doubles plus one u16 code per value.
  /// Lossy; max abs error <= (max-min)/65535/2 per block, reconstructed
  /// identically on every rank. Blocks holding non-finite values fall back
  /// to lossless dense-raw so injected NaN poison still propagates
  /// byte-exactly.
  kQuantized = 3,
};

}  // namespace vero

#endif  // VERO_COMMON_COLLECTIVE_MODES_H_
