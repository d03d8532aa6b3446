// Versioned snapshot container.
//
// A Snapshot is the unit everything above the serializer exchanges: a kind
// tag (full trial state is the only kind), a format version, and an opaque
// payload produced by a Serializer. to_bytes() frames it with a magic
// string and a CRC-32 of the payload so readers can reject foreign files,
// version skew, and torn or corrupted writes with a precise error instead
// of garbage state.
//
// Versioning policy (documented in README "Snapshots"):
// kFormatVersion bumps on ANY change to the payload encoding of any
// component — there are no in-place migrations. A snapshot is a cache of a
// deterministic computation, never the only copy of data, so the cheap and
// correct response to skew is "re-run the prefix", which from_bytes() forces
// by refusing mismatched versions.
#pragma once

#include <cstdint>
#include <vector>

#include "src/snap/serializer.h"

namespace essat::snap {

// Version 11: a transmission ends in one event. The channel's sender-side
// end event calls the MAC's tx-end, so CMAC loses its tx-end timer and
// writes the tx ids of its frame and its ACK on the air instead, and the
// EVTQ digest loses the MAC's tx-end entries (every later seq is smaller).
//
// Version 10: a trial keeps per-node state only for its roster, the t = 0
// tree's members (util::SlotIndex). TREE writes the id range and one entry
// per roster slot, each led by its node id, instead of one per node; CHAN
// writes one per roster slot and its dense link-stat rows by sender slot;
// TRST's stack list has one entry per roster slot; FENG's down flags are
// one per member; and a Gilbert-Elliott chain never starts for a link to
// a node outside the roster.
//
// Version 9: the link models' draws are keyed by (seed, link[, frame]), so
// a model holds seeds instead of streams. LMSH writes its seed instead of
// its per-link cache and two util::Rng states (the cache is a function of
// the seed); LMGE writes its seed and chain states without Rng text; LMPS
// writes its seed instead of a util::Rng.
//
// Version 8: the axes no figure runs are gone. SCFG loses the PRR-trace
// table and its default, SINR capture's parameters, ChurnSpec's restart
// flag, the battery and drift specs and the waypoint traces (114 bytes of
// a config that leaves them at their defaults). FENG loses each node's
// battery flag and RADI the radio's lifetime energy.
//
// Version 7: only the routing tree's members at t = 0 have a radio and a
// MAC. TRST writes a presence flag before each node's stack, and a node
// outside the tree writes nothing more. util::FlatMap places a key by the
// high bits of key x phi instead of the low bits, so the sparse link-stat
// and MAC duplicate tables serialize a different slot layout.
//
// Version 6: tracing only records. SCFG's TraceSpec keeps enabled,
// buffer_cap, type_mask and the two export paths, and loses the node
// filter, the time window, the sampling period, the series cap and the
// one-seed gate. The per-node sampler that the period switched on scheduled
// its own probe events, so a sampled trial's TRST and RunMetrics differed
// from an untraced one's; now no trace setting changes a trial.
//
// Version 5: the distributed tree setup is gone (use_distributed_setup,
// TreeSetupProtocol and the kSetup/kJoin/kRankReport/kDissemination
// packets). SCFG loses that bool, TRST loses the setup-protocol flag, and
// the PacketType values and payload tags renumber (kAtim 5 -> 2,
// kPhaseRequest 6 -> 3).
inline constexpr std::uint32_t kFormatVersion = 11;

enum class SnapshotKind : std::uint32_t {
  kTrial = 1,  // full mid-run simulator state + scenario config
};

const char* snapshot_kind_name(SnapshotKind kind);

struct Snapshot {
  SnapshotKind kind = SnapshotKind::kTrial;
  std::uint32_t version = kFormatVersion;
  std::vector<std::uint8_t> payload;

  // Framed wire form: magic, version, kind, payload length, payload bytes,
  // CRC-32 of the payload. Deterministic given the payload.
  std::vector<std::uint8_t> to_bytes() const;

  // Parses and validates a framed snapshot. Throws SnapError on bad magic,
  // version mismatch, unknown kind, truncation, or CRC failure.
  static Snapshot from_bytes(const std::uint8_t* data, std::size_t size);
  static Snapshot from_bytes(const std::vector<std::uint8_t>& buf) {
    return from_bytes(buf.data(), buf.size());
  }
};

}  // namespace essat::snap
