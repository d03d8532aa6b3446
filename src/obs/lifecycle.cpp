#include "src/obs/lifecycle.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace essat::obs {

ConservationReport check_conservation(const std::vector<TraceRecord>& records,
                                      util::Time grace) {
  ConservationReport rep;
  if (records.empty()) return rep;
  const std::int64_t last_ns = records.back().t_ns;

  struct TxState {
    std::int64_t t_begin = 0;
    std::uint32_t expected = 0;
    std::uint32_t delivered = 0;
    std::uint32_t dropped = 0;
  };
  std::unordered_map<std::uint64_t, TxState> txs;  // channel tx id -> state
  for (const TraceRecord& r : records) {
    switch (r.trace_type()) {
      case TraceType::kChanTxBegin: {
        TxState& s = txs[r.a];
        s.t_begin = r.t_ns;
        s.expected = r.arg16;
        break;
      }
      case TraceType::kChanDeliver:
        ++txs[r.a].delivered;
        break;
      case TraceType::kChanDrop:
        ++txs[r.a].dropped;
        break;
      default:
        break;
    }
  }

  // Drain in sorted tx-id order: the map is a hash table, and the first
  // mismatch's detail string (below) must not depend on iteration order —
  // essat-deterministic-iteration would flag the raw range-for.
  std::vector<std::uint64_t> tx_ids;
  tx_ids.reserve(txs.size());
  for (const auto& kv : txs) tx_ids.push_back(kv.first);
  std::sort(tx_ids.begin(), tx_ids.end());
  for (const std::uint64_t tx_id : tx_ids) {
    const TxState& s = txs.find(tx_id)->second;
    if (s.t_begin == 0 && s.expected == 0) continue;  // begin outside trace
    if (s.t_begin > last_ns - grace.ns()) {
      ++rep.skipped_in_flight;
      continue;
    }
    ++rep.transmissions;
    rep.delivered += s.delivered;
    rep.dropped += s.dropped;
    if (s.delivered + s.dropped != s.expected) {
      ++rep.mismatched;
      rep.ok = false;
      if (rep.detail.empty()) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "tx %llu at t=%lld ns: expected %u arrivals, saw "
                      "%u delivered + %u dropped",
                      static_cast<unsigned long long>(tx_id),
                      static_cast<long long>(s.t_begin), s.expected,
                      s.delivered, s.dropped);
        rep.detail = buf;
      }
    }
  }
  return rep;
}

}  // namespace essat::obs
