#include "src/obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>

namespace essat::obs {

namespace {

const char* radio_state_name(unsigned s) {
  switch (s) {
    case 0: return "OFF";
    case 1: return "TURNING_ON";
    case 2: return "ON";
    case 3: return "TURNING_OFF";
  }
  return "?";
}

const char* category_of(TraceType t) {
  switch (t) {
    case TraceType::kEvPush:
    case TraceType::kEvPop:
    case TraceType::kEvCancel:
    case TraceType::kEvRearm:
      return "ev";
    case TraceType::kRadioState:
      return "radio";
    case TraceType::kMacEnqueue:
    case TraceType::kMacBackoffStart:
    case TraceType::kMacCcaDefer:
    case TraceType::kMacTxAttempt:
    case TraceType::kMacRetry:
    case TraceType::kMacSendOk:
    case TraceType::kMacSendFail:
    case TraceType::kMacAckTx:
    case TraceType::kMacRxDeliver:
    case TraceType::kMacRxDup:
      return "mac";
    case TraceType::kChanTxBegin:
    case TraceType::kChanDeliver:
    case TraceType::kChanDrop:
    case TraceType::kChanListen:
      return "chan";
    case TraceType::kEpochStart:
    case TraceType::kReportSubmit:
    case TraceType::kReportFold:
    case TraceType::kRootDeliver:
      return "query";
    case TraceType::kParentChange:
      return "route";
    case TraceType::kSleepStart:
    case TraceType::kSleepSkip:
      return "sleep";
    case TraceType::kFaultDown:
    case TraceType::kFaultUp:
      return "fault";
    case TraceType::kCount:
      break;
  }
  return "?";
}

// Perfetto track id for a record's node (-1 = the run-global "sim" track).
long tid_of(std::int32_t node) { return node < 0 ? 1L : node + 2L; }

class EventWriter {
 public:
  explicit EventWriter(std::ostream& out) : out_(out) {
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }
  void emit(const char* json) {
    out_ << (first_ ? "\n" : ",\n") << json;
    first_ = false;
  }
  void finish() { out_ << "\n]}\n"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

}  // namespace

void export_perfetto_json(const Tracer& tracer, std::ostream& out) {
  const std::vector<TraceRecord> records = tracer.snapshot();
  EventWriter w(out);
  char buf[512];

  // Track-name metadata: one row per node seen, plus the global track.
  std::vector<std::int32_t> nodes;
  for (const TraceRecord& r : records) {
    if (r.node >= 0) nodes.push_back(r.node);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  w.emit("{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"sim (global)\"}}");
  for (std::int32_t n : nodes) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%ld,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"node %d\"}}",
                  tid_of(n), n);
    w.emit(buf);
  }

  const std::int64_t t_first = records.empty() ? 0 : records.front().t_ns;
  const std::int64_t t_last = records.empty() ? 0 : records.back().t_ns;

  // Radio state records become duration slices per node; everything else is
  // an instant event on its node's track.
  struct StateEdge {
    std::int64_t t_ns;
    unsigned prev, next;
  };
  std::map<std::int32_t, std::vector<StateEdge>> radio_edges;

  for (const TraceRecord& r : records) {
    const TraceType t = r.trace_type();
    if (t == TraceType::kRadioState) {
      radio_edges[r.node].push_back(
          StateEdge{r.t_ns, static_cast<unsigned>(r.arg16 >> 8),
                    static_cast<unsigned>(r.arg16 & 0xff)});
      continue;
    }
    if (t == TraceType::kChanDrop) {
      std::snprintf(
          buf, sizeof buf,
          "{\"ph\":\"i\",\"pid\":1,\"tid\":%ld,\"ts\":%.3f,\"s\":\"t\","
          "\"name\":\"%s\",\"cat\":\"%s\",\"args\":{\"reason\":\"%s\","
          "\"tx_id\":%" PRIu64 ",\"prov\":%" PRIu64 "}}",
          tid_of(r.node), static_cast<double>(r.t_ns) / 1000.0,
          trace_type_name(t), category_of(t), drop_reason_name(r.drop_reason()),
          r.a, r.b);
    } else {
      std::snprintf(
          buf, sizeof buf,
          "{\"ph\":\"i\",\"pid\":1,\"tid\":%ld,\"ts\":%.3f,\"s\":\"t\","
          "\"name\":\"%s\",\"cat\":\"%s\",\"args\":{\"arg16\":%u,"
          "\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}",
          tid_of(r.node), static_cast<double>(r.t_ns) / 1000.0,
          trace_type_name(t), category_of(t),
          static_cast<unsigned>(r.arg16), r.a, r.b);
    }
    w.emit(buf);
  }

  for (const auto& [node, edges] : radio_edges) {
    auto slice = [&](std::int64_t from, std::int64_t to, unsigned state) {
      if (to < from) to = from;
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"X\",\"pid\":1,\"tid\":%ld,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"name\":\"radio:%s\",\"cat\":\"radio\"}",
                    tid_of(node), static_cast<double>(from) / 1000.0,
                    static_cast<double>(to - from) / 1000.0,
                    radio_state_name(state));
      w.emit(buf);
    };
    // The state before the first transition spans from the trace start.
    slice(t_first, edges.front().t_ns, edges.front().prev);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const std::int64_t end = i + 1 < edges.size() ? edges[i + 1].t_ns : t_last;
      slice(edges[i].t_ns, end, edges[i].next);
    }
  }
  w.finish();
}

void export_jsonl(const Tracer& tracer, std::ostream& out) {
  char buf[512];
  for (const TraceRecord& r : tracer.snapshot()) {
    const TraceType t = r.trace_type();
    if (t == TraceType::kChanDrop) {
      std::snprintf(buf, sizeof buf,
                    "{\"t_ns\":%" PRId64 ",\"type\":\"%s\",\"node\":%d,"
                    "\"arg16\":%u,\"a\":%" PRIu64 ",\"b\":%" PRIu64
                    ",\"reason\":\"%s\"}",
                    r.t_ns, trace_type_name(t), r.node,
                    static_cast<unsigned>(r.arg16), r.a, r.b,
                    drop_reason_name(r.drop_reason()));
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"t_ns\":%" PRId64 ",\"type\":\"%s\",\"node\":%d,"
                    "\"arg16\":%u,\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}",
                    r.t_ns, trace_type_name(t), r.node,
                    static_cast<unsigned>(r.arg16), r.a, r.b);
    }
    out << buf << "\n";
  }
}

}  // namespace essat::obs
