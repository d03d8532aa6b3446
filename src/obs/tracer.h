// obs::Tracer — per-run ring buffer of fixed-size trace records, plus the
// ESSAT_TRACE macro every instrumented substrate emits through.
//
// Zero-cost-when-off discipline (the bsnes tracer idiom): a component never
// owns tracing state — it reaches the run's Tracer through its Simulator
// (sim.tracer()), and the ESSAT_TRACE macro guards the whole emission,
// argument evaluation included, behind one `tracer != nullptr` test. With
// no tracer installed that is a single always-not-taken predictable branch;
// with -DESSAT_TRACING=OFF the macro compiles to nothing at all.
//
// When a tracer IS installed, emit() tests the TraceSpec's type mask and
// appends to a preallocated ring: no allocation, no locks (a run is
// single-threaded), overwrite-oldest on overflow with a dropped-record
// count so truncation is always visible. Tracing only records: it
// schedules no event, so no TraceSpec value changes a trial.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/trace_record.h"
#include "src/util/time.h"

namespace essat::obs {

class Tracer;

// Declarative per-run tracing configuration, carried on ScenarioConfig so a
// trial can be traced and its exporters driven without touching any code.
struct TraceSpec {
  bool enabled = false;
  // Ring capacity in records (32 B each); rounded up to a power of two.
  std::size_t buffer_cap = 1 << 20;
  // Bit per TraceType (see trace_bit / kPacketLifecycleTypes).
  std::uint64_t type_mask = kAllTraceTypes;
  // Export destinations ("{seed}" is substituted with the trial seed);
  // empty = no file export.
  std::string perfetto_path;
  std::string jsonl_path;
  // In-process consumer, invoked with the finished tracer after the run
  // (before teardown). Used by tests and embedding harnesses.
  std::function<void(const Tracer&)> sink;
};

class Tracer {
 public:
  explicit Tracer(const TraceSpec& spec);

  // Appends a record if its type is in the mask. Hot path: one test and
  // one 32-byte store; never allocates.
  void emit(TraceType type, util::Time t, std::int32_t node,
            std::uint16_t arg16, std::uint64_t a, std::uint64_t b) {
    if (!(type_mask_ >> static_cast<int>(type) & 1)) return;
    ring_[head_ & mask_] = TraceRecord::make(type, t, node, arg16, a, b);
    ++head_;
  }

  // Records currently held (<= capacity).
  std::size_t size() const {
    return head_ < ring_.size() ? head_ : ring_.size();
  }
  std::size_t capacity() const { return ring_.size(); }
  // Total records accepted past the type mask; records beyond capacity()
  // overwrote the oldest.
  std::uint64_t emitted() const { return head_; }
  std::uint64_t overwritten() const {
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
  }

  // The retained records in emission order (oldest first). Unwraps the
  // ring; O(size) copy — an export/teardown operation, not a hot path.
  std::vector<TraceRecord> snapshot() const;

 private:
  std::vector<TraceRecord> ring_;
  std::uint64_t head_ = 0;  // total accepted records; ring index = head & mask
  std::uint64_t mask_ = 0;
  std::uint64_t type_mask_ = kAllTraceTypes;
};

}  // namespace essat::obs

// ESSAT_TRACE(sim_like, type, node, arg16, a, b)
//
// `sim_like` is anything with a tracer() accessor returning obs::Tracer*
// (normally the component's sim::Simulator reference) and a now() accessor
// for the timestamp. Compiled out entirely under -DESSAT_TRACING=OFF
// (ESSAT_TRACING_ENABLED 0); otherwise the disabled-tracer cost is the one
// predictable null test — the argument expressions are never evaluated.
#ifndef ESSAT_TRACING_ENABLED
#define ESSAT_TRACING_ENABLED 1
#endif

#if ESSAT_TRACING_ENABLED
#define ESSAT_TRACE(sim_like, type, node, arg16, a, b)                     \
  do {                                                                     \
    ::essat::obs::Tracer* essat_trace_tr_ = (sim_like).tracer();           \
    if (essat_trace_tr_ != nullptr) {                                      \
      essat_trace_tr_->emit((type), (sim_like).now(), (node), (arg16),     \
                            (a), (b));                                     \
    }                                                                      \
  } while (0)
#else
#define ESSAT_TRACE(sim_like, type, node, arg16, a, b) \
  do {                                                 \
  } while (0)
#endif

namespace essat::obs {
// Whether the library was built with tracing support compiled in; harnesses
// warn when a TraceSpec asks for tracing that cannot happen.
inline constexpr bool kTracingCompiledIn = ESSAT_TRACING_ENABLED != 0;
}  // namespace essat::obs
