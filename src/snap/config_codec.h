// Binary codec for harness::ScenarioConfig — the "recipe" half of a trial
// snapshot (the other half is the replayed component state, see trial.h).
//
// Every field that influences the simulation is encoded inside one "SCFG"
// section, in the order of each struct's field list in config_codec.cpp
// (see field_codec.h). That order is not always declaration order:
// ScenarioConfig lists `trace` before `faults`. The sole exclusion is
// TraceSpec::sink, a process-local std::function; a restored config
// therefore reproduces the exact event stream but not in-process trace
// consumers. The encoding is versioned by snap::kFormatVersion: any
// change to this codec is a format bump, and old snapshots are simply
// re-captured (they are caches of deterministic computations, never the
// only copy of anything).
#pragma once

#include <cstdint>
#include <vector>

namespace essat::harness {
struct ScenarioConfig;
}  // namespace essat::harness

namespace essat::snap {

class Serializer;
class Deserializer;

// Writes `config` as one "SCFG" section.
void save_scenario_config(Serializer& out, const harness::ScenarioConfig& config);

// Reads one "SCFG" section. Throws SnapError on tag/length mismatch.
harness::ScenarioConfig load_scenario_config(Deserializer& in);

// Convenience wrappers for fingerprinting (perfbench's config digest) and
// round-trip checks.
std::vector<std::uint8_t> scenario_config_to_bytes(
    const harness::ScenarioConfig& config);
harness::ScenarioConfig scenario_config_from_bytes(const std::uint8_t* data,
                                                   std::size_t size);

}  // namespace essat::snap
