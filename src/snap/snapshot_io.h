// File I/O for snapshots — the ONLY snap translation unit that touches the
// host filesystem. Keeping every open/rename/remove here (and allowlisting
// exactly this TU in essat-tidy's host-environment checks) pins the rest of
// the snap layer, which runs inside trials, to the simulator's virtual
// world: a fixture test asserts that sim-side snap code stays banned from
// host time.
#pragma once

#include <string>

#include "src/snap/snapshot.h"

namespace essat::snap {

// Reads and validates a framed snapshot. Throws SnapError naming the path
// if the file cannot be opened or read (a directory, say) or does not hold
// a valid snapshot.
Snapshot read_snapshot_file(const std::string& path);

// Writes the framed snapshot via a same-directory temporary + rename, so
// readers never observe a half-written file. Throws SnapError on any I/O
// failure and leaves no temporary behind.
void write_snapshot_file(const std::string& path, const Snapshot& snap);

}  // namespace essat::snap
