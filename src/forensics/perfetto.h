// Chrome trace-event exporter: lw JSONL traces -> Perfetto / chrome://tracing.
//
// Maps the simulator's flat trace onto the Chrome trace-event JSON schema
// (the legacy format both ui.perfetto.dev and chrome://tracing open
// directly):
//
//   - One "process" per node (pid = NodeId) with one "thread" per layer
//     (phy, mac, nbr, route, mon, atk, flt, plus a "span" track), named via
//     M metadata events.
//   - Point events become short X slices (default 1 us) so they stay
//     visible at any zoom; packet/suspicion/defense fields land in args.
//   - SpanBuilder begin/end lines become nestable async b/e pairs keyed by
//     sid on the node's span track — async events tolerate the overlapping,
//     non-LIFO spans a node legitimately produces (two concurrent route
//     sessions, say), which synchronous B/E stacks would reject.
//   - Consecutive same-lineage packet events on *different* nodes get s/f
//     flow arrows (id = lineage), so a frame's hop-by-hop path — including
//     its detour through a wormhole tunnel — draws as connected arrows.
//   - Multi-run traces (bench meta "run" headers reset the sim clock) are
//     laid out back to back: each segment's timestamps are offset past the
//     previous segment's end so every track stays monotone.
//
// Timestamps are microseconds (sim seconds * 1e6), the unit the schema
// mandates.
#pragma once

#include <ostream>
#include <vector>

#include "forensics/trace_reader.h"

namespace lw::forensics {

struct PerfettoOptions {
  /// Synthetic duration (in us) given to point events so they render as
  /// visible slices instead of zero-width ticks.
  double point_slice_us = 1.0;
};

/// Writes the records as one Chrome trace-event JSON document
/// (`{"traceEvents":[...],"displayTimeUnit":"ms"}`), in ~1 MB writes.
/// Deterministic: output bytes depend only on the records and options.
/// Names and string args are JSON-escaped, so any accepted trace exports
/// as valid JSON.
void export_perfetto(const std::vector<TraceRecord>& records,
                     std::ostream& out, const PerfettoOptions& options = {});

}  // namespace lw::forensics
