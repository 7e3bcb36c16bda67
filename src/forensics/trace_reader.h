// Reads lw JSONL traces back into typed records.
//
// The inverse of obs::TraceWriter (plus the per-run meta lines the bench
// CLI writes between runs): a tiny special-purpose parser for the flat
// one-object-per-line schema documented in docs/TRACE_FORMAT.md. It is NOT
// a general JSON parser — exactly the value shapes the writer produces
// (numbers, strings, and the one-level "run" header object) are accepted,
// and anything else throws TraceFormatError with the offending line
// number, which is what a forensic tool should do with a tampered trace.
//
// The reader is built for 100 MB traces: it scans the stream in chunks,
// parses each line in place as a string_view, and stores the vocabulary
// text of a record (layer, event, packet type, ...) as 1-byte interned ids
// instead of owned strings.
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace lw::forensics {

class TraceFormatError : public std::runtime_error {
 public:
  TraceFormatError(std::size_t line, const std::string& message)
      : std::runtime_error("trace line " + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// One parsed trace line: either a run header (bench meta line) or an
/// event. Unknown layer/event names parse successfully with
/// `kind_known = false` so the `check` linter can report them with a line
/// number instead of aborting at the first one.
struct TraceRecord {
  /// The text-valued fields. Absent and empty read the same ("").
  enum class Text : std::uint8_t {
    kPoint,      // run header: sweep point label
    kLayer,      // "phy", ..., "span"
    kName,       // event name; "begin"/"end" on span lines
    kPkt,        // packet type ("DATA", ...) when the event had a packet
    kSuspicion,  // "fab"/"drop"/"anom" on mon.suspicion lines
    kDefense,    // backend attribution on non-LITEWORP mon.* lines
    kSpanKind,   // "route_session", ...
    kOutcome,    // span.end outcome
  };
  static constexpr std::size_t kTextFields = 8;

  // Fields are grouped by size, not by line shape, so the record packs
  // without padding.
  std::size_t line = 0;
  Time t = 0.0;
  double value = 0.0;
  /// Run header: the replica's seed.
  std::uint64_t run_seed = 0;

  // ---- Packet fields (has_packet) ----
  SeqNo seq = 0;
  LineageId lineage = 0;

  // ---- Span fields (layer "span": SpanBuilder begin/end lines) ----
  std::uint64_t sid = 0;
  /// Parent sid; 0 = root span.
  std::uint64_t parent = 0;
  /// span.end only: duration and retries.
  double dur = 0.0;
  std::uint64_t retries = 0;
  /// Alert-round latency decomposition (span.end, complete rounds only).
  double observe = 0.0;
  double corroborate = 0.0;
  double isolate = 0.0;

  NodeId node = kInvalidNode;
  NodeId peer = kInvalidNode;
  /// With has_packet: the packet's originator.
  NodeId origin = kInvalidNode;

  obs::EventKind kind = obs::EventKind::kPhyTx;
  bool is_run_header = false;
  bool kind_known = false;
  bool has_value = false;
  bool has_packet = false;
  /// True for span.begin / span.end lines; name() is "begin" or "end",
  /// `kind_known` stays false (spans are not point events).
  bool is_span = false;
  /// False when span_kind() is not in the SpanKind vocabulary (check
  /// reports it).
  bool span_kind_known = false;
  bool has_dur = false;
  bool has_phases = false;

  std::string_view point() const { return text(Text::kPoint); }
  std::string_view layer() const { return text(Text::kLayer); }
  std::string_view name() const { return text(Text::kName); }
  std::string_view pkt_type() const { return text(Text::kPkt); }
  /// Empty except on mon.suspicion lines.
  std::string_view suspicion() const { return text(Text::kSuspicion); }
  /// Empty means LITEWORP (the writer omits the key for the default so
  /// legacy traces parse unchanged).
  std::string_view defense() const { return text(Text::kDefense); }
  std::string_view span_kind() const { return text(Text::kSpanKind); }
  std::string_view outcome() const { return text(Text::kOutcome); }

  /// Trace vocabulary is stored as an interned id; any other text is kept
  /// verbatim in a block shared by the record's copies.
  std::string_view text(Text field) const;

  /// The event as the in-process sinks would have seen it (packet pointer
  /// is null — offline consumers use the flattened fields above).
  obs::Event to_event() const;

 private:
  friend bool parse_trace_line(std::string_view line, std::size_t line_no,
                               TraceRecord* out);

  void set_text(Text field, std::string_view value);

  /// Per field: 0 = empty, 0xFF = stored in verbatim_, else the
  /// vocabulary id.
  std::array<std::uint8_t, kTextFields> text_ids_{};
  std::shared_ptr<const std::array<std::string, kTextFields>> verbatim_;
};

// The record size sets the memory of reading a 10^6-line trace.
static_assert(sizeof(TraceRecord) <= 160, "TraceRecord grew");

/// Parses one JSONL line (without trailing newline). Blank lines return
/// false. Throws TraceFormatError on malformed input.
bool parse_trace_line(std::string_view line, std::size_t line_no,
                      TraceRecord* out);

/// Reads a whole trace stream. Throws TraceFormatError on the first
/// malformed line.
std::vector<TraceRecord> read_trace(std::istream& in);

/// All records belonging to one packet lineage, in trace order: the
/// packet's causal chain (origin transmit, forwards, guard overhears,
/// wormhole tunnel/replay hops, delivery).
std::vector<TraceRecord> lineage_chain(const std::vector<TraceRecord>& records,
                                       LineageId lineage);

/// Human-readable one-liner for a record (`lw-trace follow` output).
std::string describe(const TraceRecord& record);

}  // namespace lw::forensics
