#include "forensics/perfetto.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/json.h"

namespace lw::forensics {
namespace {

using util::append_escaped;
using util::append_fixed;
using util::append_uint;

/// Fixed per-layer track ids so exports are comparable across traces.
int layer_tid(std::string_view layer) {
  static constexpr std::pair<std::string_view, int> kTracks[] = {
      {"phy", 1}, {"mac", 2}, {"nbr", 3}, {"route", 4},
      {"mon", 5}, {"atk", 6}, {"flt", 7}, {"span", 8},
  };
  for (const auto& [name, tid] : kTracks) {
    if (layer == name) return tid;
  }
  return 9;  // unknown layers share one catch-all track
}

/// The traceEvents array, built in a string and handed to the stream in
/// ~1 MB writes. One entry per line for greppable output (the schema
/// allows any whitespace).
class EventArray {
 public:
  explicit EventArray(std::ostream& out) : out_(out) {
    buffer_.reserve(kFlushBytes + 4096);
    buffer_ += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }

  /// Starts the next entry; the caller appends its JSON object to the
  /// returned buffer.
  std::string& next() {
    if (buffer_.size() >= kFlushBytes) flush();
    buffer_ += first_ ? "\n" : ",\n";
    first_ = false;
    return buffer_;
  }

  void close() {
    buffer_ += "\n]}\n";
    flush();
  }

 private:
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

  void flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  std::ostream& out_;
  std::string buffer_;
  bool first_ = true;
};

/// Comma-separates the members of one "args" object.
class Args {
 public:
  explicit Args(std::string& out) : out_(out) {}
  std::string& key(std::string_view name) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += name;
    out_ += "\":";
    return out_;
  }

 private:
  std::string& out_;
  bool first_ = true;
};

/// Last sighting of a packet lineage (flow-arrow source anchor).
struct Hop {
  NodeId node = kInvalidNode;
  int tid = 0;
  double ts_us = 0.0;
  int count = 0;
};

/// One endpoint of a flow arrow: {"name":"lin L","cat":"flow","ph":...}.
void append_flow(std::string& out, LineageId lineage, int run_index,
                 int hop_count, bool start, double ts_us, NodeId node,
                 int tid) {
  out += "{\"name\":\"lin ";
  append_uint(out, lineage);
  out += start ? "\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":\"r"
               : "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"r";
  util::append_int(out, run_index);
  out += ".l";
  append_uint(out, lineage);
  out += ".h";
  util::append_int(out, hop_count);
  out += "\",\"ts\":";
  append_fixed(out, ts_us, 3);
  out += ",\"pid\":";
  append_uint(out, node);
  out += ",\"tid\":";
  util::append_int(out, tid);
  out += '}';
}

}  // namespace

void export_perfetto(const std::vector<TraceRecord>& records,
                     std::ostream& out, const PerfettoOptions& options) {
  EventArray events(out);
  // Tracks already named: (node << 4) | tid, tid 0 = the node's process.
  std::unordered_set<std::uint64_t> named;
  int run_index = 0;
  double offset_us = 0.0;  // pushes each run segment past the previous one
  double max_ts_us = 0.0;  // high-water of emitted slice end times
  std::unordered_map<LineageId, Hop> last_hop;

  auto ensure_track = [&](NodeId node, int tid, std::string_view label) {
    const std::uint64_t process = static_cast<std::uint64_t>(node) << 4;
    if (named.insert(process).second) {
      std::string& meta = events.next();
      meta += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
      append_uint(meta, node);
      meta += ",\"args\":{\"name\":\"node ";
      append_uint(meta, node);
      meta += "\"}}";
    }
    if (named.insert(process | static_cast<std::uint64_t>(tid)).second) {
      std::string& meta = events.next();
      meta += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      append_uint(meta, node);
      meta += ",\"tid\":";
      util::append_int(meta, tid);
      meta += ",\"args\":{\"name\":\"";
      append_escaped(meta, label);
      meta += "\"}}";
    }
  };

  for (const TraceRecord& record : records) {
    if (record.is_run_header) {
      ++run_index;
      offset_us = max_ts_us;
      last_hop.clear();
      continue;
    }
    const double ts = offset_us + record.t * 1e6;

    if (record.is_span) {
      ensure_track(record.node, 8, "span");
      // Nestable async b/e keyed by sid: a node's concurrent spans overlap
      // without the LIFO constraint synchronous B/E stacks impose.
      const bool begin = record.name() == "begin";
      std::string& body = events.next();
      body += "{\"name\":\"";
      append_escaped(body, record.span_kind());
      body += begin ? "\",\"cat\":\"span\",\"ph\":\"b\",\"id\":\"r"
                    : "\",\"cat\":\"span\",\"ph\":\"e\",\"id\":\"r";
      util::append_int(body, run_index);
      body += ".s";
      append_uint(body, record.sid);
      body += "\",\"ts\":";
      append_fixed(body, ts, 3);
      body += ",\"pid\":";
      append_uint(body, record.node);
      body += ",\"tid\":8,\"args\":{";
      Args args(body);
      if (begin) {
        append_uint(args.key("sid"), record.sid);
        if (record.parent != 0) append_uint(args.key("parent"), record.parent);
        if (record.lineage != 0) append_uint(args.key("lin"), record.lineage);
        if (record.peer != kInvalidNode) {
          append_uint(args.key("peer"), record.peer);
        }
      } else {
        util::append_quoted(args.key("outcome"), record.outcome());
        if (record.retries != 0) {
          append_uint(args.key("retries"), record.retries);
        }
        if (record.has_phases) {
          append_fixed(args.key("observe"), record.observe, 9);
          append_fixed(args.key("corroborate"), record.corroborate, 9);
          append_fixed(args.key("isolate"), record.isolate, 9);
        }
      }
      body += "}}";
      max_ts_us = std::max(max_ts_us, ts);
      continue;
    }

    const int tid = layer_tid(record.layer());
    ensure_track(record.node, tid, record.layer());
    std::string& body = events.next();
    body += "{\"name\":\"";
    append_escaped(body, record.layer());
    body += '.';
    append_escaped(body, record.name());
    body += "\",\"ph\":\"X\",\"ts\":";
    append_fixed(body, ts, 3);
    body += ",\"dur\":";
    append_fixed(body, options.point_slice_us, 3);
    body += ",\"pid\":";
    append_uint(body, record.node);
    body += ",\"tid\":";
    util::append_int(body, tid);
    body += ",\"args\":{";
    Args args(body);
    if (record.peer != kInvalidNode) {
      append_uint(args.key("peer"), record.peer);
    }
    if (record.has_packet) {
      util::append_quoted(args.key("pkt"), record.pkt_type());
      append_uint(args.key("origin"), record.origin);
      append_uint(args.key("seq"), record.seq);
      append_uint(args.key("lin"), record.lineage);
    }
    if (!record.suspicion().empty()) {
      util::append_quoted(args.key("sus"), record.suspicion());
    }
    if (!record.defense().empty()) {
      util::append_quoted(args.key("def"), record.defense());
    }
    if (record.has_value) {
      util::append_general(args.key("value"), record.value, 9);
    }
    body += "}}";
    max_ts_us = std::max(max_ts_us, ts + options.point_slice_us);

    // Flow arrows: consecutive same-lineage packet events on different
    // nodes are one frame hop (forward, overhear, or wormhole tunnel).
    if (record.has_packet && record.lineage != 0) {
      Hop& hop = last_hop[record.lineage];
      if (hop.node != kInvalidNode && hop.node != record.node) {
        ++hop.count;
        append_flow(events.next(), record.lineage, run_index, hop.count,
                    /*start=*/true, hop.ts_us, hop.node, hop.tid);
        append_flow(events.next(), record.lineage, run_index, hop.count,
                    /*start=*/false, ts, record.node, tid);
      }
      hop = Hop{record.node, tid, ts, hop.count};
    }
  }
  events.close();
}

}  // namespace lw::forensics
