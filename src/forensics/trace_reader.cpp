#include "forensics/trace_reader.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "obs/span.h"
#include "packet/packet.h"

namespace lw::forensics {
namespace {

constexpr std::uint8_t kVerbatimId = 0xFF;

/// Every string the writers emit as a value, interned to 1-byte ids (0 is
/// the empty string), plus a (layer, event) -> EventKind table.
class Vocabulary {
 public:
  static const Vocabulary& get() {
    static const Vocabulary vocabulary;
    return vocabulary;
  }

  /// The id of `text`, or kVerbatimId when it is not vocabulary.
  std::uint8_t find(std::string_view text) const {
    for (std::size_t slot = hash(text);; slot = (slot + 1) % kSlots) {
      const std::uint8_t id = slots_[slot];
      if (id == 0) return text.empty() ? 0 : kVerbatimId;
      if (names_[id] == text) return id;
    }
  }

  std::string_view name(std::uint8_t id) const { return names_[id]; }

  bool event_kind(std::uint8_t layer, std::uint8_t event,
                  obs::EventKind* out) const {
    if (layer >= kMaxIds || event >= kMaxIds) return false;
    const std::uint8_t code = kinds_[layer][event];
    if (code == 0) return false;
    *out = static_cast<obs::EventKind>(code - 1);
    return true;
  }

 private:
  static constexpr std::size_t kSlots = 512;
  static constexpr std::size_t kMaxIds = 128;

  Vocabulary() {
    names_.push_back("");
    for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
      const auto kind = static_cast<obs::EventKind>(i);
      const std::uint8_t layer = add(obs::to_string(obs::layer_of(kind)));
      kinds_[layer][add(obs::to_string(kind))] =
          static_cast<std::uint8_t>(i + 1);
    }
    for (const char* name : {"span", "begin", "end", "fab", "drop", "anom"}) {
      add(name);
    }
    for (int type = 0; type < 256; ++type) {
      const char* name = pkt::to_string(static_cast<pkt::PacketType>(type));
      if (std::strcmp(name, "?") != 0) add(name);
    }
    for (const auto tag : {obs::DefenseTag::kLiteworp, obs::DefenseTag::kLeash,
                           obs::DefenseTag::kZScore, obs::DefenseTag::kNone}) {
      add(obs::to_string(tag));
    }
    for (std::size_t i = 0; i < obs::kSpanKindCount; ++i) {
      add(obs::to_string(static_cast<obs::SpanKind>(i)));
    }
    for (const char* outcome : obs::kSpanOutcomes) add(outcome);
    assert(names_.size() <= kMaxIds);
  }

  static std::size_t hash(std::string_view text) {
    std::uint32_t h = 2166136261u;  // FNV-1a
    for (const char c : text) {
      h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    }
    return h % kSlots;
  }

  std::uint8_t add(std::string_view text) {
    const std::uint8_t found = find(text);
    if (found != kVerbatimId) return found;
    const auto id = static_cast<std::uint8_t>(names_.size());
    names_.push_back(text);
    std::size_t slot = hash(text);
    while (slots_[slot] != 0) slot = (slot + 1) % kSlots;
    slots_[slot] = id;
    return id;
  }

  std::vector<std::string_view> names_;
  std::array<std::uint8_t, kSlots> slots_{};
  /// [layer id][event id] -> EventKind + 1; 0 = no such event.
  std::array<std::array<std::uint8_t, kMaxIds>, kMaxIds> kinds_{};
};

/// Cursor over one line; fails with TraceFormatError carrying the line no.
/// Strings without escapes come back as views into the line itself.
class LineParser {
 public:
  LineParser(std::string_view text, std::size_t line_no)
      : text_(text), line_(line_no) {}

  [[noreturn]] void fail(const std::string& message) const {
    throw TraceFormatError(line_, message);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  /// A backslash takes the next byte literally (so \" and \\ work); the
  /// writers never emit other escapes.
  std::string_view string_value() {
    expect('"');
    const std::size_t start = pos_;
    while (!at_end() && text_[pos_] != '"' && text_[pos_] != '\\') ++pos_;
    if (peek() == '"') {
      ++pos_;
      return text_.substr(start, pos_ - 1 - start);
    }
    unescaped_.assign(text_.data() + start, pos_ - start);
    while (!at_end() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (at_end()) fail("dangling escape");
        c = text_[pos_++];
      }
      unescaped_ += c;
    }
    expect('"');
    return unescaped_;
  }

  double number_value() { return to_double(number_token()); }

  /// An unsigned field. Digit strings parse exactly; any other number
  /// (exponent, fraction, sign) truncates toward zero and must land in
  /// [0, max].
  std::uint64_t unsigned_value(std::uint64_t max) {
    const std::string_view token = number_token();
    std::uint64_t value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc{} && ptr == end) {
      if (value > max) out_of_range(token);
      return value;
    }
    const double real = to_double(token);
    // 2^64 as a double; max + 1 is exact for every max used here.
    const double limit = max == UINT64_MAX ? 18446744073709551616.0
                                           : static_cast<double>(max) + 1.0;
    if (!(real > -1.0 && real < limit)) out_of_range(token);
    return static_cast<std::uint64_t>(real);
  }

 private:
  std::string_view number_token() {
    const std::size_t start = pos_;
    while (!at_end()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a number");
    return text_.substr(start, pos_ - start);
  }

  /// strtod's decimal grammar (a leading '+' included), but finite only:
  /// an overflow is rejected, an underflow reads as strtod reads it.
  double to_double(std::string_view token) const {
    std::string_view digits = token;
    if (digits.size() > 1 && digits[0] == '+' && digits[1] != '-' &&
        digits[1] != '+') {
      digits.remove_prefix(1);
    }
    double value = 0.0;
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
    const bool overflow = ec == std::errc::result_out_of_range;
    if (ptr != end || (ec != std::errc{} && !overflow)) {
      fail("bad number '" + std::string(token) + "'");
    }
    if (overflow) {
      const std::string copy(digits);
      value = std::strtod(copy.c_str(), nullptr);
      if (!std::isfinite(value)) out_of_range(token);
    }
    return value;
  }

  [[noreturn]] void out_of_range(std::string_view token) const {
    fail("number out of range '" + std::string(token) + "'");
  }

  std::string_view text_;
  std::size_t line_;
  std::size_t pos_ = 0;
  std::string unescaped_;
};

enum class Key : std::uint8_t {
  kUnknown, kRun, kT, kLayer, kEvent, kNode, kPeer, kPkt, kOrigin, kSeq,
  kLin, kSus, kDef, kValue, kSpan, kSid, kParent, kDur, kOutcome, kRetries,
  kObserve, kCorroborate, kIsolate,
};

Key key_of(std::string_view key) {
  switch (key.size()) {
    case 1:
      return key == "t" ? Key::kT : Key::kUnknown;
    case 3:
      if (key == "pkt") return Key::kPkt;
      if (key == "seq") return Key::kSeq;
      if (key == "lin") return Key::kLin;
      if (key == "sus") return Key::kSus;
      if (key == "def") return Key::kDef;
      if (key == "sid") return Key::kSid;
      if (key == "dur") return Key::kDur;
      if (key == "run") return Key::kRun;
      return Key::kUnknown;
    case 4:
      if (key == "node") return Key::kNode;
      if (key == "peer") return Key::kPeer;
      if (key == "span") return Key::kSpan;
      return Key::kUnknown;
    case 5:
      if (key == "layer") return Key::kLayer;
      if (key == "event") return Key::kEvent;
      if (key == "value") return Key::kValue;
      return Key::kUnknown;
    case 6:
      if (key == "origin") return Key::kOrigin;
      if (key == "parent") return Key::kParent;
      return Key::kUnknown;
    case 7:
      if (key == "outcome") return Key::kOutcome;
      if (key == "retries") return Key::kRetries;
      if (key == "observe") return Key::kObserve;
      if (key == "isolate") return Key::kIsolate;
      return Key::kUnknown;
    case 11:
      return key == "corroborate" ? Key::kCorroborate : Key::kUnknown;
    default:
      return Key::kUnknown;
  }
}

using Text = TraceRecord::Text;

/// Parses the "run" object through the end of the line; returns the point
/// label.
std::string parse_run_header(LineParser& parser, TraceRecord* out) {
  out->is_run_header = true;
  std::string point;
  parser.expect('{');
  bool first = true;
  while (!parser.consume('}')) {
    if (!first) parser.expect(',');
    first = false;
    const std::string_view key = parser.string_value();
    parser.expect(':');
    if (key == "point") {
      point = parser.string_value();
    } else if (key == "seed") {
      out->run_seed = parser.unsigned_value(UINT64_MAX);
    } else {
      parser.fail("unknown run-header key '" + std::string(key) + "'");
    }
  }
  parser.expect('}');
  if (!parser.at_end()) parser.fail("trailing characters");
  return point;
}

/// Record storage that never copies a filled block: records go into
/// blocks of kBlockRecords, and take() moves them into one exact-size
/// vector, releasing each block as soon as it is emptied. So reading n
/// records peaks at about n + one block, not at the 2n a growing vector
/// holds while it reallocates. Blocks are larger than the 32 MB cap of
/// glibc's mmap threshold, so a released block goes straight back to the
/// OS.
class RecordBlocks {
 public:
  void push(TraceRecord&& record) {
    if (blocks_.empty() || blocks_.back().size() == kBlockRecords) {
      blocks_.emplace_back();
      // The first block grows on demand so short traces stay small.
      if (blocks_.size() > 1) blocks_.back().reserve(kBlockRecords);
    }
    blocks_.back().push_back(std::move(record));
  }

  std::vector<TraceRecord> take() {
    if (blocks_.size() == 1) return std::move(blocks_.front());
    std::vector<TraceRecord> records;
    std::size_t total = 0;
    for (const auto& block : blocks_) total += block.size();
    records.reserve(total);
    for (auto& block : blocks_) {
      records.insert(records.end(), std::make_move_iterator(block.begin()),
                     std::make_move_iterator(block.end()));
      std::vector<TraceRecord>().swap(block);
    }
    return records;
  }

 private:
  static constexpr std::size_t kBlockRecords =
      (std::size_t{48} << 20) / sizeof(TraceRecord);
  std::vector<std::vector<TraceRecord>> blocks_;
};

}  // namespace

std::string_view TraceRecord::text(Text field) const {
  const std::uint8_t id = text_ids_[static_cast<std::size_t>(field)];
  if (id == kVerbatimId) return (*verbatim_)[static_cast<std::size_t>(field)];
  return Vocabulary::get().name(id);
}

void TraceRecord::set_text(Text field, std::string_view value) {
  const auto index = static_cast<std::size_t>(field);
  const std::uint8_t id = Vocabulary::get().find(value);
  text_ids_[index] = id;
  if (id != kVerbatimId) return;
  // Copy on write: copies of this record keep their own text.
  using Strings = std::array<std::string, kTextFields>;
  auto verbatim = verbatim_ ? std::make_shared<Strings>(*verbatim_)
                            : std::make_shared<Strings>();
  (*verbatim)[index] = value;
  verbatim_ = std::move(verbatim);
}

obs::Event TraceRecord::to_event() const {
  obs::Event event;
  event.t = t;
  event.kind = kind;
  event.node = node;
  event.peer = peer;
  event.value = value;
  const std::string_view sus = suspicion();
  event.detail = sus == "drop"   ? obs::kSuspicionDrop
                 : sus == "anom" ? obs::kSuspicionAnomaly
                                 : obs::kSuspicionFabrication;
  obs::DefenseTag tag = obs::DefenseTag::kLiteworp;
  if (obs::parse_defense_tag(defense(), &tag)) {
    event.def = static_cast<std::uint8_t>(tag);
  }
  return event;
}

bool parse_trace_line(std::string_view line, std::size_t line_no,
                      TraceRecord* out) {
  if (line.empty()) return false;
  *out = TraceRecord{};
  out->line = line_no;

  LineParser parser(line, line_no);
  parser.expect('{');
  bool first = true;
  bool saw_t = false;
  while (!parser.consume('}')) {
    if (!first) parser.expect(',');
    first = false;
    const std::string_view key = parser.string_value();
    parser.expect(':');
    switch (key_of(key)) {
      case Key::kRun:
        if (saw_t || !out->layer().empty() || !out->name().empty()) {
          parser.fail("run header mixed with event fields");
        }
        out->set_text(Text::kPoint, parse_run_header(parser, out));
        return true;
      case Key::kT:
        out->t = parser.number_value();
        saw_t = true;
        break;
      case Key::kLayer:
        out->set_text(Text::kLayer, parser.string_value());
        break;
      case Key::kEvent:
        out->set_text(Text::kName, parser.string_value());
        break;
      case Key::kNode:
        out->node = static_cast<NodeId>(parser.unsigned_value(UINT32_MAX));
        break;
      case Key::kPeer:
        out->peer = static_cast<NodeId>(parser.unsigned_value(UINT32_MAX));
        break;
      case Key::kPkt:
        out->set_text(Text::kPkt, parser.string_value());
        out->has_packet = true;
        break;
      case Key::kOrigin:
        out->origin = static_cast<NodeId>(parser.unsigned_value(UINT32_MAX));
        break;
      case Key::kSeq:
        out->seq = parser.unsigned_value(UINT64_MAX);
        break;
      case Key::kLin:
        out->lineage = parser.unsigned_value(UINT64_MAX);
        break;
      case Key::kSus:
        out->set_text(Text::kSuspicion, parser.string_value());
        break;
      case Key::kDef: {
        const std::string_view tag = parser.string_value();
        if (!obs::parse_defense_tag(tag, nullptr)) {
          parser.fail("unknown defense tag '" + std::string(tag) + "'");
        }
        out->set_text(Text::kDefense, tag);
        break;
      }
      case Key::kValue:
        out->value = parser.number_value();
        out->has_value = true;
        break;
      case Key::kSpan:
        out->set_text(Text::kSpanKind, parser.string_value());
        break;
      case Key::kSid:
        out->sid = parser.unsigned_value(UINT64_MAX);
        break;
      case Key::kParent:
        out->parent = parser.unsigned_value(UINT64_MAX);
        break;
      case Key::kDur:
        out->dur = parser.number_value();
        out->has_dur = true;
        break;
      case Key::kOutcome:
        out->set_text(Text::kOutcome, parser.string_value());
        break;
      case Key::kRetries:
        out->retries = parser.unsigned_value(UINT64_MAX);
        break;
      case Key::kObserve:
        out->observe = parser.number_value();
        out->has_phases = true;
        break;
      case Key::kCorroborate:
        out->corroborate = parser.number_value();
        break;
      case Key::kIsolate:
        out->isolate = parser.number_value();
        break;
      case Key::kUnknown:
        parser.fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!parser.at_end()) parser.fail("trailing characters");
  const std::string_view layer = out->layer();
  const std::string_view name = out->name();
  if (!saw_t || layer.empty() || name.empty()) {
    throw TraceFormatError(line_no, "event line missing t/layer/event");
  }
  if (layer == "span") {
    out->is_span = true;
    if (name != "begin" && name != "end") {
      throw TraceFormatError(line_no, "span line with event '" +
                                          std::string(name) +
                                          "' (expected begin or end)");
    }
    if (out->span_kind().empty() || out->sid == 0) {
      throw TraceFormatError(line_no, "span line missing span/sid");
    }
    out->span_kind_known = obs::parse_span_kind(out->span_kind(), nullptr);
    return true;
  }
  if (!out->span_kind().empty()) {
    throw TraceFormatError(line_no, "span key on a non-span line");
  }
  const auto& ids = out->text_ids_;
  out->kind_known = Vocabulary::get().event_kind(
      ids[static_cast<std::size_t>(Text::kLayer)],
      ids[static_cast<std::size_t>(Text::kName)], &out->kind);
  return true;
}

std::vector<TraceRecord> read_trace(std::istream& in) {
  constexpr std::size_t kReadBytes = std::size_t{1} << 20;
  RecordBlocks records;
  std::vector<char> buffer(kReadBytes);
  std::size_t carried = 0;  // bytes of an unfinished line at buffer[0]
  std::size_t line_no = 0;
  TraceRecord record;
  auto parse = [&](const char* begin, const char* end) {
    ++line_no;
    if (parse_trace_line(std::string_view(begin, end - begin), line_no,
                         &record)) {
      records.push(std::move(record));
    }
  };
  while (true) {
    // A line longer than the buffer: grow it to hold the whole line.
    if (carried == buffer.size()) buffer.resize(buffer.size() * 2);
    in.read(buffer.data() + carried,
            static_cast<std::streamsize>(buffer.size() - carried));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    const char* line = buffer.data();
    const char* end = buffer.data() + carried + got;
    const char* scan = buffer.data() + carried;  // carried bytes hold no '\n'
    while (const void* found = std::memchr(scan, '\n', end - scan)) {
      const char* newline = static_cast<const char*>(found);
      parse(line, newline);
      line = scan = newline + 1;
    }
    carried = static_cast<std::size_t>(end - line);
    std::memmove(buffer.data(), line, carried);
  }
  // std::getline semantics: a last line without '\n' still counts.
  if (carried > 0) parse(buffer.data(), buffer.data() + carried);
  return records.take();
}

std::vector<TraceRecord> lineage_chain(const std::vector<TraceRecord>& records,
                                       LineageId lineage) {
  std::vector<TraceRecord> chain;
  for (const TraceRecord& record : records) {
    if (!record.is_run_header && record.has_packet &&
        record.lineage == lineage) {
      chain.push_back(record);
    }
  }
  return chain;
}

std::string describe(const TraceRecord& record) {
  std::string out;
  // snprintf for the numeric conversions only; no finite double needs
  // more than 330 bytes at these precisions.
  auto number = [&out](const char* format, auto value) {
    char buffer[352];
    const int n = std::snprintf(buffer, sizeof(buffer), format, value);
    out.append(buffer,
               std::min(static_cast<std::size_t>(n), sizeof(buffer) - 1));
  };
  auto padded = [&out](std::string_view text, std::size_t width) {
    out += text;
    if (text.size() < width) out.append(width - text.size(), ' ');
  };
  if (record.is_run_header) {
    out += "== run point=";
    out += record.point();
    number(" seed=%llu ==", static_cast<unsigned long long>(record.run_seed));
    return out;
  }
  number("%12.6f  ", record.t);
  padded(record.layer(), 5);
  out += ' ';
  padded(record.name(), 12);
  number(" node %u", record.node);
  if (record.is_span) {
    out += "  ";
    out += record.span_kind();
    number(" sid=%llu", static_cast<unsigned long long>(record.sid));
    if (record.parent != 0) {
      number(" parent=%llu", static_cast<unsigned long long>(record.parent));
    }
    if (record.has_dur) {
      number(" dur=%.6f outcome=", record.dur);
      out += record.outcome();
    }
  }
  if (record.peer != kInvalidNode) number(" -> %u", record.peer);
  if (record.has_packet) {
    out += "  ";
    out += record.pkt_type();
    number("(origin=%u", record.origin);
    number(" seq=%llu", static_cast<unsigned long long>(record.seq));
    number(" lin=%llu)", static_cast<unsigned long long>(record.lineage));
  }
  if (!record.suspicion().empty()) {
    out += "  sus=";
    out += record.suspicion();
  }
  if (!record.defense().empty()) {
    out += "  def=";
    out += record.defense();
  }
  if (record.has_value) number("  value=%.9g", record.value);
  return out;
}

}  // namespace lw::forensics
