// read_trace against hostile input: a seeded mutation fuzzer over the
// golden JSONL fixtures, plus the chunked reader's buffer edges.
//
// The oracle splits the text with std::getline and parses each line with
// parse_trace_line. read_trace, which scans the stream in chunks, must
// agree with it exactly: the same records, or a TraceFormatError naming
// the oracle's first failing line. Any other exception fails the test, and
// every accepted input must export to JSON that util/json parses. The
// budget is fixed so the test runs in well under a second; the sanitizer
// jobs run the same cases under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "forensics/check.h"
#include "forensics/perfetto.h"
#include "forensics/trace_reader.h"
#include "util/json.h"

namespace lw::forensics {
namespace {

using Text = TraceRecord::Text;

std::vector<std::string> fixture_lines(const std::string& name) {
  std::ifstream in(std::string(LW_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing fixture " << name;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Field-by-field equality, text fields included.
void expect_same(const TraceRecord& a, const TraceRecord& b) {
  SCOPED_TRACE("line " + std::to_string(a.line));
  EXPECT_EQ(a.line, b.line);
  EXPECT_EQ(a.is_run_header, b.is_run_header);
  EXPECT_EQ(a.run_seed, b.run_seed);
  EXPECT_EQ(a.kind_known, b.kind_known);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.peer, b.peer);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.has_value, b.has_value);
  EXPECT_EQ(a.has_packet, b.has_packet);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.lineage, b.lineage);
  EXPECT_EQ(a.is_span, b.is_span);
  EXPECT_EQ(a.span_kind_known, b.span_kind_known);
  EXPECT_EQ(a.sid, b.sid);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.dur, b.dur);
  EXPECT_EQ(a.has_dur, b.has_dur);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.has_phases, b.has_phases);
  EXPECT_EQ(a.observe, b.observe);
  EXPECT_EQ(a.corroborate, b.corroborate);
  EXPECT_EQ(a.isolate, b.isolate);
  for (std::size_t f = 0; f < TraceRecord::kTextFields; ++f) {
    EXPECT_EQ(a.text(static_cast<Text>(f)), b.text(static_cast<Text>(f)));
  }
}

/// What reading `text` must produce: std::getline lines, each parsed on
/// its own. `failing_line` is set at the first line that throws.
struct Expected {
  std::vector<TraceRecord> records;
  std::optional<std::size_t> failing_line;
};

Expected oracle(const std::string& text) {
  Expected expected;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    TraceRecord record;
    try {
      if (parse_trace_line(line, line_no, &record)) {
        expected.records.push_back(record);
      }
    } catch (const TraceFormatError&) {
      expected.failing_line = line_no;
      break;
    }
  }
  return expected;
}

/// Runs read_trace on `text` and checks it against the oracle. Returns the
/// records when the input was accepted.
std::optional<std::vector<TraceRecord>> read_and_compare(
    const std::string& text) {
  const Expected expected = oracle(text);
  std::istringstream in(text);
  std::vector<TraceRecord> records;
  try {
    records = read_trace(in);
  } catch (const TraceFormatError& e) {
    EXPECT_TRUE(expected.failing_line.has_value())
        << "rejected an input the oracle accepts: " << e.what();
    if (expected.failing_line) {
      EXPECT_EQ(e.line(), *expected.failing_line);
    }
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception: " << e.what();
    return std::nullopt;
  }
  EXPECT_FALSE(expected.failing_line.has_value())
      << "accepted an input the oracle rejects at line "
      << *expected.failing_line;
  EXPECT_EQ(records.size(), expected.records.size());
  if (records.size() == expected.records.size()) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_same(records[i], expected.records[i]);
    }
  }
  return records;
}

// ---- Mutations ----

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> pool)
      : rng_(seed), pool_(std::move(pool)) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  void mutate(std::string& text) {
    if (text.empty()) text = pool_[below(pool_.size())];
    switch (below(7)) {
      case 0:  // bit flip
        text[below(text.size())] ^= static_cast<char>(1 << below(8));
        break;
      case 1:  // random byte, control bytes and '\n' included
        text[below(text.size())] = static_cast<char>(below(256));
        break;
      case 2:  // truncation
        text.resize(below(text.size()));
        break;
      case 3: {  // splice a piece of another line in
        const std::string& donor = pool_[below(pool_.size())];
        const std::size_t from = below(donor.size());
        text.insert(below(text.size() + 1),
                    donor.substr(from, 1 + below(donor.size() - from)));
        break;
      }
      case 4:  // delete a range
        text.erase(below(text.size()), 1 + below(40));
        break;
      case 5:  // duplicate key: repeat one "key":value member
        duplicate_member(text);
        break;
      default:  // huge, NaN-like or odd numbers
        replace_number(text);
        break;
    }
  }

 private:
  void duplicate_member(std::string& text) {
    const std::size_t start = text.find(",\"", below(text.size()));
    if (start == std::string::npos) return;
    const std::size_t end = text.find_first_of(",}", start + 1);
    if (end == std::string::npos) return;
    text.insert(end, text.substr(start, end - start));
  }

  void replace_number(std::string& text) {
    static const char* const kNumbers[] = {
        "1e999", "-1e999", "1e-400", "NaN", "nan", "inf", "-0",
        "18446744073709551615", "18446744073709551616", "4294967295",
        "4294967296", "-1", "-0.5", "+7", "+-1", "1e5", "1.5", "1e",
        ".", "--3", "0x10", "99999999999999999999999999999", "2.5e-320"};
    const std::size_t colon = text.find(':', below(text.size()));
    if (colon == std::string::npos) return;
    std::size_t end = colon + 1;
    while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
    text.replace(colon + 1, end - colon - 1,
                 kNumbers[below(std::size(kNumbers))]);
  }

  std::mt19937_64 rng_;
  std::vector<std::string> pool_;
};

TEST(TraceFuzz, MutatedGoldenWindowsParseOrFailAtTheRightLine) {
  const std::vector<std::vector<std::string>> corpora = {
      fixture_lines("golden_trace.jsonl"), fixture_lines("golden_spans.jsonl"),
      fixture_lines("golden_trace_phy.jsonl")};
  std::vector<std::string> pool;
  for (const auto& corpus : corpora) {
    ASSERT_FALSE(corpus.empty());
    pool.insert(pool.end(), corpus.begin(), corpus.end());
  }
  Mutator mutator(20240611, pool);
  int accepted = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    const auto& corpus = corpora[iteration % corpora.size()];
    const std::size_t first = mutator.below(corpus.size());
    const std::size_t count = 1 + mutator.below(32);
    std::string text;
    if (iteration % 5 == 0) text += "{\"run\":{\"point\":\"p\",\"seed\":1}}\n";
    const std::size_t last = std::min(corpus.size(), first + count);
    for (std::size_t i = first; i < last; ++i) {
      text += corpus[i];
      text += '\n';
    }
    const std::size_t mutations = 1 + mutator.below(3);
    for (std::size_t m = 0; m < mutations; ++m) mutator.mutate(text);

    SCOPED_TRACE("iteration " + std::to_string(iteration));
    const auto records = read_and_compare(text);
    if (!records) {
      ++rejected;
    } else {
      ++accepted;
      EXPECT_NO_THROW(check_trace(*records));
      std::ostringstream out;
      export_perfetto(*records, out);
      EXPECT_NO_THROW(util::JsonValue::parse(out.str()));
    }
    if (HasFailure()) break;
  }
  // Each outcome must be at least 5% of the budget, or the fuzzer tests
  // little.
  EXPECT_GT(accepted, 150);
  EXPECT_GT(rejected, 150);
}

// ---- Chunk and storage edges of the streaming reader ----

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

TEST(TraceFuzz, LinesSpanningReadChunksParseLikeGetline) {
  // > 1 MiB, so lines straddle the reader's chunk boundary.
  const std::string text = join(fixture_lines("golden_trace_phy.jsonl")) +
                           join(fixture_lines("golden_trace.jsonl"));
  ASSERT_GT(text.size(), std::size_t{1} << 20);
  EXPECT_TRUE(read_and_compare(text).has_value());
}

TEST(TraceFuzz, LineLongerThanTheReadBufferParses) {
  const std::string layer(3u << 20, 'q');
  const std::string text =
      "{\"t\":1,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":1}\n"
      "{\"t\":2,\"layer\":\"" + layer + "\",\"event\":\"e\",\"node\":2}\n"
      "{\"t\":3,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":3}";
  std::istringstream in(text);
  const std::vector<TraceRecord> records = read_trace(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].layer(), layer);
  EXPECT_FALSE(records[1].kind_known);
  EXPECT_EQ(records[2].line, 3u);
  EXPECT_EQ(records[2].node, 3u);
}

TEST(TraceFuzz, RecordsSpanningStorageBlocksKeepTheirOrder) {
  // More records than one storage block holds (48 MiB of records).
  const std::size_t count =
      (std::size_t{48} << 20) / sizeof(TraceRecord) + 5000;
  std::string text;
  for (std::size_t i = 0; i < count; ++i) {
    text += "{\"t\":0,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":";
    text += std::to_string(i % 1000);
    text += "}\n";
  }
  std::istringstream in(text);
  const std::vector<TraceRecord> records = read_trace(in);
  ASSERT_EQ(records.size(), count);
  for (std::size_t i = 0; i < count; i += 997) {
    EXPECT_EQ(records[i].line, i + 1);
    EXPECT_EQ(records[i].node, i % 1000);
  }
  EXPECT_EQ(records.back().line, count);
  EXPECT_EQ(records.back().name(), "hello");
}

}  // namespace
}  // namespace lw::forensics
