// export_perfetto: the golden export, and valid JSON for hostile names.
//
// The golden fixture was recorded with the exporter this one replaced, so
// it pins the Chrome trace-event bytes across rewrites. Regenerate it
// after an intentional export change with
//   LW_UPDATE_GOLDEN=1 ./build/tests/test_forensics
// and commit tests/obs/golden_perfetto.json with the code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "forensics/check.h"
#include "forensics/perfetto.h"
#include "forensics/trace_reader.h"
#include "util/json.h"

namespace lw::forensics {
namespace {

std::string fixture(const std::string& name) {
  return std::string(LW_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string export_text(const std::string& trace) {
  std::istringstream in(trace);
  std::ostringstream out;
  export_perfetto(read_trace(in), out);
  return out.str();
}

TEST(Perfetto, GoldenExportMatchesCheckedIn) {
  // Two run segments: the point-event fixture (slices, flow arrows) and the
  // span fixture (async b/e), laid out back to back by the run headers.
  const std::string trace = read_file(fixture("golden_trace.jsonl"));
  const std::string spans = read_file(fixture("golden_spans.jsonl"));
  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(spans.empty());
  const std::string actual = export_text(
      "{\"run\":{\"point\":\"golden_trace\",\"seed\":99}}\n" + trace +
      "{\"run\":{\"point\":\"golden_spans\",\"seed\":99}}\n" + spans);

  const std::string path = fixture("golden_perfetto.json");
  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << path << " — regenerate with LW_UPDATE_GOLDEN=1";
  const auto diff = std::mismatch(actual.begin(), actual.end(),
                                  expected.begin(), expected.end());
  EXPECT_TRUE(actual == expected)
      << "export changed at byte " << (diff.first - actual.begin())
      << " (sizes " << actual.size() << " vs " << expected.size()
      << "); if intentional, regenerate with LW_UPDATE_GOLDEN=1";
}

// Regression: a 300-byte unknown layer used to be cut at 255 bytes
// mid-event, the thread_name label went out unescaped, and control bytes
// passed through raw — each made the export unparseable.
TEST(Perfetto, HostileNamesExportAsValidJson) {
  const std::string trace = read_file(fixture("hostile_names.jsonl"));
  ASSERT_FALSE(trace.empty());
  const util::JsonValue doc = util::JsonValue::parse(export_text(trace));
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  const std::string long_layer = "layer_" + std::string(294, 'x');
  std::vector<std::string> names;
  std::vector<std::string> thread_labels;
  std::vector<std::string> args;
  for (const util::JsonValue& event : events->items()) {
    names.push_back(event.string_or("name", ""));
    const util::JsonValue* event_args = event.find("args");
    if (event_args == nullptr) continue;
    if (names.back() == "thread_name") {
      thread_labels.push_back(event_args->string_or("name", ""));
    }
    for (const auto& [key, value] : event_args->members()) {
      if (value.is_string()) args.push_back(key + "=" + value.as_string());
    }
  }
  auto contains = [](const std::vector<std::string>& list,
                     const std::string& item) {
    return std::find(list.begin(), list.end(), item) != list.end();
  };
  EXPECT_TRUE(contains(names, long_layer + ".probe"));
  EXPECT_TRUE(contains(thread_labels, long_layer));
  EXPECT_TRUE(contains(names, "mon.al\x01" "ert"));
  EXPECT_TRUE(contains(names, "nbr.say \"hi\""));
  EXPECT_TRUE(contains(names, "odd\"kind"));
  EXPECT_TRUE(contains(args, "pkt=DA\"TA"));
  EXPECT_TRUE(contains(args, "outcome=back\\slash"));
}

TEST(Perfetto, UnknownNamesKeepTheirTextInCheckMessages) {
  std::istringstream in(read_file(fixture("hostile_names.jsonl")));
  const std::vector<TraceRecord> records = read_trace(in);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].layer().size(), 300u);
  const std::vector<CheckIssue> issues = check_trace(records);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().line, 1u);
  EXPECT_EQ(issues.front().message,
            "unknown event 'layer_" + std::string(294, 'x') + ".probe'");
}

}  // namespace
}  // namespace lw::forensics
