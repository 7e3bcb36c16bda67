// JSONL event trace: the machine-readable replacement for an ns-2 trace
// file.
//
// One JSON object per line, schema documented in docs/TRACE_FORMAT.md.
// Numbers are formatted with the locale-independent util/json appenders
// (byte-identical to printf "%.9f" / "%.9g" / PRIu64), and events arrive in
// deterministic simulator order, so the trace of a fixed-seed run is
// byte-identical across repeated runs and across sweep thread counts
// (enforced by the golden-trace test).
#pragma once

#include <string>

#include "obs/recorder.h"

namespace lw::obs {

class TraceWriter final : public EventSink {
 public:
  /// Lines are appended to `out`, which must outlive the writer.
  explicit TraceWriter(std::string& out) : out_(out) {}

  void on_event(const Event& event) override;

 private:
  std::string& out_;
};

}  // namespace lw::obs
