// Benchmark harness: runs one workload's replicas through the simulator's
// public API and prints one JSON line per measurement on stdout. run.py
// builds this program, starts it once per benchmark run (so its peak RSS
// belongs to one workload), checks every replica against the recorded
// references and aggregates the lines into the benchmark's metrics.
//
//   lwbench --workload=NAME --seeds=S1,S2,... --seconds=T [--trace=0|1]
//           [--spans=FILE] [--record] [--watchdog=SECONDS]
//
// Replicas take their seeds from --seeds in order (cycling) and stop
// starting once the --seconds budget is spent (at least one always runs). --record runs
// each seed once through a single Network::run() (run_experiment) instead
// of the sliced driver and prints its fingerprint: the references the
// sliced driver is checked against.
//
// Output lines (one JSON object each):
//   {"kind":"setup","s":...}                       one Network construction
//   {"kind":"replica","seed":..,"ok":..,...}       one finished replica
//   {"kind":"sweep",...}                           one defense_zoo sweep
//   {"kind":"crypto",...}                          KeyManager timings
//   {"kind":"spans",...}                           where the spans went
// A replica that throws (construction, watchdog, analysis) is reported
// with "ok":false and its error; the harness itself never aborts on one.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "crypto/key_manager.h"
#include "forensics/check.h"
#include "forensics/incident.h"
#include "forensics/perfetto.h"
#include "forensics/trace_reader.h"
#include "scenario/runner.h"
#include "scenario/sweep.h"

namespace {

using Clock = std::chrono::steady_clock;
using lw::scenario::ExperimentConfig;
using lw::scenario::RunResult;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- JSON line writer ----

/// Builds one flat-ish JSON object. Numbers keep 17 significant digits so
/// fingerprints round-trip exactly through the reader in run.py.
class Line {
 public:
  Line& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Line& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Line& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Line& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return raw(key, quoted + "\"");
  }
  Line& nums(const char* key, const std::vector<double>& vs) {
    std::string list = "[";
    char buf[64];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", vs[i]);
      list += buf;
    }
    return raw(key, list + "]");
  }
  Line& object(const char* key, const Line& inner) {
    return raw(key, inner.text());
  }
  /// Appends every field of `other` to this object.
  Line& raw_fields(const Line& other) {
    if (!other.body_.empty()) body_ += (body_.empty() ? "" : ",") + other.body_;
    return *this;
  }
  Line& raw(const char* key, const std::string& value) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }
  void print() const {
    std::fputs(text().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

// ---- Peak memory per replica ----

/// Returns freed heap to the OS and resets the kernel's peak-RSS mark
/// (VmHWM) to the current RSS, so the next replica's peak is its own and
/// not the largest of the run's replicas so far.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM in MB: the peak since the last reset_peak_rss (0 without /proc).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---- Spans of the harness's own calls into the simulator ----

/// In-memory span log, written once as Chrome trace-event JSON when the
/// run ends, so recording costs no I/O while the simulator runs.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string tag;
    int id = 0;
    int parent = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int begin(std::string name, int parent = 0, std::string tag = {}) {
    if (!enabled_) return 0;
    Span span;
    span.name = std::move(name);
    span.tag = std::move(tag);
    span.id = static_cast<int>(spans_.size()) + 1;
    span.parent = parent;
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void end(int id) {
    if (id > 0) spans_[static_cast<std::size_t>(id) - 1].end_us = now_us();
  }
  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                    s.start_us, s.end_us - s.start_us);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\"," << buf
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"tag\":\"" << s.tag << "\"}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Read-only streambuf over a string the caller keeps alive: lets
/// read_trace parse a 100 MB in-memory trace without copying it.
class StringViewBuf : public std::streambuf {
 public:
  explicit StringViewBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

/// Discarding sink that counts the bytes written to it.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
};

// ---- Workloads ----

struct Options {
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string spans_path;
  double watchdog = 120.0;
};

/// How much observability a replica carries: kPlain turns every obs
/// option off, kWorkload is the workload as defined (traced_n200 keeps its
/// trace, spans, forensics, counters and series), kInstrumented adds the
/// per-layer instruments of a --trace=1 run to it.
enum class Mode { kPlain, kWorkload, kInstrumented };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kPlain: return "plain";
    case Mode::kWorkload: return "workload";
    case Mode::kInstrumented: return "instrumented";
  }
  return "?";
}

/// The single-network workloads.
ExperimentConfig network_config(const std::string& workload,
                                std::uint64_t seed, Mode mode) {
  ExperimentConfig config = ExperimentConfig::table2_defaults();
  const bool traced = workload == "traced_n200" && mode != Mode::kPlain;
  if (workload == "scale_n1000c") {
    config.node_count = 1000;
    config.duration = 120.0;
  } else if (workload == "traced_n200") {
    config.node_count = 200;
    config.duration = 120.0;
  } else if (workload != "paper_n100") {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  config.malicious_count = 2;
  config.phy.collisions_enabled = true;
  config.defense.name = "liteworp";
  config.seed = seed;
  config.obs.trace = traced;
  config.obs.spans = traced;
  config.obs.forensics = traced;
  config.obs.counters = traced || mode == Mode::kInstrumented;
  config.obs.series = traced || mode == Mode::kInstrumented;
  config.obs.profile = mode == Mode::kInstrumented;
  config.finalize();
  config.validate();
  return config;
}

/// The defense zoo: 60 nodes, 400 simulated s, every backend on the same
/// seeds (common random numbers), as in EXPERIMENTS.md's defense-zoo setup.
const std::vector<std::string> kZooBackends = {"liteworp", "leash", "zscore",
                                               "none"};
constexpr int kZooReplicas = 4;
constexpr int kZooThreads = 2;

lw::scenario::SweepSpec zoo_spec(std::uint64_t base_seed, int threads,
                                 bool instrument, double watchdog) {
  lw::scenario::SweepSpec spec;
  spec.base = ExperimentConfig::table2_defaults();
  spec.base.node_count = 60;
  spec.base.duration = 400.0;
  if (instrument) {
    spec.base.obs.profile = true;
    spec.base.obs.counters = true;
    spec.base.obs.series = true;
  }
  for (const std::string& backend : kZooBackends) {
    spec.points.push_back(
        {backend,
         [backend](ExperimentConfig& c) { c.defense.name = backend; }, 0});
  }
  spec.runs = kZooReplicas;
  spec.base_seed = base_seed;
  spec.threads = threads;
  spec.run_timeout_seconds = watchdog;
  return spec;
}

/// Deterministic counters of one replica: the reference fingerprint.
Line fingerprint(const RunResult& r) {
  Line fp;
  fp.count("frames_transmitted", r.frames_transmitted)
      .count("frames_delivered", r.frames_delivered)
      .count("frames_collided", r.frames_collided)
      .count("events_executed", r.profile.events_executed)
      .count("data_originated", r.data_originated)
      .count("data_delivered", r.data_delivered)
      .count("data_dropped_malicious", r.data_dropped_malicious)
      .count("discoveries", r.discoveries)
      .count("routes_established", r.routes_established)
      .count("wormhole_routes", r.wormhole_routes)
      .count("alerts_sent", r.alerts_sent)
      .count("isolation_events", r.isolation_events)
      .count("false_isolations", r.false_isolations)
      .count("malicious_isolated", r.malicious_isolated)
      .count("control_messages", r.defense_cost.control_messages)
      .num("isolation_latency",
           r.isolation_latency ? *r.isolation_latency : -1.0);
  return fp;
}

/// Isolation latency censored at the horizon when an attacker is never
/// completely isolated.
double censored_latency(const RunResult& r) {
  return r.isolation_latency ? *r.isolation_latency
                             : r.duration - r.attack_start;
}

std::uint64_t tx_of(const lw::phy::MediumStats& s, lw::pkt::PacketType t) {
  return s.tx_by_type[static_cast<std::size_t>(t)];
}

/// What the per-layer metrics are computed from: one instrumented run, or
/// the replicas of an instrumented zoo sweep summed. The per-packet-type
/// PHY counts are read from the Network, so they stay 0 for a sweep.
struct LayerTotals {
  lw::obs::ProfileTotals profile;
  lw::obs::MemoryGauges memory;
  lw::defense::CostSnapshot cost;
  std::uint64_t frames = 0, delivered = 0, collided = 0, discoveries = 0;
  std::uint64_t req_frames = 0, auth_frames = 0;

  void add(const RunResult& r) {
    profile.accumulate(r.profile);
    memory.max_with(r.series.memory_high_water);
    cost.accumulate(r.defense_cost);
    frames += r.frames_transmitted;
    delivered += r.frames_delivered;
    collided += r.frames_collided;
    discoveries += r.discoveries;
  }

  void add_packet_types(const lw::phy::MediumStats& phy) {
    using lw::pkt::PacketType;
    req_frames += tx_of(phy, PacketType::kRouteRequest);
    auth_frames += tx_of(phy, PacketType::kHelloReply) +
                   tx_of(phy, PacketType::kNeighborList) +
                   tx_of(phy, PacketType::kAlert) +
                   tx_of(phy, PacketType::kJoinChallenge) +
                   tx_of(phy, PacketType::kJoinResponse);
  }

  double self_s(lw::obs::Layer layer) const {
    return profile.layers[static_cast<std::size_t>(layer)].self_seconds;
  }
  std::uint64_t events(lw::obs::Layer layer) const {
    return profile.layers[static_cast<std::size_t>(layer)].events;
  }

  Line line() const {
    using lw::obs::Layer;
    double attributed = 0.0;
    for (const auto& layer : profile.layers) attributed += layer.self_seconds;
    const double received = static_cast<double>(delivered + collided);
    Line l;
    l.count("sim.events", profile.events_executed)
        .count("sim.queue_max", profile.max_queue_depth)
        .count("sim.slab_slots", memory.slab_slots)
        .num("sim.unattributed_s", profile.wall_seconds - attributed)
        .num("phy.self_s", self_s(Layer::kPhy))
        .count("phy.frames_tx", frames)
        .num("phy.rx_per_tx", frames ? static_cast<double>(delivered) /
                                           static_cast<double>(frames)
                                     : 0.0)
        .num("phy.collided_frac",
             received > 0 ? static_cast<double>(collided) / received : 0.0)
        .count("mac.events", events(Layer::kMac))
        .num("nbr.self_s", self_s(Layer::kNeighbor))
        .count("nbr.events", events(Layer::kNeighbor))
        .count("mem.neighbor_bytes", memory.neighbor_bytes)
        .num("route.self_s", self_s(Layer::kRouting))
        .count("route.discoveries", discoveries)
        .count("route.req_frames", req_frames)
        .num("mon.self_s", self_s(Layer::kMonitor))
        .count("mon.events", events(Layer::kMonitor))
        .count("defense.frames_observed", cost.frames_observed)
        .count("defense.admission_checks", cost.admission_checks)
        .count("defense.alert_msgs", cost.control_messages)
        .count("defense.storage_bytes", cost.storage_bytes)
        .count("mem.watch_entries", memory.watch_entries)
        .count("crypto.auth_frames", auth_frames);
    return l;
  }
};

const char* phase_of(const ExperimentConfig& c, double slice_end) {
  if (slice_end <= c.phy.collision_free_until) return "discovery";
  if (slice_end <= c.attack.start_time) return "warmup";
  return "attack";
}

/// Trace analysis of the forensic pipeline: read, check, export, and the
/// offline incident fold (as `lw-trace incidents` does it) whose tallies
/// run.py checks against the live metrics of the same replica.
struct Analysis {
  double read_s = 0.0, check_s = 0.0, perfetto_s = 0.0;
  std::uint64_t records = 0, perfetto_bytes = 0, violations = 0;
  std::uint64_t true_positives = 0, isolations = 0, false_isolations = 0;
  std::string first_violation;
};

Analysis analyze(const std::string& trace, SpanLog& spans, int parent) {
  Analysis a;
  int sid = spans.begin("analyze.read", parent);
  auto t0 = Clock::now();
  StringViewBuf buf(trace);
  std::istream in(&buf);
  const std::vector<lw::forensics::TraceRecord> records =
      lw::forensics::read_trace(in);
  a.read_s = seconds_since(t0);
  spans.end(sid);
  a.records = records.size();

  sid = spans.begin("analyze.check", parent);
  t0 = Clock::now();
  const auto issues = lw::forensics::check_trace(records);
  a.check_s = seconds_since(t0);
  spans.end(sid);
  a.violations = issues.size();
  if (!issues.empty()) {
    a.first_violation = "line " + std::to_string(issues.front().line) + ": " +
                        issues.front().message;
  }

  sid = spans.begin("analyze.perfetto", parent);
  t0 = Clock::now();
  CountingBuf sink;
  std::ostream out(&sink);
  lw::forensics::export_perfetto(records, out);
  a.perfetto_s = seconds_since(t0);
  spans.end(sid);
  a.perfetto_bytes = sink.bytes;

  lw::forensics::IncidentBuilder builder;
  for (const auto& record : records) {
    if (record.kind_known && !record.is_span) builder.on_event(record.to_event());
  }
  const auto incidents = builder.build();
  a.true_positives = lw::forensics::IncidentBuilder::summarize(incidents)
                         .true_positives;
  for (const auto& incident : incidents) {
    a.isolations += incident.isolations;
    if (!incident.true_positive()) a.false_isolations += incident.isolations;
  }
  return a;
}

/// One replica of a single-network workload, driven through run_until in
/// one-simulated-second slices.
void network_replica(const Options& opt, std::uint64_t seed, Mode mode,
                     SpanLog& spans) {
  const bool instrument = mode == Mode::kInstrumented;
  Line out;
  out.str("kind", "replica").count("seed", seed).str("mode", mode_name(mode));
  const int replica_span =
      spans.begin(std::string("replica.") + mode_name(mode));
  try {
    const ExperimentConfig config = network_config(opt.workload, seed, mode);
    int sid = spans.begin("setup", replica_span);
    auto t0 = Clock::now();
    auto net = std::make_unique<lw::scenario::Network>(config);
    const double setup_s = seconds_since(t0);
    spans.end(sid);
    net->simulator().set_wall_timeout(opt.watchdog);

    const int run_span = spans.begin("run", replica_span);
    std::vector<double> steps_ms;
    double run_s = 0.0, discovery_s = 0.0, attack_s = 0.0;
    for (double t = 1.0; t - 1.0 < config.duration; t += 1.0) {
      const double until = std::min(t, config.duration);
      const char* phase = phase_of(config, until);
      sid = spans.begin("step", run_span, phase);
      t0 = Clock::now();
      net->run_until(until);
      const double step = seconds_since(t0);
      spans.end(sid);
      steps_ms.push_back(step * 1e3);
      run_s += step;
      if (phase[0] == 'd') discovery_s += step;
      if (phase[0] == 'a') attack_s += step;
    }
    spans.end(run_span);

    sid = spans.begin("extract", replica_span);
    t0 = Clock::now();
    RunResult result = RunResult::from_metrics(*net);
    const double extract_s = seconds_since(t0);
    spans.end(sid);

    out.flag("ok", true)
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("extract_s", extract_s)
        .count("malicious", result.malicious_count)
        .num("latency", censored_latency(result))
        .object("fp", fingerprint(result));
    Line layers;
    if (instrument) {
      LayerTotals totals;
      totals.add(result);
      totals.add_packet_types(net->medium().stats());
      layers = totals.line();
      layers.num("phase.discovery_s", discovery_s)
          .num("phase.attack_s", attack_s)
          .num("scenario.extract_s", extract_s);
    }
    net.reset();

    if (config.obs.trace) {
      const std::string trace = std::move(result.trace_jsonl);
      sid = spans.begin("analyze", replica_span);
      t0 = Clock::now();
      const Analysis a = analyze(trace, spans, sid);
      out.num("analyze_s", seconds_since(t0));
      spans.end(sid);
      out.count("violations", a.violations)
          .str("first_violation", a.first_violation)
          .count("forensic_tp", a.true_positives)
          .count("forensic_isolations", a.isolations)
          .count("forensic_false_isolations", a.false_isolations);
      if (instrument) {
        layers.num("obs.trace_mb", static_cast<double>(trace.size()) / 1e6)
            .count("obs.records", a.records)
            .num("forensics.read_s", a.read_s)
            .num("forensics.check_s", a.check_s)
            .num("forensics.perfetto_s", a.perfetto_s)
            .num("forensics.perfetto_mb",
                 static_cast<double>(a.perfetto_bytes) / 1e6);
      }
    }
    out.nums("steps_ms", steps_ms).num("peak_rss_mb", peak_rss_mb());
    if (instrument) out.object("layers", layers);
  } catch (const std::exception& e) {
    out.flag("ok", false).str("error", e.what());
  }
  spans.end(replica_span);
  out.print();
}

/// One zoo sweep (every backend x kZooReplicas seeds starting at
/// base_seed). Each replica is reported on its own line; the sweep's
/// wall-clock and work totals on a "sweep" line.
void zoo_sweep(const Options& opt, std::uint64_t base_seed, Mode mode,
               SpanLog& spans) {
  const bool instrument = mode == Mode::kInstrumented;
  Line out;
  out.str("kind", "sweep")
      .count("base_seed", base_seed)
      .str("mode", mode_name(mode));
  const int sid = spans.begin(std::string("sweep.") + mode_name(mode));
  try {
    const auto result = lw::scenario::run_sweep(
        zoo_spec(base_seed, kZooThreads, instrument, opt.watchdog));
    spans.end(sid);
    const int json_span = spans.begin("sweep.to_json");
    const auto t0 = Clock::now();
    const std::string json = lw::scenario::to_json(result);
    const double json_s = seconds_since(t0);
    spans.end(json_span);

    double cpu_s = 0.0;
    LayerTotals totals;
    Line per_backend;
    for (const auto& point : result.points) {
      cpu_s += point.cpu_seconds;
      per_backend.num(("zoo." + point.label + ".cpu_s").c_str(),
                      point.cpu_seconds);
      for (std::size_t i = 0; i < point.replicas.size(); ++i) {
        const RunResult& r = point.replicas[i];
        Line rep;
        rep.str("kind", "replica")
            .count("seed", base_seed + i)
            .str("point", point.label)
            .str("mode", mode_name(mode))
            .flag("ok", !r.failed);
        if (r.failed) {
          rep.str("error", r.fail_reason);
        } else {
          rep.num("run_s", r.profile.wall_seconds)
              .num("sim_s", r.duration)
              .count("malicious", r.malicious_count)
              .num("latency", censored_latency(r))
              .object("fp", fingerprint(r));
          totals.add(r);
        }
        rep.print();
      }
    }
    out.flag("ok", true)
        .num("peak_rss_mb", peak_rss_mb())
        .num("wall_s", result.wall_seconds)
        .num("json_s", json_s)
        .count("threads", static_cast<std::uint64_t>(result.threads_used))
        .count("frames", totals.frames);
    if (instrument) {
      Line l = totals.line();
      l.raw_fields(per_backend)
          .num("sweep.cpu_s", cpu_s)
          .num("sweep.parallel_eff",
               cpu_s / (result.wall_seconds * result.threads_used))
          .num("sweep.json_s", json_s);
      out.object("layers", l);
    }
  } catch (const std::exception& e) {
    spans.end(sid);
    out.flag("ok", false).str("error", e.what());
  }
  out.print();
}

/// Network construction alone, repeated so setup_s is a median of several
/// samples even when only one or two replicas fit in the budget.
void setup_sample(const Options& opt, std::uint64_t seed, SpanLog& spans) {
  Line out;
  out.str("kind", "setup").count("seed", seed);
  try {
    ExperimentConfig config;
    if (opt.workload == "defense_zoo") {
      config = zoo_spec(seed, 1, false, 0.0).base;
      config.seed = seed;
      config.finalize();
      config.validate();
    } else {
      config = network_config(opt.workload, seed, Mode::kWorkload);
    }
    const int sid = spans.begin("setup");
    const auto t0 = Clock::now();
    lw::scenario::Network net(config);
    out.flag("ok", true).num("s", seconds_since(t0));
    spans.end(sid);
  } catch (const std::exception& e) {
    out.flag("ok", false).str("error", e.what());
  }
  out.print();
}

/// ns per KeyManager::sign and per 8-peer sign_batch at the workload's N,
/// after a warm-up pass has derived every pairwise key used.
void crypto_timings(std::size_t nodes) {
  lw::crypto::KeyManager keys(ExperimentConfig{}.key_master_secret);
  keys.reserve_nodes(nodes);
  const std::string message(48, 'm');
  constexpr int kSigns = 100000;
  std::uint64_t sink = 0;
  auto peer = [&](int i) {
    return static_cast<lw::NodeId>((static_cast<std::size_t>(i) * 7 + 1) %
                                   nodes);
  };
  auto self = [&](int i) {
    return static_cast<lw::NodeId>(static_cast<std::size_t>(i) % nodes);
  };
  auto time_signs = [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSigns; ++i) {
      sink += keys.sign(self(i), peer(i), message)[0];
    }
    return seconds_since(t0);
  };
  time_signs();
  const double sign_s = time_signs();

  constexpr int kBatches = kSigns / 8;
  std::vector<lw::NodeId> peers(8);
  lw::crypto::AuthTag tags[8];
  auto time_batches = [&] {
    const auto t0 = Clock::now();
    for (int b = 0; b < kBatches; ++b) {
      for (int k = 0; k < 8; ++k) peers[k] = peer(b * 8 + k);
      keys.sign_batch(self(b), peers, message, tags);
      sink += tags[7][0];
    }
    return seconds_since(t0);
  };
  time_batches();
  const double batch_s = time_batches();
  Line out;
  out.str("kind", "crypto")
      .num("crypto.sign_ns", sign_s * 1e9 / kSigns)
      .num("crypto.sign_batch8_ns", batch_s * 1e9 / kBatches)
      .count("checksum", sink);
  out.print();
}

std::size_t workload_nodes(const std::string& workload) {
  if (workload == "defense_zoo") return zoo_spec(1, 1, false, 0.0).base.node_count;
  return network_config(workload, 1, Mode::kPlain).node_count;
}

void record(const Options& opt) {
  if (opt.workload == "defense_zoo") {
    // Single-threaded reference sweeps; the benchmark's own sweeps run on
    // kZooThreads workers and must match them bit for bit.
    for (std::size_t i = 0; i < opt.seeds.size(); i += kZooReplicas) {
      const auto result =
          lw::scenario::run_sweep(zoo_spec(opt.seeds[i], 1, false, 0.0));
      for (const auto& point : result.points) {
        for (std::size_t r = 0; r < point.replicas.size(); ++r) {
          Line out;
          out.str("kind", "reference")
              .count("seed", opt.seeds[i] + r)
              .str("point", point.label)
              .object("fp", fingerprint(point.replicas[r]));
          out.print();
        }
      }
    }
    return;
  }
  for (std::uint64_t seed : opt.seeds) {
    // References come from the plain run: the traced and instrumented
    // replicas must reproduce them, since obs only observes.
    const ExperimentConfig config =
        network_config(opt.workload, seed, Mode::kPlain);
    Line out;
    out.str("kind", "reference")
        .count("seed", seed)
        .object("fp", fingerprint(lw::scenario::run_experiment(config)));
    out.print();
  }
}

int run(const Options& opt) {
  if (opt.record) {
    record(opt);
    return 0;
  }
  const bool zoo = opt.workload == "defense_zoo";
  SpanLog spans(opt.trace);
  const auto start = Clock::now();
  // Set-up samples first, on the first seeds of the list: at least 5, and
  // up to 100 while they take under 3% of the budget, so the setup_s median
  // rests on many samples and seeds even where only two replicas fit.
  for (std::size_t i = 0;
       i < 5 || (i < 100 && seconds_since(start) < 0.03 * opt.seconds); ++i) {
    setup_sample(opt, opt.seeds[i % opt.seeds.size()], spans);
  }
  if (opt.trace) crypto_timings(workload_nodes(opt.workload));

  // Replicas until the budget is spent, cycling through the seed list: the
  // next one starts only while at least half of the last one's duration
  // remains, so a run overshoots --seconds by about half a replica at most.
  // A zoo sweep runs kZooReplicas consecutive seeds from its list entry.
  const std::size_t stride = zoo ? kZooReplicas : 1;
  double last = 0.0;
  for (std::size_t i = 0;; i += stride) {
    if (i > 0 && seconds_since(start) + 0.5 * last > opt.seconds) break;
    const std::uint64_t seed = opt.seeds[i % opt.seeds.size()];
    const auto t0 = Clock::now();
    // A --trace=1 run pairs a replica with every obs option off and an
    // instrumented one of the same seed; their run_s difference is what
    // the obs sinks cost.
    for (Mode mode : opt.trace ? std::vector<Mode>{Mode::kPlain,
                                                    Mode::kInstrumented}
                               : std::vector<Mode>{Mode::kWorkload}) {
      reset_peak_rss();
      if (zoo) {
        zoo_sweep(opt, seed, mode, spans);
      } else {
        network_replica(opt, seed, mode, spans);
      }
    }
    last = seconds_since(t0);
  }
  if (opt.trace && !opt.spans_path.empty()) {
    Line out;
    out.str("kind", "spans")
        .count("count", spans.size())
        .flag("written", spans.write(opt.spans_path))
        .str("path", opt.spans_path);
    out.print();
  }
  return 0;
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || (eq == std::string::npos && arg != "--record")) {
      return false;
    }
    const std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "workload") {
      opt->workload = value;
    } else if (key == "seeds") {
      std::stringstream in(value);
      std::string item;
      while (std::getline(in, item, ',')) opt->seeds.push_back(std::stoull(item));
    } else if (key == "seconds") {
      opt->seconds = std::stod(value);
    } else if (key == "trace") {
      opt->trace = value == "1";
    } else if (key == "spans") {
      opt->spans_path = value;
    } else if (key == "watchdog") {
      opt->watchdog = std::stod(value);
    } else if (key == "record") {
      opt->record = true;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->seeds.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, &opt)) {
      std::fprintf(stderr,
                   "usage: lwbench --workload=NAME --seeds=S1,S2,... "
                   "[--seconds=T] [--trace=0|1] [--spans=FILE] [--record] "
                   "[--watchdog=S]\n");
      return 2;
    }
    workload_nodes(opt.workload);  // rejects unknown workloads up front
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lwbench: %s\n", e.what());
    return 2;
  }
}
