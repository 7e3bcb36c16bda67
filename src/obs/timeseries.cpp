#include "obs/timeseries.h"

#include "util/json.h"

namespace lw::obs {
namespace {

void append_gauges(std::string& out, const MemoryGauges& gauges) {
  out += "{\"slab_slots\":";
  util::append_uint(out, gauges.slab_slots);
  out += ",\"watch_entries\":";
  util::append_uint(out, gauges.watch_entries);
  out += ",\"neighbor_bytes\":";
  util::append_uint(out, gauges.neighbor_bytes);
  out += ",\"defense_storage_bytes\":";
  util::append_uint(out, gauges.defense_storage_bytes);
  out += '}';
}

}  // namespace

TelemetrySampler::TelemetrySampler(Duration bucket_seconds)
    : bucket_seconds_(bucket_seconds) {}

void TelemetrySampler::on_event(const Event& event) {
  ++open_layer_events_[static_cast<std::size_t>(layer_of(event.kind))];
  ++open_events_emitted_;
}

SeriesBucket TelemetrySampler::make_bucket(Time start,
                                           const BucketSample& sample) const {
  SeriesBucket bucket;
  bucket.start = start;
  bucket.layer_events = open_layer_events_;
  bucket.events_emitted = open_events_emitted_;
  bucket.events_executed = sample.events_executed - prev_events_executed_;
  if (registry_ != nullptr) {
    const HistogramSnapshot lat = registry_->deliver_latency().snapshot();
    bucket.deliveries = lat.count - prev_deliveries_;
    bucket.delivery_latency_sum = lat.sum - prev_delivery_latency_sum_;
  }
  bucket.queue_depth = sample.queue_depth;
  bucket.queue_high_water = sample.queue_high_water;
  bucket.memory = sample.memory;
  if (profiler_ != nullptr) {
    const auto& layers = profiler_->layers();
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      bucket.layer_self_seconds[i] =
          layers[i].self_seconds - prev_self_seconds_[i];
    }
  }
  return bucket;
}

bool TelemetrySampler::open_bucket_active(const BucketSample& sample) const {
  return open_events_emitted_ > 0 ||
         sample.events_executed > prev_events_executed_;
}

void TelemetrySampler::close_bucket(Time boundary, const BucketSample& sample) {
  closed_.push_back(make_bucket(open_start_, sample));
  open_start_ = boundary;
  open_layer_events_ = {};
  open_events_emitted_ = 0;
  prev_events_executed_ = sample.events_executed;
  if (registry_ != nullptr) {
    const HistogramSnapshot lat = registry_->deliver_latency().snapshot();
    prev_deliveries_ = lat.count;
    prev_delivery_latency_sum_ = lat.sum;
  }
  if (profiler_ != nullptr) {
    const auto& layers = profiler_->layers();
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      prev_self_seconds_[i] = layers[i].self_seconds;
    }
  }
}

SeriesReport TelemetrySampler::report(const BucketSample& final_sample) const {
  SeriesReport report;
  report.enabled = true;
  report.bucket_seconds = bucket_seconds_;
  report.buckets = closed_;
  // Tail activity after the last boundary becomes a trailing partial
  // bucket; a quiet tail (e.g. duration an exact multiple of the bucket)
  // adds nothing, keeping the series free of an all-zero sentinel row.
  if (open_bucket_active(final_sample)) {
    report.buckets.push_back(make_bucket(open_start_, final_sample));
  }
  for (const SeriesBucket& bucket : report.buckets) {
    if (bucket.queue_high_water > report.queue_high_water) {
      report.queue_high_water = bucket.queue_high_water;
    }
    report.memory_high_water.max_with(bucket.memory);
  }
  return report;
}

std::string series_to_json(const SeriesReport& report, bool include_timing) {
  std::string out = "{\"bucket_seconds\":";
  util::append_general(out, report.bucket_seconds, 17);
  out += ",\"queue_high_water\":";
  util::append_uint(out, report.queue_high_water);
  out += ",\"memory_high_water\":";
  append_gauges(out, report.memory_high_water);
  out += ",\"buckets\":[";
  bool first_bucket = true;
  for (const SeriesBucket& bucket : report.buckets) {
    if (!first_bucket) out += ',';
    first_bucket = false;
    out += "{\"start\":";
    util::append_general(out, bucket.start, 17);
    out += ",\"events_emitted\":";
    util::append_uint(out, bucket.events_emitted);
    out += ",\"events_executed\":";
    util::append_uint(out, bucket.events_executed);
    out += ",\"layers\":{";
    bool first_layer = true;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      if (bucket.layer_events[i] == 0) continue;
      if (!first_layer) out += ',';
      first_layer = false;
      util::append_quoted(out, to_string(static_cast<Layer>(i)));
      out += ':';
      util::append_uint(out, bucket.layer_events[i]);
    }
    out += "},\"deliveries\":";
    util::append_uint(out, bucket.deliveries);
    out += ",\"delivery_latency_sum\":";
    util::append_general(out, bucket.delivery_latency_sum, 17);
    out += ",\"queue_depth\":";
    util::append_uint(out, bucket.queue_depth);
    out += ",\"queue_high_water\":";
    util::append_uint(out, bucket.queue_high_water);
    out += ",\"memory\":";
    append_gauges(out, bucket.memory);
    if (include_timing) {
      out += ",\"self_seconds\":{";
      bool first_timed = true;
      for (std::size_t i = 0; i < kLayerCount; ++i) {
        if (bucket.layer_self_seconds[i] == 0.0) continue;
        if (!first_timed) out += ',';
        first_timed = false;
        util::append_quoted(out, to_string(static_cast<Layer>(i)));
        out += ':';
        util::append_general(out, bucket.layer_self_seconds[i], 17);
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace lw::obs
