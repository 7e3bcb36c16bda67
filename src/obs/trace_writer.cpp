#include "obs/trace_writer.h"

#include "packet/packet.h"
#include "util/json.h"

namespace lw::obs {

void TraceWriter::on_event(const Event& event) {
  using util::append_uint;
  out_ += "{\"t\":";
  util::append_fixed(out_, event.t, 9);
  out_ += ",\"layer\":\"";
  out_ += to_string(layer_of(event.kind));
  out_ += "\",\"event\":\"";
  out_ += to_string(event.kind);
  out_ += "\",\"node\":";
  append_uint(out_, event.node);
  if (event.peer != kInvalidNode) {
    out_ += ",\"peer\":";
    append_uint(out_, event.peer);
  }
  if (event.packet != nullptr) {
    out_ += ",\"pkt\":\"";
    out_ += pkt::to_string(event.packet->type);
    out_ += "\",\"origin\":";
    append_uint(out_, event.packet->origin);
    out_ += ",\"seq\":";
    append_uint(out_, event.packet->seq);
    out_ += ",\"lin\":";
    append_uint(out_, event.packet->lineage);
  }
  if (event.kind == EventKind::kMonSuspicion) {
    out_ += event.detail == kSuspicionDrop      ? ",\"sus\":\"drop\""
            : event.detail == kSuspicionAnomaly ? ",\"sus\":\"anom\""
                                                : ",\"sus\":\"fab\"";
  }
  if (event.def != 0) {
    // Non-default backend attribution; omitted for the default LITEWORP
    // monitor so pre-existing golden traces stay byte-identical.
    out_ += ",\"def\":\"";
    out_ += to_string(static_cast<DefenseTag>(event.def));
    out_ += '"';
  }
  if (event.value != 0.0) {
    out_ += ",\"value\":";
    util::append_general(out_, event.value, 9);
  }
  out_ += "}\n";
}

}  // namespace lw::obs
