#include "obs/export.h"

#include <cstdio>

namespace setrec::obs {

namespace {

constexpr char kVersionLine[] = "# setrec-metrics v2\n";

void AppendU64(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
}

}  // namespace

bool ValidMetricsExpositionHeader(std::string_view text) {
  // v1 is accepted for old servers; v2 is what this build emits. The
  // version token must end the line — "v21" is not a known version.
  for (std::string_view known : {"# setrec-metrics v1", "# setrec-metrics v2"}) {
    if (text.size() < known.size()) continue;
    if (text.substr(0, known.size()) != known) continue;
    if (text.size() == known.size() || text[known.size()] == '\n') return true;
  }
  return false;
}

ExpositionWriter::ExpositionWriter() : out_(kVersionLine) {}

void ExpositionWriter::Head(std::string_view type, std::string_view name,
                            std::string_view labels) {
  out_.append(type);
  out_.push_back(' ');
  out_.append(name);
  out_.push_back('{');
  out_.append(labels);
  out_.push_back('}');
  out_.push_back(' ');
}

void ExpositionWriter::Counter(std::string_view name, std::string_view labels,
                               uint64_t value) {
  Head("counter", name, labels);
  AppendU64(&out_, value);
  out_.push_back('\n');
}

void ExpositionWriter::Gauge(std::string_view name, std::string_view labels,
                             uint64_t value) {
  Head("gauge", name, labels);
  AppendU64(&out_, value);
  out_.push_back('\n');
}

void ExpositionWriter::Histogram(std::string_view name,
                                 std::string_view labels,
                                 const LatencyHistogram& h) {
  Head("histogram", name, labels);
  out_.append("count=");
  AppendU64(&out_, h.count());
  out_.append(" sum=");
  AppendU64(&out_, h.sum());
  out_.append(" max=");
  AppendU64(&out_, h.max());
  out_.append(" p50=");
  AppendU64(&out_, h.p50());
  out_.append(" p90=");
  AppendU64(&out_, h.p90());
  out_.append(" p99=");
  AppendU64(&out_, h.p99());
  out_.append(" p999=");
  AppendU64(&out_, h.p999());
  out_.push_back('\n');
}

void ExpositionWriter::Rate(std::string_view name, std::string_view labels,
                            double value) {
  Head("rate", name, labels);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out_.append(buf);
  out_.push_back('\n');
}

void AppendRegistry(const MetricRegistry& reg,
                    const char* const kind_names[kProtocolKinds],
                    const char* const codec_names[kWireCodecs],
                    ExpositionWriter& w) {
  for (size_t k = 0; k < kProtocolKinds; ++k) {
    for (size_t c = 0; c < kWireCodecs; ++c) {
      std::string labels = "proto=\"";
      labels += kind_names[k];
      labels += "\",codec=\"";
      labels += codec_names[c];
      labels += "\"";
      if (reg.session_latency[k][c].count() > 0) {
        w.Histogram("setrec_session_latency_ns", labels,
                    reg.session_latency[k][c]);
      }
      if (reg.round_latency[k][c].count() > 0) {
        w.Histogram("setrec_round_latency_ns", labels,
                    reg.round_latency[k][c]);
      }
    }
  }
  if (reg.opaque_session_latency.count() > 0) {
    w.Histogram("setrec_session_latency_ns", "proto=\"opaque\"",
                reg.opaque_session_latency);
  }
  w.Histogram("setrec_flush_latency_ns", "", reg.flush_latency);
  w.Histogram("setrec_flush_occupancy_keys", "", reg.flush_occupancy);
  w.Histogram("setrec_lease_wait_ns", "", reg.lease_wait);
  w.Histogram("setrec_lease_hold_ns", "", reg.lease_hold);
  w.Counter("setrec_decode_failures", "", reg.decode_failures);
  w.Counter("setrec_retry_rounds", "", reg.retry_rounds);
}

void AppendPumpMetrics(const PumpMetrics& pm, ExpositionWriter& w) {
  w.Histogram("setrec_pump_poll_wake_ns", "", pm.poll_wake);
  w.Histogram("setrec_pump_conn_round_trip_ns", "", pm.conn_round_trip);
  w.Gauge("setrec_pump_outbuf_high_watermark_bytes", "",
          pm.outbuf_high_watermark);
  w.Counter("setrec_pump_frame_decode_failures", "",
            pm.frame_decode_failures);
  w.Counter("setrec_pump_stat_requests", "", pm.stat_requests);
  w.Counter("setrec_pump_trace_requests", "", pm.trace_requests);
  w.Histogram("setrec_pump_away_from_poll_ns", "", pm.away_from_poll);
  w.Histogram("setrec_pump_ready_fds_per_wakeup", "", pm.ready_per_wakeup);
  w.Counter("setrec_pump_poll_wakeups", "", pm.poll_wakeups);
  w.Counter("setrec_pump_timer_cascades", "", pm.timer_cascades);
  w.Counter("setrec_pump_timers_fired", "", pm.timers_fired);
  w.Counter("setrec_pump_handshake_timeouts", "", pm.handshake_timeouts);
  w.Counter("setrec_pump_idle_timeouts", "", pm.idle_timeouts);
  w.Counter("setrec_pump_admissions_rejected", "", pm.admissions_rejected);
  // One labeled gauge per backend the merged pumps ran on ("poll",
  // "epoll") — new NAMES of an existing line type, so this stays within
  // the v2 exposition contract.
  // Bit positions follow PollerKind (net/poller.h); names are duplicated
  // here so obs stays below net in the layering.
  static constexpr const char* kBackendNames[] = {nullptr, "poll", "epoll"};
  for (uint32_t kind = 1; kind <= 2; ++kind) {
    if ((pm.poller_backends & (1u << kind)) == 0) continue;
    std::string labels = "backend=\"";
    labels += kBackendNames[kind];
    labels += "\"";
    w.Gauge("setrec_pump_poller_backend", labels, 1);
  }
}

void AppendRates(const RateRing::Rates& rates, ExpositionWriter& w) {
  w.Rate("setrec_sessions_per_sec", "", rates.sessions_per_sec);
  w.Rate("setrec_bytes_per_sec", "", rates.bytes_per_sec);
  w.Rate("setrec_decode_failures_per_min", "", rates.decode_failures_per_min);
  w.Rate("setrec_rate_window_seconds", "",
         static_cast<double>(rates.span_ns) / 1e9);
}

}  // namespace setrec::obs
