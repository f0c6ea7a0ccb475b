#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "netbase/rng.h"
#include "netbase/telemetry.h"
#include "trace.h"

namespace perfbench {

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Record::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

double Record::value(const std::string& name, double fallback) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? fallback : it->second.first;
}

void Record::samples(const std::string& name, const std::vector<double>& ms) {
  samples_[name] = ms;
}

void Record::count(const std::string& name, std::uint64_t n) {
  counts_[name] += n;
}

void Record::info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

void Record::op(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Record::fail(const std::string& why) {
  // Keep the report short: the first few reasons say what went wrong.
  if (problems_.size() < 20) problems_.push_back(why);
}

std::string Record::json() const {
  std::string out = "{\"correct\":";
  out += correct() && failed_ == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ",";
    first = false;
    append_json_string(out, name);
    out += ":{\"value\":" + number(v.first) + ",\"unit\":";
    append_json_string(out, v.second);
    out += "}";
  }
  out += "},\"counts\":{";
  first = true;
  for (const auto& [name, n] : counts_) {
    if (!first) out += ",";
    first = false;
    append_json_string(out, name);
    out += ":" + std::to_string(n);
  }
  out += "},\"samples_ms\":{";
  first = true;
  for (const auto& [name, values] : samples_) {
    if (!first) out += ",";
    first = false;
    append_json_string(out, name);
    out += ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, i == 0 ? "%.4f" : ",%.4f", values[i]);
      out += buf;
    }
    out += "]";
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    if (!first) out += ",";
    first = false;
    append_json_string(out, key);
    out += ":";
    append_json_string(out, value);
  }
  out += "},\"problems\":[";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    if (i > 0) out += ",";
    append_json_string(out, problems_[i]);
  }
  out += "]}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double ops_per_second(const std::vector<double>& op_ms) {
  const double total_ms = mean(op_ms) * static_cast<double>(op_ms.size());
  return total_ms > 0 ? static_cast<double>(op_ms.size()) * 1e3 / total_ms : 0;
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 100.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool same_census(const anyopt::measure::Census& a,
                 const anyopt::measure::Census& b) {
  const auto same_bytes = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof x[0]) == 0);
  };
  return same_bytes(a.site_of_target, b.site_of_target) &&
         same_bytes(a.attachment_of_target, b.attachment_of_target) &&
         same_bytes(a.rtt_ms, b.rtt_ms);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t label,
                     std::uint64_t index) {
  return anyopt::mix64(anyopt::mix64(anyopt::mix64(seed) ^ label) + index);
}

void record_self_times(Record& record) {
  static const char* const kLayers[] = {"bench", "topo",  "anycast",
                                        "bgp",   "measure", "core",
                                        "agility", "serve"};
  const std::map<std::string, double> self = Tracer::global().self_seconds();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    record.metric(std::string("self.") + layer + "_s",
                  it == self.end() ? 0.0 : it->second, "s");
  }
}

void record_registry_metrics(Record& record, std::uint64_t overlay_units) {
  const auto& reg = anyopt::telemetry::Registry::global();
  const auto c = [&](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };
  const auto per = [](double n, double d) { return d > 0 ? n / d : 0.0; };
  const double hits = c("bgp.resolve.cache_hit");
  const double lookups = hits + c("bgp.resolve.cache_miss");
  record.metric("bgp.resolve_hit_rate", per(hits, lookups), "ratio");
  const double n_census = c("measure.censuses");
  const double sent = c("measure.probes.sent");
  record.metric("measure.probes_per_census", per(sent, n_census), "count");
  record.metric("measure.probe_loss_rate", per(c("measure.probes.lost"), sent),
                "ratio");
  record.metric("measure.probe_retries", per(c("probe.retries"), n_census),
                "count");
  const double n_pairs = static_cast<double>(overlay_units);
  record.metric("bgp.overlay_delta_events",
                per(c("sim.overlay.delta_events"), n_pairs), "count");
  record.metric("bgp.overlay_copied_as",
                per(c("sim.overlay.copied_as"), n_pairs), "count");
  const auto mb = [&](const char* gauge) {
    return static_cast<double>(reg.gauge_max(gauge)) / (1024.0 * 1024.0);
  };
  record.metric("bgp.rib_mb", mb("bytes.rib"), "MB");
  record.metric("bgp.sim_scratch_mb", mb("bytes.sim_scratch"), "MB");
  record.metric("bgp.overlay_pages_mb", mb("bytes.overlay_pages"), "MB");
  record.metric("measure.census_shards_mb", mb("bytes.census_shards"), "MB");
  record.count("measure.censuses", reg.counter_value("measure.censuses"));
  record.count("measure.probes_sent", reg.counter_value("measure.probes.sent"));
  record.count("bgp.sim_events", reg.counter_value("bgp.sim.events"));
  record.count("bgp.overlay_copied_as",
               reg.counter_value("sim.overlay.copied_as"));
}

}  // namespace perfbench
