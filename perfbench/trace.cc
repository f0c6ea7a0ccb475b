#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(std::string name, std::string layer,
                          std::int64_t op, bool untimed) {
  SpanRecord span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.op = op;
  span.untimed = untimed;
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    span.id = id;
    spans_.push_back(std::move(span));
  }
  t_open.push_back(id);
  // Read the clock last so the bookkeeping above is not inside the span.
  const double start = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_s = start;
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<double> child_time(all.size(), 0.0);
  for (const SpanRecord& s : all) {
    if (s.untimed || s.parent < 0) continue;
    child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : all) {
    if (s.untimed) continue;
    self[s.layer] +=
        (s.end_s - s.start_s) - child_time[static_cast<std::size_t>(s.id)];
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const SpanRecord& s : spans()) {
    std::string line = "{\"id\":" + std::to_string(s.id) +
                       ",\"parent\":" + std::to_string(s.parent) +
                       ",\"op\":" + std::to_string(s.op) + ",\"name\":\"";
    append_escaped(line, s.name);
    line += "\",\"layer\":\"";
    append_escaped(line, s.layer);
    char buf[96];
    std::snprintf(buf, sizeof buf, "\",\"start_s\":%.9f,\"end_s\":%.9f",
                  s.start_s, s.end_s);
    line += buf;
    line += s.untimed ? ",\"untimed\":true}\n" : ",\"untimed\":false}\n";
    ok = ok && std::fputs(line.c_str(), f) >= 0;
  }
  return std::fclose(f) == 0 && ok;
}

Span::Span(const char* name, const char* layer, std::int64_t op, bool untimed) {
  Tracer& tracer = Tracer::global();
  if (tracer.enabled()) id_ = tracer.open(name, layer, op, untimed);
}

Span::~Span() {
  if (id_ >= 0) Tracer::global().close(id_);
}

}  // namespace perfbench
