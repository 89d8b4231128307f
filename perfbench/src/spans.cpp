#include "spans.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace perfbench {

std::atomic<bool> g_tracing{false};

namespace {

constexpr const char* kNames[kKindCount] = {
    "x11.input",
    "x11.copy",
    "x11.paste",
    "x11.get_image",
    "x11.forged",
    "wl.input",
    "wl.copy",
    "wl.receive",
    "wl.screencopy",
    "wl.forged",
    "kern.open_device",
    "kern.open_denied",
    "kern.close",
    "kern.monitor.check",
    "kern.fork",
    "kern.exit",
    "kern.ipc.setup",
    "kern.ipc.pipe_hop",
    "kern.ipc.socket_hop",
    "kern.ipc.pty_hop",
    "kern.ipc.posix_mq_hop",
    "kern.ipc.sysv_mq_hop",
    "kern.shm.write",
    "kern.fs.create",
    "audit.readback",
    "obs.metrics_read",
    "display.drain",
    "fleet.beat",
    "fleet.xshard_send",
    "fleet.xshard_recv",
    "sim.quantum",
    "sim.advance",
};

std::mutex g_reg_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_reg_mu
thread_local ThreadBuf* t_buf = nullptr;

}  // namespace

const char* kind_name(Kind k) { return kNames[static_cast<int>(k)]; }

std::string kind_module(Kind k) {
  const std::string name = kind_name(k);
  return name.substr(0, name.find('.'));
}

ThreadBuf::ThreadBuf() : stats(kKindCount) {
  stack.reserve(64);
  records.reserve(kRecordCap);
}

ThreadBuf& local_buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_reg_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
    t_buf->tid = static_cast<int>(g_bufs.size());
  }
  return *t_buf;
}

std::vector<ThreadBuf*> all_bufs() {
  std::lock_guard<std::mutex> lock(g_reg_mu);
  std::vector<ThreadBuf*> out;
  for (auto& b : g_bufs) out.push_back(b.get());
  return out;
}

void Span::begin(Kind kind) {
  buf_ = &local_buf();
  std::int32_t rec = -1;
  if (buf_->records.size() < ThreadBuf::kRecordCap) {
    rec = static_cast<std::int32_t>(buf_->records.size());
    const std::int32_t parent =
        buf_->stack.empty() ? -1 : buf_->stack.back().rec;
    buf_->records.push_back({kind, parent, 0, 0, buf_->ctx});
  } else {
    ++buf_->records_dropped;
  }
  buf_->stack.push_back({kind, now_ns(), 0, rec});
}

void Span::end() {
  const std::int64_t end = now_ns();
  ThreadBuf::Frame f = buf_->stack.back();
  buf_->stack.pop_back();
  const std::int64_t dur = end - f.start;
  KindStats& s = buf_->stats[static_cast<int>(f.kind)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - f.child_ns;
  s.hist.add(dur);
  if (!buf_->stack.empty()) buf_->stack.back().child_ns += dur;
  if (f.rec >= 0) {
    ThreadBuf::Record& r = buf_->records[static_cast<std::size_t>(f.rec)];
    r.kind = f.kind;
    r.start = f.start;
    r.end = end;
  }
}

std::vector<KindStats> merged_stats() {
  std::vector<KindStats> out(kKindCount);
  for (ThreadBuf* b : all_bufs()) {
    for (int k = 0; k < kKindCount; ++k) {
      out[k].count += b->stats[k].count;
      out[k].total_ns += b->stats[k].total_ns;
      out[k].self_ns += b->stats[k].self_ns;
      out[k].hist.merge(b->stats[k].hist);
    }
  }
  return out;
}

std::int64_t attributed_self_ns(const ThreadBuf& buf) {
  std::int64_t total = 0;
  for (const KindStats& s : buf.stats) total += s.self_ns;
  return total;
}

bool write_chrome_trace(const std::string& path, std::string* error) {
  std::int64_t t0 = 0;
  bool have_t0 = false;
  const std::vector<ThreadBuf*> bufs = all_bufs();
  for (ThreadBuf* b : bufs)
    for (const auto& r : b->records)
      if (r.end != 0 && (!have_t0 || r.start < t0)) {
        t0 = r.start;
        have_t0 = true;
      }
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char num[160];
  for (ThreadBuf* b : bufs) {
    for (std::size_t i = 0; i < b->records.size(); ++i) {
      const auto& r = b->records[i];
      if (r.end == 0) continue;  // still open at export (never happens)
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      out += overhaul::obs::json::quote(kind_name(r.kind));
      out += ",\"cat\":";
      out += overhaul::obs::json::quote(kind_module(r.kind));
      std::snprintf(num, sizeof(num),
                    ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                    "\"tid\":%d,\"args\":{\"id\":%zu,\"parent\":%d,"
                    "\"ctx\":%llu}}",
                    static_cast<double>(r.start - t0) / 1e3,
                    static_cast<double>(r.end - r.start) / 1e3, b->tid, i,
                    r.parent, static_cast<unsigned long long>(r.ctx));
      out += num;
    }
  }
  out += "]}";
  if (!overhaul::obs::json::validate(out, error)) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
