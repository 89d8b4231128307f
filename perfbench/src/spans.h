// Host wall-clock spans recorded by the benchmark around its calls into the
// system's modules (core, x11, wl, display, kern, audit, obs, fleet, sim).
// Nothing inside src/ is instrumented: a span's self time is the time the
// named public call took minus the time of spans the benchmark opened
// inside it (a fleet beat's checks, say).
//
// Every thread gets a preallocated buffer on first use. A span costs two
// steady_clock reads and a stack push/pop; per-kind statistics (count,
// total, self time, log-linear latency histogram) are folded in as each
// span closes, and the first kRecordCap spans per thread are also kept raw
// for the Chrome trace_event export written once at exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

enum class Kind : std::uint8_t {
  kX11Input,
  kX11Copy,
  kX11Paste,
  kX11GetImage,
  kX11Forged,
  kWlInput,
  kWlCopy,
  kWlReceive,
  kWlScreencopy,
  kWlForged,
  kKernOpenDevice,
  kKernOpenDenied,
  kKernClose,
  kKernCheck,
  kKernFork,
  kKernExit,
  kKernIpcSetup,
  kKernIpcPipe,
  kKernIpcSocket,
  kKernIpcPty,
  kKernIpcPosixMq,
  kKernIpcSysvMq,
  kKernShmWrite,
  kKernFsCreate,
  kAuditReadback,
  kObsMetricsRead,
  kDisplayDrain,
  kFleetBeat,
  kFleetXshardSend,
  kFleetXshardRecv,
  kSimQuantum,
  kSimAdvance,
  kCount
};

inline constexpr int kKindCount = static_cast<int>(Kind::kCount);

// "kern.monitor.check" etc.; the module is the text before the first dot.
const char* kind_name(Kind k);
std::string kind_module(Kind k);

// Tracing is switched per loop unit by the coordinator thread, between
// engine quanta, so worker lanes see a stable value for a whole quantum.
extern std::atomic<bool> g_tracing;
inline bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

struct KindStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  LogHistogram hist;
};

struct ThreadBuf {
  static constexpr std::size_t kRecordCap = 50'000;
  struct Frame {
    Kind kind;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t rec;
  };
  struct Record {
    Kind kind;
    std::int32_t parent;
    std::int64_t start;
    std::int64_t end;
    std::uint64_t ctx;
  };

  int tid = 0;
  std::vector<Frame> stack;
  std::vector<Record> records;
  std::uint64_t records_dropped = 0;
  std::vector<KindStats> stats;
  // Session or beat id stamped on every span opened by this thread.
  std::uint64_t ctx = 0;
  // Host time this thread spent inside fleet beats (fleet_mixed's lane
  // busy time; read by the coordinator after each quantum's barrier).
  std::int64_t beat_ns = 0;
  // Untraced samples a worker lane produces (fleet grant latencies, µs).
  std::vector<double> samples;

  ThreadBuf();
};

// This thread's buffer (registered on first use; lives until exit).
ThreadBuf& local_buf();
// Every registered buffer, in registration order. Call only while no other
// thread is recording (after a barrier or a join).
std::vector<ThreadBuf*> all_bufs();

class Span {
 public:
  explicit Span(Kind kind) {
    if (tracing()) begin(kind);
  }
  ~Span() {
    if (buf_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Rename before close (an open() span becomes open_device or
  // open_denied once the verdict is known).
  void set_kind(Kind kind) {
    if (buf_ != nullptr) buf_->stack.back().kind = kind;
  }

 private:
  void begin(Kind kind);
  void end();
  ThreadBuf* buf_ = nullptr;
};

// Merged statistics for every kind across all threads.
std::vector<KindStats> merged_stats();

// Chrome trace_event JSON of the recorded spans; validated with
// obs::json::validate before it is written. Returns false on any failure.
bool write_chrome_trace(const std::string& path, std::string* error);

// Self time the calling thread attributed to any span, in ns.
std::int64_t attributed_self_ns(const ThreadBuf& buf);

}  // namespace perfbench
