#include "util/audit_report.h"

#include <algorithm>
#include <cstdio>

namespace overhaul::util {

std::uint64_t AppUsage::total_grants() const {
  std::uint64_t n = 0;
  for (const auto& [op, count] : grants) {
    (void)op;
    n += count;
  }
  return n;
}

std::uint64_t AppUsage::total_denials() const {
  std::uint64_t n = 0;
  for (const auto& [op, count] : denials) {
    (void)op;
    n += count;
  }
  return n;
}

std::vector<std::string> AuditReport::apps_granted(Op op) const {
  std::vector<std::string> out;
  for (const auto& app : apps) {
    if (const auto it = app.grants.find(op);
        it != app.grants.end() && it->second > 0)
      out.push_back(app.comm);
  }
  return out;
}

std::vector<std::string> AuditReport::apps_denied(Op op) const {
  std::vector<std::string> out;
  for (const auto& app : apps) {
    if (const auto it = app.denials.find(op);
        it != app.denials.end() && it->second > 0)
      out.push_back(app.comm);
  }
  return out;
}

const AppUsage* AuditReport::find(const std::string& comm) const {
  for (const auto& app : apps) {
    if (app.comm == comm) return &app;
  }
  return nullptr;
}

std::string AuditReport::to_string() const {
  std::string out =
      "application        op     grants  denials\n";
  char line[128];
  for (const auto& app : apps) {
    std::map<Op, std::pair<std::uint64_t, std::uint64_t>> merged;
    for (const auto& [op, n] : app.grants) merged[op].first = n;
    for (const auto& [op, n] : app.denials) merged[op].second = n;
    for (const auto& [op, counts] : merged) {
      std::snprintf(line, sizeof(line), "%-18s %-6s %6llu %8llu\n",
                    app.comm.c_str(), std::string(op_name(op)).c_str(),
                    static_cast<unsigned long long>(counts.first),
                    static_cast<unsigned long long>(counts.second));
      out += line;
    }
  }
  return out;
}

AuditReport build_report(const std::vector<AuditRecord>& records) {
  std::map<std::string, AppUsage> by_comm;
  for (const auto& rec : records) {
    AppUsage& usage = by_comm[rec.comm];
    usage.comm = rec.comm;
    if (rec.decision == Decision::kGrant) {
      ++usage.grants[rec.op];
    } else {
      ++usage.denials[rec.op];
    }
  }
  AuditReport report;
  report.apps.reserve(by_comm.size());
  for (auto& [comm, usage] : by_comm) {
    (void)comm;
    report.apps.push_back(std::move(usage));
  }
  return report;  // std::map iteration already sorted by comm
}

}  // namespace overhaul::util
