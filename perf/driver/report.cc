#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perf.h"

namespace uic::perf {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  MutexLock lock(mu_);
  metrics_[name] = {value, unit};
}

void Report::CountOp(bool ok) {
  MutexLock lock(mu_);
  ++attempted_;
  if (!ok) ++failed_;
}

std::string Report::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"correct\":";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += serve::JsonEscape(name) + ":{\"value\":" +
           serve::JsonNumberToString(metric.first) +
           ",\"unit\":" + serve::JsonEscape(metric.second) + "}";
  }
  out += "}}";
  return out;
}

std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> families;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    const size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) {
      continue;
    }
    families[line.substr(0, name_end)] +=
        std::strtod(line.c_str() + value_at + 1, nullptr);
  }
  return families;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

}  // namespace uic::perf
