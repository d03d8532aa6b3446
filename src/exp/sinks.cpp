#include "src/exp/sinks.h"

#include <unistd.h>

#include <cstdio>
#include <iostream>

#include "src/exp/aggregate.h"

namespace essat::exp {
namespace {

std::string full_precision(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        // RFC 8259: all other control characters must be \u-escaped.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ json lines

void JsonLinesSink::begin(const std::vector<std::string>& axis_names) {
  axis_names_ = axis_names;
}

void JsonLinesSink::on_point(const PointResult& r) {
  os_ << "{\"point\":" << r.point.index << ",\"labels\":{";
  for (std::size_t i = 0; i < r.point.labels.size(); ++i) {
    if (i) os_ << ',';
    const std::string& name =
        i < axis_names_.size() ? axis_names_[i] : "axis" + std::to_string(i);
    os_ << '"' << json_escape(name) << "\":\""
        << json_escape(r.point.labels[i]) << '"';
  }
  os_ << '}';
  // "runs", then each kMetricColumns mean followed by its ci90 column where
  // it has one.
  const auto field = [&](const char* name, double v) {
    os_ << ",\"" << name << "\":" << full_precision(v);
  };
  field("runs", static_cast<double>(r.metrics.duty_cycle.count()));
  for (const MetricColumn& c : kMetricColumns) {
    const util::RunningStat& s = r.metrics.*c.stat;
    field(c.name, s.mean());
    if (c.ci90_name != nullptr) field(c.ci90_name, s.ci_halfwidth());
  }
  os_ << "}\n";
  os_.flush();
}

// ------------------------------------------------------------ progress

bool ProgressReporter::stream_is_tty(const std::ostream& os) {
  if (&os == &std::cout) return isatty(STDOUT_FILENO) != 0;
  if (&os == &std::cerr || &os == &std::clog) return isatty(STDERR_FILENO) != 0;
  return false;  // string streams, files: never a terminal
}

void ProgressReporter::on_trial_done(std::size_t done, std::size_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tty_) {
    os_ << '\r' << '[' << tag_ << "] trials " << done << '/' << total;
    if (done >= total) os_ << '\n';
    os_.flush();
    return;
  }
  // Redirected output (CI logs, files): no in-place rewrites — print one
  // milestone line per completed decile instead.
  const std::size_t decile = total > 0 ? done * 10 / total : 10;
  if (decile <= last_decile_ && done < total) return;
  if (done >= total && last_decile_ >= 10) return;  // completion already shown
  last_decile_ = done >= total ? 10 : decile;
  os_ << '[' << tag_ << "] trials " << done << '/' << total << " ("
      << last_decile_ * 10 << "%)\n";
  os_.flush();
}

}  // namespace essat::exp
