#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int32_t SpanRecorder::open(const char* name, std::int32_t run,
                                bool replay) {
  Span span;
  span.name = name;
  span.start_s = epoch_->seconds();
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  span.replay = replay;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(index)].end_s = epoch_->seconds();
  open_.pop_back();
}

double SpanRecorder::counter(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void SpanRecorder::merge(const SpanRecorder& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
  for (const auto& [name, value] : other.counts_) counts_[name] += value;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s,
                                                                   span.end_s);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    out[i] = (hi - lo) - covered;
  }
  return out;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& totals = out[spans[i].name];
    totals.total_s += spans[i].duration_s();
    totals.self_s += self[i];
    ++totals.spans;
  }
  return out;
}

void write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out.precision(9);
  out << "name,start_s,end_s,parent,run,replay\n";
  for (const Span& span : spans) {
    out << span.name << ',' << span.start_s << ',' << span.end_s << ','
        << span.parent << ',' << span.run << ',' << (span.replay ? 1 : 0)
        << '\n';
  }
  if (!out) throw std::runtime_error("write failed for " + path);
}

}  // namespace perfbench
