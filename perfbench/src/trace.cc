#include "trace.h"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {
// Innermost open span of this thread (parent of the next one).
thread_local int64_t t_open_span = -1;
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr || !tracer_->enabled_) {
    tracer_ = nullptr;
    start_ = Clock::now();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

double Tracer::Span::End() {
  if (ms_ >= 0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (tracer_ != nullptr) {
    t_open_span = parent_;
    const double start_us =
        std::chrono::duration<double, std::micro>(start_ - tracer_->origin_)
            .count();
    tracer_->Add({name_, id_, parent_,
                  std::hash<std::thread::id>{}(std::this_thread::get_id()),
                  start_us, ms_ * 1000.0});
  }
  return ms_;
}

void Tracer::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

void Tracer::Count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counts_[name].push_back(value);
}

std::vector<double> Tracer::Counts(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(name);
  return it == counts_.end() ? std::vector<double>() : it->second;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%llu,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld}}%s\n",
                 r.name, r.start_us, r.dur_us,
                 static_cast<unsigned long long>(r.tid % 1000000),
                 static_cast<long long>(r.id), static_cast<long long>(r.parent),
                 i + 1 < records_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
