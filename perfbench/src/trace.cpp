#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> tOpenSpans;

std::uint32_t threadNumber() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

void appendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    problems.push_back(what);
  }
}

double nowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

namespace {

std::vector<int> currentCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

}  // namespace

double rotatedMedian(const std::vector<double>& perRound) {
  const std::size_t slots = currentCpus().size();
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::vector<double> v;
    for (std::size_t r = slot; r < perRound.size(); r += slots) {
      v.push_back(perRound[r]);
    }
    if (v.empty()) continue;
    sum += median(std::move(v));
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

CpuRotation::CpuRotation(std::size_t round, unsigned width)
    : saved_(currentCpus()) {
  std::vector<int> pick;
  for (unsigned k = 0; k < width && k < saved_.size(); ++k) {
    pick.push_back(saved_[(round + k) % saved_.size()]);
  }
  pinTo(pick);
}

CpuRotation::~CpuRotation() {
  try {
    pinTo(saved_);
  } catch (const std::exception&) {
    // The mask only narrows placement; a failed restore cannot affect
    // results, and a destructor must not throw.
  }
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, bool probe,
                     std::uint64_t request)
    : tracer_(tracer), index_(tracer.open(name, probe, request)) {}

Tracer::Scope::~Scope() { tracer_.close(index_); }

std::int64_t Tracer::open(const char* name, bool probe, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = tOpenSpans.empty() ? -1 : tOpenSpans.back();
  s.request = request;
  s.probe = probe;
  s.thread = threadNumber();
  s.start = nowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  tOpenSpans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const double end = nowSeconds();
  if (tOpenSpans.empty() || tOpenSpans.back() != index) {
    throw std::logic_error("trace spans closed out of order");
  }
  tOpenSpans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::int64_t Tracer::add(const std::string& name, double start, double end,
                         std::int64_t parent, std::uint64_t request) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.request = request;
  s.thread = threadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

double Tracer::totalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<double> Tracer::childSums(
    const std::string& parent, const std::vector<std::string>& children) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  std::map<std::int64_t, std::size_t> slot;  // parent span -> index in out
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == parent) {
      slot[static_cast<std::int64_t>(i)] = out.size();
      out.push_back(0.0);
    }
  }
  for (const Span& s : spans_) {
    const auto it = slot.find(s.parent);
    if (it == slot.end()) continue;
    if (std::find(children.begin(), children.end(), s.name) != children.end()) {
      out[it->second] += s.end - s.start;
    }
  }
  return out;
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may overlap (concurrent requests under one rate step), so
    // subtract the union of their intervals clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double curStart = 0.0;
    double curEnd = -1.0;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, s.start);
      const double b = std::min(b0, s.end);
      if (b <= a) continue;
      if (a > curEnd) {
        if (curEnd > curStart) covered += curEnd - curStart;
        curStart = a;
        curEnd = b;
      } else {
        curEnd = std::max(curEnd, b);
      }
    }
    if (curEnd > curStart) covered += curEnd - curStart;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

void Tracer::writeChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"name\":";
    appendJsonString(out, s.name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
                  "\"probe\":%s}}",
                  s.thread, s.start * 1e6, (s.end - s.start) * 1e6, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  s.probe ? "true" : "false");
    out += buf;
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("short write to trace " + path);
  }
}

}  // namespace perfbench
