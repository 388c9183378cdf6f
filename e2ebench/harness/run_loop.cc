#include "run_loop.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "calibration.h"

namespace e2e {

namespace {

void Append(const std::vector<double>& from, std::vector<double>* to) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

void LoopResult::Add(const LoopResult& other) {
  for (size_t k = 0; k < kOpKinds; ++k) {
    Append(other.latency_ms[k], &latency_ms[k]);
  }
  Append(other.ref_ms, &ref_ms);
  Append(other.cycle_mean_ms, &cycle_mean_ms);
  Append(other.cycle_mean_ref_ms, &cycle_mean_ref_ms);
  Append(other.calibration_ms, &calibration_ms);
  attempted += other.attempted;
  failed += other.failed;
  rows += other.rows;
  wall_s += other.wall_s;
  if (first_error.empty()) first_error = other.first_error;
}

std::vector<double> LoopResult::All() const {
  std::vector<double> all;
  for (const auto& samples : latency_ms) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

std::vector<double> LoopResult::Reads() const {
  std::vector<double> out;
  for (size_t k = 0; k < kOpKinds; ++k) {
    if (IsWrite(static_cast<OpKind>(k))) continue;
    out.insert(out.end(), latency_ms[k].begin(), latency_ms[k].end());
  }
  return out;
}

std::vector<double> LoopResult::Writes() const {
  std::vector<double> out;
  for (size_t k = 0; k < kOpKinds; ++k) {
    if (!IsWrite(static_cast<OpKind>(k))) continue;
    out.insert(out.end(), latency_ms[k].begin(), latency_ms[k].end());
  }
  return out;
}

LoopResult RunClosedLoop(WorkloadEnv& env, double seconds, size_t min_ops,
                         uint64_t stream_seed) {
  const size_t clients = env.clients();
  const size_t min_per_client = (min_ops + clients - 1) / clients;
  std::vector<LoopResult> per_client(clients);
  std::vector<double> harness_ms(clients, 0.0);  // oracle and calibration
  std::atomic<bool> stop{false};

  const auto start = std::chrono::steady_clock::now();
  auto body = [&](size_t client) {
    LoopResult& mine = per_client[client];
    OpStream stream(env.config.workload, stream_seed, client);
    const size_t cycle = stream.cycle();
    // Wall time and cycle of each successful op, in issue order.
    std::vector<double> wall_ms;
    std::vector<uint64_t> cycle_of;
    double unscaled_ms = 0;
    const auto calibrate = [&] {
      const double pass_ms = TimeCalibrationPassMs();
      harness_ms[client] += pass_ms;
      mine.calibration_ms.push_back(pass_ms);
      for (size_t i = mine.ref_ms.size(); i < wall_ms.size(); ++i) {
        mine.ref_ms.push_back(wall_ms[i] * kReferencePassMs / pass_ms);
      }
      unscaled_ms = 0;
    };
    for (uint64_t issued = 0;; ++issued) {
      if (issued % cycle == 0 && issued >= min_per_client &&
          stop.load(std::memory_order_relaxed)) {
        break;
      }
      const Op op = stream.Next();
      OpOutcome outcome = env.Run(op, client);
      ++mine.attempted;
      harness_ms[client] += outcome.check_ms;
      if (!outcome.ok) {
        ++mine.failed;
        if (mine.first_error.empty()) mine.first_error = outcome.error;
        continue;
      }
      mine.rows += outcome.rows;
      mine.latency_ms[static_cast<size_t>(op.kind)].push_back(
          outcome.latency_ms);
      wall_ms.push_back(outcome.latency_ms);
      cycle_of.push_back(issued / cycle);
      unscaled_ms += outcome.latency_ms;
      if (unscaled_ms >= kCalibrateEveryMs) calibrate();
    }
    if (mine.ref_ms.size() < wall_ms.size()) calibrate();
    // Mean latency of each cycle's successful ops, wall and reference.
    for (size_t i = 0; i < wall_ms.size();) {
      size_t j = i;
      double wall_sum = 0;
      double ref_sum = 0;
      for (; j < wall_ms.size() && cycle_of[j] == cycle_of[i]; ++j) {
        wall_sum += wall_ms[j];
        ref_sum += mine.ref_ms[j];
      }
      mine.cycle_mean_ms.push_back(wall_sum / (j - i));
      mine.cycle_mean_ref_ms.push_back(ref_sum / (j - i));
      i = j;
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) threads.emplace_back(body, c);
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
  });
  body(0);
  for (std::thread& t : threads) t.join();
  timer.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  LoopResult total;
  double harness_total_ms = 0;
  for (size_t c = 0; c < clients; ++c) {
    total.Add(per_client[c]);
    harness_total_ms += harness_ms[c];
  }
  total.wall_s = wall - harness_total_ms / 1000.0 / clients;
  return total;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace e2e
