#ifndef E2EBENCH_HARNESS_PLATFORM_DRIVER_H_
#define E2EBENCH_HARNESS_PLATFORM_DRIVER_H_

// Builds one workload's platform through the public API and runs its
// operations the way a client would: analytics and export as one Connect
// client (`ConnectClient::Sql`), interactive as four clients through the
// Spark Connect gateway (`SparkConnectGateway::ExecuteSql`).

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.h"
#include "oracle.h"
#include "workloads.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Attribution-check knobs; the benchmark's own runs keep the defaults.
  bool fuse_policies = true;
  size_t admission_slots = 2;  // interactive gateway admission; 0 = uncapped
};

struct OpOutcome {
  bool ok = false;
  double latency_ms = 0;
  double check_ms = 0;  // oracle time, outside `latency_ms`
  size_t rows = 0;
  std::string error;  // failure or oracle mismatch
};

/// Copies a result table out into plain cells for the oracle.
PlainResult ToPlain(const lakeguard::Table& table);

/// A set-up workload: platform, loaded and governed tables, open sessions,
/// and caches warmed by one pass over every operation kind.
struct WorkloadEnv {
  static constexpr const char* kAdmin = "admin";
  static constexpr const char* kAnalyst = "analyst";

  /// Throws std::runtime_error when any set-up step fails.
  static std::unique_ptr<WorkloadEnv> SetUp(const RunConfig& config);

  /// Runs `op` as `client` through the workload's entry point and checks
  /// the result against the oracle. Latency covers the public call only.
  OpOutcome Run(const Op& op, size_t client);

  /// Principal that issues `op` for `client`.
  std::string UserOf(const Op& op, size_t client) const;
  /// Oracle check of a read's result; "" when it matches.
  std::string Check(const Op& op, const std::string& user,
                    const PlainResult& result) const;
  /// Publishes interactive policy version `version` (row filter + mask in
  /// one catalog epoch) through `UnityCatalog::SetTablePolicies`.
  lakeguard::Status PublishPolicy(int64_t version);
  /// Final checks after a run (interactive: COUNT(*) of each events table
  /// against the INSERTs acknowledged into it); "" when they hold, else the
  /// first mismatch, with the number of ops it fails (each lost acknowledged
  /// INSERT) in `failed_ops`.
  std::string FinalCheck(uint64_t* failed_ops);

  size_t clients() const {
    return config.workload == "interactive" ? kInteractiveClients : 1;
  }
  const std::string& SessionOf(const Op& op, size_t client) const;

  lakeguard::Table MustSql(const std::string& sql);

  RunConfig config;
  std::unique_ptr<lakeguard::LakeguardPlatform> platform;
  /// Standard cluster: the analyst's Connect endpoint, the admin's set-up
  /// engine, and the engine the traced run times layer by layer.
  lakeguard::ClusterHandle* cluster = nullptr;
  lakeguard::ExecutionContext admin_ctx;
  std::optional<lakeguard::ConnectClient> analyst;

  FactData data;                    // analytics / export
  std::vector<AccountRow> accounts;  // interactive
  std::vector<std::string> sessions;  // by GlobalSession index
  std::string admin_session;
  std::atomic<bool> redact_published{false};
  std::array<std::atomic<uint64_t>, kTenants> inserts_acked{};  // per tenant
  /// Reads resubmitted after a fail-closed refusal because a policy change
  /// landed between their analysis and verification.
  std::atomic<uint64_t> stale_plan_retries{0};
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_PLATFORM_DRIVER_H_
