#ifndef E2EBENCH_HARNESS_TRACED_H_
#define E2EBENCH_HARNESS_TRACED_H_

#include <string>
#include <utility>
#include <vector>

#include "run_loop.h"

namespace e2e {

/// Extra report fields: name -> JSON literal.
using Report = std::vector<std::pair<std::string, std::string>>;

/// The traced run: replays the workload's own op stream and times each
/// layer by calling its public entry point from outside the program
/// (ParseSql, Analyzer::Analyze, PlanVerifier::Verify, Optimizer::Optimize,
/// QueryEngine::ExecutePrepared, ipc::SerializeBatch/DeserializeBatch,
/// DeltaTableFormat::ReadPart, RunFusedPolicy, ConnectClient::Sql,
/// SparkConnectGateway::ExecuteSql, UnityCatalog mutations), with counts
/// taken as deltas of the library's *Stats structs. Returns every per-layer
/// metric; failures and oracle mismatches land in `loop`.
Metrics RunTraced(WorkloadEnv& env, double seconds, LoopResult* loop,
                  Report* report);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_TRACED_H_
