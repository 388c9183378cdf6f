#include "traced.h"

#include <chrono>
#include <map>
#include <stdexcept>
#include <tuple>

#include "columnar/ipc.h"
#include "engine/analyzer.h"
#include "engine/optimizer.h"
#include "engine/plan_verifier.h"
#include "expr/compiler/policy_eval_cache.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "json.h"
#include "sql/parser.h"
#include "stats.h"
#include "storage/delta_table.h"

namespace e2e {

using lakeguard::ExecutionContext;
using lakeguard::PlanKind;
using lakeguard::PlanPtr;
using lakeguard::RecordBatch;
using lakeguard::Status;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

template <typename T>
T Must(lakeguard::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(*result);
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-op layer times (ms) of one replayed read.
struct LayerSample {
  OpKind kind = OpKind::kAgg;
  double path = 0;      // the workload's own entry point, end to end
  double connect = 0;   // ConnectClient::Sql
  double gateway = 0;   // SparkConnectGateway::ExecuteSql
  double engine = 0;    // PrepareSql + ExecutePrepared + draining, one call
  double parse = 0;
  double analyze = 0;
  double verify = 0;    // after analysis + after optimization
  double optimize = 0;
  double execute = 0;   // ExecutePrepared + draining the stream
  double ipc_encode = 0;
  double ipc_decode = 0;
  double frame_bytes = 0;
  double rows = 0;
  double rows_scanned = 0;
  double peak_bytes = 0;
  double bytes_read = 0;
  double sandbox_batches = 0;
  double fetches = 0;
  double connect_wait_us = 0;
  bool connect_queued = false;
};

std::vector<double> Column(const std::vector<LayerSample>& samples,
                           double LayerSample::*field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const LayerSample& s : samples) out.push_back(s.*field);
  return out;
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

/// The policy region of `SELECT * FROM table` as analyzed for a principal:
/// the raw scan plus the row-filter and per-column mask expressions.
struct PolicyRegion {
  std::string table;
  std::string root;
  std::string token;
  lakeguard::Schema raw;
  lakeguard::ExprPtr row_filter;
  std::vector<lakeguard::ExprPtr> masks;  // null = passthrough
  /// The mask projection as the interpreted operators run it: every output
  /// column, passthroughs included (empty when no column is masked).
  std::vector<lakeguard::ExprPtr> projection;
};

PolicyRegion FindPolicyRegion(lakeguard::LakeguardPlatform& platform,
                              const ExecutionContext& ctx,
                              const std::string& table) {
  auto parsed = Must(lakeguard::ParseSql("SELECT * FROM " + table), "parse");
  const PlanPtr plan = std::get<lakeguard::SelectStatement>(parsed).plan;
  lakeguard::Analyzer analyzer(&platform.catalog(), ctx,
                               &platform.extensions());
  auto analysis = Must(analyzer.Analyze(plan), "analyze " + table);
  PlanPtr node = analysis.plan;
  while (node->kind() != PlanKind::kSecureView) {
    auto children = node->children();
    if (children.size() != 1) throw std::runtime_error("no policy region");
    node = children[0];
  }
  PolicyRegion region;
  node = static_cast<const lakeguard::SecureViewNode&>(*node).child();
  const lakeguard::ProjectNode* mask_project = nullptr;
  if (node->kind() == PlanKind::kProject) {
    mask_project = static_cast<const lakeguard::ProjectNode*>(node.get());
    node = mask_project->child();
  }
  if (node->kind() == PlanKind::kFilter) {
    const auto& filter = static_cast<const lakeguard::FilterNode&>(*node);
    region.row_filter = filter.condition();
    node = filter.child();
  }
  if (node->kind() != PlanKind::kResolvedScan) {
    throw std::runtime_error("policy region without a scan");
  }
  const auto& scan = static_cast<const lakeguard::ResolvedScanNode&>(*node);
  region.table = scan.table_name();
  region.root = scan.storage_root();
  region.raw = scan.schema();
  region.token = analysis.read_tokens.at(region.table);
  region.masks.resize(region.raw.num_fields());
  if (mask_project != nullptr) {
    region.projection = mask_project->exprs();
    for (size_t i = 0; i < region.raw.num_fields(); ++i) {
      const auto& e = mask_project->exprs()[i];
      if (e->kind() != lakeguard::ExprKind::kColumnRef) region.masks[i] = e;
    }
  }
  return region;
}

/// One full scan of the region's table: part decode time, and the policy
/// kernel (fused program, or the interpreted row filter + mask projection
/// when fusion is off) over the same raw batches, sliced as the scan
/// slices them.
struct ScanCost {
  double read_part_ms = 0;
  double policy_kernel_ms = 0;
  double bytes = 0;
  double rows = 0;
};

ScanCost MeasureFullScan(lakeguard::LakeguardPlatform& platform,
                         const ExecutionContext& ctx,
                         const PolicyRegion& region,
                         const lakeguard::ExecutionOptions& exec) {
  lakeguard::DeltaTableFormat format(&platform.store());
  auto manifest = Must(format.LoadManifest(region.token, region.root),
                       "load manifest");
  ScanCost cost;
  const uint64_t bytes_before = platform.store().stats().bytes_read;
  std::vector<RecordBatch> parts;
  auto start = Clock::now();
  for (const auto& part : manifest.parts) {
    parts.push_back(Must(format.ReadPart(region.token, part), "read part"));
  }
  cost.read_part_ms = MsSince(start);
  cost.bytes =
      static_cast<double>(platform.store().stats().bytes_read - bytes_before);

  lakeguard::EvalContext eval;
  eval.current_user = ctx.user;
  const lakeguard::UserDirectory* users = &platform.catalog().users();
  eval.is_group_member = [users](const std::string& u, const std::string& g) {
    return users->IsMember(u, g);
  };
  eval.user_attribute = [users](const std::string& u, const std::string& k) {
    auto value = users->GetAttribute(u, k);
    return value.ok() ? *value : std::string();
  };
  std::optional<lakeguard::FusedPolicyProgram> program;
  if (exec.fuse_policies) {
    program = Must(lakeguard::CompileFusedPolicy(
                       region.table, ctx.user, platform.catalog().epoch(),
                       region.raw, region.row_filter, region.masks),
                   "compile fused policy");
  }
  const size_t slice = exec.batch_size == 0 ? SIZE_MAX : exec.batch_size;
  start = Clock::now();
  for (const RecordBatch& part : parts) {
    for (size_t off = 0; off < part.num_rows(); off += slice) {
      const RecordBatch batch =
          part.Slice(off, std::min(slice, part.num_rows() - off));
      cost.rows += static_cast<double>(batch.num_rows());
      if (program) {
        Must(lakeguard::RunFusedPolicy(*program, nullptr, batch, eval),
             "fused policy");
        continue;
      }
      RecordBatch kept = batch;
      if (region.row_filter) {
        kept = batch.Filter(Must(lakeguard::EvaluatePredicateMask(
                                     region.row_filter, batch, eval),
                                 "row filter"));
      }
      for (const auto& expr : region.projection) {
        Must(lakeguard::EvaluateExpr(expr, kept, eval), "mask projection");
      }
    }
  }
  cost.policy_kernel_ms = MsSince(start);
  return cost;
}

/// Times one catalog mutation (the policy or grant DDL of `op`) by calling
/// UnityCatalog directly, as the SQL command would.
double TimeCatalogMutation(WorkloadEnv& env, const Op& op) {
  auto start = Clock::now();
  if (op.kind == OpKind::kPolicy) {
    MustOk(env.PublishPolicy(op.param), "publish policy");
    return MsSince(start) * 1000;
  }
  auto parsed = Must(lakeguard::ParseSql(OpSql(op, WorkloadEnv::kAdmin)),
                     "parse grant");
  const auto& grant = std::get<lakeguard::GrantStatement>(parsed);
  const auto privilege =
      Must(lakeguard::PrivilegeFromName(grant.privilege), "privilege");
  auto& catalog = env.platform->catalog();
  start = Clock::now();
  MustOk(grant.revoke ? catalog.Revoke(WorkloadEnv::kAdmin, grant.securable,
                                       privilege, grant.principal)
                      : catalog.Grant(WorkloadEnv::kAdmin, grant.securable,
                                      privilege, grant.principal),
         "grant/revoke");
  return MsSince(start) * 1000;
}

class Tracer {
 public:
  Tracer(WorkloadEnv& env, LoopResult* loop) : env_(env), loop_(loop) {}

  /// Replays read `op` once per layer entry point; false if any call or
  /// oracle check failed (recorded in the loop).
  bool ReplayRead(const Op& op, size_t client, LayerSample* out) {
    out->kind = op.kind;
    const std::string user = env_.UserOf(op, client);
    const std::string sql = OpSql(op, user);
    auto& platform = *env_.platform;
    lakeguard::ConnectClient& client_conn = ConnectClientFor(user);
    const ExecutionContext& ctx = ContextFor(user);
    lakeguard::ConnectService& service = *env_.cluster->service;

    // The workload's own path (oracle-checked like an untraced op).
    // Analytics and export take the Connect path on the standard cluster
    // here; interactive reaches Connect through the gateway, so it is timed
    // on the standard cluster separately below.
    const auto svc_before = service.service_stats();
    OpOutcome path = env_.Run(op, client);
    if (!Record(path)) return false;
    out->path = path.latency_ms;
    if (env_.config.workload == "interactive") {
      auto start = Clock::now();
      auto result = client_conn.Sql(sql);
      out->connect = MsSince(start);
      if (!Record(result, op, user)) return false;
    } else {
      out->connect = path.latency_ms;
    }
    const auto svc_after = service.service_stats();
    out->fetches = static_cast<double>(svc_after.fetches - svc_before.fetches);
    out->connect_wait_us = static_cast<double>(svc_after.queue_wait_micros -
                                               svc_before.queue_wait_micros);
    out->connect_queued =
        svc_after.queued_operations != svc_before.queued_operations;

    // Gateway for the same SQL and principal.
    if (env_.config.workload == "interactive") {
      out->gateway = path.latency_ms;
    } else {
      const std::string& session = GatewaySessionFor(user);
      auto start = Clock::now();
      auto result = platform.gateway().ExecuteSql(session, sql);
      out->gateway = MsSince(start);
      if (!Record(result, op, user)) return false;
    }

    // The engine's own end-to-end call, timed whole: Connect's overhead is
    // measured against it, and the layer times below must add up to it.
    auto start = Clock::now();
    {
      auto whole = env_.cluster->engine->PrepareSql(sql, ctx);
      if (!Record(whole.status(), op)) return false;
      auto drained = env_.cluster->engine->ExecutePrepared(std::move(*whole),
                                                           ctx);
      if (!Record(drained.status(), op)) return false;
      while (true) {
        auto next = (*drained)->Next();
        if (!Record(next.status(), op)) return false;
        if (!next->has_value()) break;
      }
    }
    out->engine = MsSince(start);

    // Prepare, layer by layer.
    start = Clock::now();
    auto parsed = lakeguard::ParseSql(sql);
    out->parse = MsSince(start);
    if (!Record(parsed.status(), op)) return false;
    const PlanPtr plan = std::get<lakeguard::SelectStatement>(*parsed).plan;
    start = Clock::now();
    lakeguard::Analyzer analyzer(&platform.catalog(), ctx,
                                 &platform.extensions());
    auto analysis = analyzer.Analyze(plan);
    out->analyze = MsSince(start);
    if (!Record(analysis.status(), op)) return false;
    const auto& engine = *env_.cluster->engine;
    lakeguard::PlanVerifier verifier(&platform.catalog(),
                                     engine.config().exec.isolate_udfs);
    start = Clock::now();
    Status verified = verifier.VerifyToStatus(analysis->plan, ctx, &*analysis,
                                              "after analysis");
    out->verify = MsSince(start);
    if (!Record(verified, op)) return false;
    lakeguard::Optimizer optimizer(engine.config().opt);
    start = Clock::now();
    auto optimized = optimizer.Optimize(analysis->plan);
    out->optimize = MsSince(start);
    if (!Record(optimized.status(), op)) return false;
    start = Clock::now();
    verified = verifier.VerifyToStatus(*optimized, ctx, &*analysis,
                                       "after optimization");
    out->verify += MsSince(start);
    if (!Record(verified, op)) return false;

    // Execute: ExecutePrepared plus draining the stream.
    auto prepared = env_.cluster->engine->PrepareSql(sql, ctx);
    if (!Record(prepared.status(), op)) return false;
    const uint64_t read_before = platform.store().stats().bytes_read;
    std::vector<RecordBatch> batches;
    start = Clock::now();
    auto stream = env_.cluster->engine->ExecutePrepared(std::move(*prepared),
                                                        ctx);
    if (!Record(stream.status(), op)) return false;
    while (true) {
      auto next = (*stream)->Next();
      if (!Record(next.status(), op)) return false;
      if (!next->has_value()) break;
      batches.push_back(std::move(**next));
    }
    out->execute = MsSince(start);
    out->bytes_read = static_cast<double>(platform.store().stats().bytes_read -
                                          read_before);
    const lakeguard::ExecutorStats& stats = (*stream)->stats();
    out->rows_scanned = static_cast<double>(stats.rows_scanned);
    out->peak_bytes = static_cast<double>(stats.peak_bytes);
    out->sandbox_batches = static_cast<double>(stats.udf_sandbox_batches);
    spill_runs_ += stats.spill_runs;

    // IPC: the result batches through the wire encoding and back.
    for (const RecordBatch& batch : batches) {
      start = Clock::now();
      std::vector<uint8_t> frame = lakeguard::ipc::SerializeBatch(batch);
      out->ipc_encode += MsSince(start);
      start = Clock::now();
      auto decoded = lakeguard::ipc::DeserializeBatch(frame);
      out->ipc_decode += MsSince(start);
      if (!Record(decoded.status(), op)) return false;
      out->frame_bytes += static_cast<double>(frame.size());
      out->rows += static_cast<double>(batch.num_rows());
    }
    return true;
  }

  uint64_t spill_runs() const { return spill_runs_; }

 private:
  lakeguard::ConnectClient& ConnectClientFor(const std::string& user) {
    if (env_.analyst && user == WorkloadEnv::kAnalyst) return *env_.analyst;
    auto it = clients_.find(user);
    if (it == clients_.end()) {
      auto client = Must(env_.platform->Connect(env_.cluster, "tok-" + user),
                         "connect " + user);
      it = clients_.emplace(user, std::move(client)).first;
    }
    return it->second;
  }

  const ExecutionContext& ContextFor(const std::string& user) {
    auto it = contexts_.find(user);
    if (it == contexts_.end()) {
      auto ctx = Must(env_.platform->DirectContext(env_.cluster, user),
                      "context " + user);
      it = contexts_.emplace(user, std::move(ctx)).first;
    }
    return it->second;
  }

  const std::string& GatewaySessionFor(const std::string& user) {
    auto it = gateway_sessions_.find(user);
    if (it == gateway_sessions_.end()) {
      auto session = Must(env_.platform->gateway().OpenSession("tok-" + user),
                          "gateway session " + user);
      it = gateway_sessions_.emplace(user, std::move(session)).first;
    }
    return it->second;
  }

  bool Record(const OpOutcome& outcome) {
    ++loop_->attempted;
    if (outcome.ok) return true;
    Fail(outcome.error);
    return false;
  }

  bool Record(const lakeguard::Result<lakeguard::Table>& result, const Op& op,
              const std::string& user) {
    if (!result.ok()) return Record(result.status(), op);
    const std::string error = env_.Check(op, user, ToPlain(*result));
    if (!error.empty()) Fail(error);
    return error.empty();
  }

  bool Record(const Status& status, const Op& op) {
    if (status.ok()) return true;
    Fail(std::string(OpKindName(op.kind)) + " (traced): " +
         status.ToString());
    return false;
  }

  void Fail(const std::string& error) {
    ++loop_->failed;
    if (loop_->first_error.empty()) loop_->first_error = error;
  }

  WorkloadEnv& env_;
  LoopResult* loop_;
  std::map<std::string, lakeguard::ConnectClient> clients_;
  std::map<std::string, ExecutionContext> contexts_;
  std::map<std::string, std::string> gateway_sessions_;
  uint64_t spill_runs_ = 0;
};

uint64_t CacheLookups(const lakeguard::PolicyEvalCache::Stats& s) {
  return s.hits + s.revalidations + s.misses + s.invalidations;
}

/// Gateway admission between two FairSchedulerStats snapshots: mean wait
/// per admitted op (µs) and the share of admissions that had to queue.
std::pair<double, double> AdmissionDelta(
    const lakeguard::FairSchedulerStats& before,
    const lakeguard::FairSchedulerStats& after) {
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  return {Ratio(static_cast<double>(after.wait_micros - before.wait_micros),
                admitted),
          Ratio(static_cast<double>(after.queued - before.queued), admitted)};
}

}  // namespace

Metrics RunTraced(WorkloadEnv& env, double seconds, LoopResult* loop,
                  Report* report) {
  auto& platform = *env.platform;
  const bool interactive = env.config.workload == "interactive";
  const uint64_t retries_before = env.stale_plan_retries.load();

  // Phase A (interactive only): the untraced concurrent loop, for what only
  // contention shows — admission waits, recompiles after policy writes,
  // epochs published — and the end-to-end reference for attribution.
  double reference_ms = 0;
  double admission_wait_us = 0;
  double admission_queued = 0;
  double compiles_per_write = 0;
  double epochs_published = 0;
  const auto cache_before = platform.policy_cache().stats();
  if (interactive) {
    const auto sched_before = platform.gateway().admission_stats();
    const uint64_t epoch_before = platform.catalog().epoch();
    LoopResult concurrent =
        RunClosedLoop(env, seconds / 2, 100, env.config.seed);
    std::tie(admission_wait_us, admission_queued) =
        AdmissionDelta(sched_before, platform.gateway().admission_stats());
    const auto cache_after = platform.policy_cache().stats();
    compiles_per_write = Ratio(
        static_cast<double>(cache_after.compiles - cache_before.compiles),
        static_cast<double>(concurrent.Writes().size()));
    epochs_published =
        static_cast<double>(platform.catalog().epoch() - epoch_before);
    reference_ms = Median(concurrent.Reads());
    loop->attempted += concurrent.attempted;
    loop->failed += concurrent.failed;
    loop->first_error = concurrent.first_error;
  }

  // Phase B: single-client replay of the op stream, one layer at a time.
  Tracer tracer(env, loop);
  std::vector<LayerSample> samples;
  std::vector<double> mutation_us;
  const auto sched_before = platform.gateway().admission_stats();
  const auto dispatch_before =
      env.cluster->engine->services().dispatcher->stats();
  const auto cache_mid = platform.policy_cache().stats();
  const uint64_t epoch_mid = platform.catalog().epoch();
  OpStream stream(env.config.workload, env.config.seed, 0);
  const auto start = Clock::now();
  const double budget_ms = (interactive ? seconds / 2 : seconds) * 1000;
  while (MsSince(start) < budget_ms ||
         (samples.size() < 20 && MsSince(start) < 3 * budget_ms)) {
    const Op op = stream.Next();
    if (op.kind == OpKind::kPolicy || op.kind == OpKind::kGrant ||
        op.kind == OpKind::kRevoke) {
      ++loop->attempted;
      mutation_us.push_back(TimeCatalogMutation(env, op));
      continue;
    }
    if (op.kind == OpKind::kInsert) {
      OpOutcome outcome = env.Run(op, 0);
      ++loop->attempted;
      if (!outcome.ok) {
        ++loop->failed;
        if (loop->first_error.empty()) loop->first_error = outcome.error;
      }
      continue;
    }
    LayerSample sample;
    if (tracer.ReplayRead(op, 0, &sample)) samples.push_back(sample);
  }
  if (samples.empty()) {
    throw std::runtime_error("traced run: no read succeeded: " +
                             loop->first_error);
  }
  const auto dispatch_after =
      env.cluster->engine->services().dispatcher->stats();
  const auto cache_after = platform.policy_cache().stats();
  if (!interactive) {
    std::tie(admission_wait_us, admission_queued) =
        AdmissionDelta(sched_before, platform.gateway().admission_stats());
    // No writes: the count of compiles is the figure (0 once warm).
    compiles_per_write =
        static_cast<double>(cache_after.compiles - cache_mid.compiles);
    epochs_published =
        static_cast<double>(platform.catalog().epoch() - epoch_mid);
    reference_ms = Median(Column(samples, &LayerSample::path));
  }

  // One full scan of the main governed table as the workload's principal.
  const std::string principal =
      interactive ? TenantName(0) : WorkloadEnv::kAnalyst;
  const std::string main_table =
      interactive ? "main.i.accounts" : "main.b.fact";
  const ExecutionContext scan_ctx =
      Must(platform.DirectContext(env.cluster, principal), "scan context");
  const PolicyRegion region = FindPolicyRegion(platform, scan_ctx, main_table);
  std::vector<double> read_part_ms;
  std::vector<double> kernel_ms;
  ScanCost scan;
  for (int i = 0; i < 5; ++i) {
    scan = MeasureFullScan(platform, scan_ctx, region,
                           env.cluster->engine->config().exec);
    read_part_ms.push_back(scan.read_part_ms);
    kernel_ms.push_back(scan.policy_kernel_ms);
  }

  // Read-only workloads publish nothing during the run; time the catalog
  // write path on their own table's policies after the measurement.
  if (!interactive) {
    auto filter = Must(lakeguard::ParseSqlExpr(kFactRowFilterSql), "filter");
    for (int i = 0; i < 16; ++i) {
      auto mask = Must(lakeguard::ParseSqlExpr(kFactMaskSql), "mask");
      lakeguard::RowFilterPolicy row_filter{filter};
      lakeguard::ColumnMaskPolicy column_mask;
      column_mask.column = "s";
      column_mask.mask_expr = mask;
      const auto t = Clock::now();
      MustOk(platform.catalog().SetTablePolicies(
                 WorkloadEnv::kAdmin, main_table, row_filter, {column_mask}),
             "republish policies");
      mutation_us.push_back(MsSince(t) * 1000);
    }
  }

  // ---- aggregate ------------------------------------------------------------
  const auto med = [&](double LayerSample::*field) {
    return Median(Column(samples, field));
  };
  std::vector<double> connect_overhead;
  std::vector<double> gateway_overhead;
  // Per op: the path's time that neither Connect's overhead nor the
  // separately timed parse/analyze/verify/optimize/execute account for. On
  // analytics and export the path is ConnectClient::Sql, so this is the
  // engine's own call minus its layers.
  std::vector<double> remainder;
  for (const LayerSample& s : samples) {
    connect_overhead.push_back(s.connect - s.engine);
    gateway_overhead.push_back(s.gateway - s.connect);
    remainder.push_back(s.path - (s.connect - s.engine) -
                        (s.parse + s.analyze + s.verify + s.optimize +
                         s.execute));
  }
  const double n = static_cast<double>(samples.size());
  const double parse = med(&LayerSample::parse);
  const double analyze = med(&LayerSample::analyze);
  const double verify = med(&LayerSample::verify);
  const double optimize = med(&LayerSample::optimize);
  const double execute = med(&LayerSample::execute);
  const double ipc_encode = med(&LayerSample::ipc_encode);
  const double ipc_decode = med(&LayerSample::ipc_decode);
  const double connect_ms = Median(connect_overhead);
  const double gateway_ms = Median(gateway_overhead);
  const double bytes_per_query = med(&LayerSample::bytes_read);
  const double rows_scanned = med(&LayerSample::rows_scanned);
  const double storage_ms =
      Median(read_part_ms) * Ratio(bytes_per_query, scan.bytes);
  const double policy_ms = Median(kernel_ms) * Ratio(rows_scanned, scan.rows);
  const double admission_ms = admission_wait_us / 1000;
  // A query mix's medians do not add up, so analytics and export take the
  // median of the per-op remainders. Interactive's reference is the
  // concurrent loop, which has no per-op layer split: there the layer
  // medians on its path (gateway and admission wait included) are
  // subtracted from the loop's read median.
  const double unattributed_ms =
      interactive ? reference_ms - (gateway_ms + admission_ms + connect_ms +
                                    parse + analyze + verify + optimize +
                                    execute)
                  : Median(remainder);
  const double total_frame_bytes =
      Sum(Column(samples, &LayerSample::frame_bytes));
  const double total_ipc_ms = Sum(Column(samples, &LayerSample::ipc_encode)) +
                              Sum(Column(samples, &LayerSample::ipc_decode));
  const double cache_lookups = static_cast<double>(CacheLookups(cache_after) -
                                                   CacheLookups(cache_before));
  const double cache_compiles =
      static_cast<double>(cache_after.compiles - cache_before.compiles);
  const double reuses =
      static_cast<double>(dispatch_after.reuses - dispatch_before.reuses);
  const double cold = static_cast<double>(dispatch_after.cold_starts -
                                          dispatch_before.cold_starts);
  const double cert_hits =
      static_cast<double>(dispatch_after.verifier_cache_hits -
                          dispatch_before.verifier_cache_hits);
  const double cert_misses =
      static_cast<double>(dispatch_after.verifier_cache_misses -
                          dispatch_before.verifier_cache_misses);
  double queued_ops = 0;
  for (const LayerSample& s : samples) queued_ops += s.connect_queued ? 1 : 0;

  // Self times (medians, ms per read op).
  const Report self_times = {
      {"gateway", JsonNumber(interactive ? gateway_ms : 0)},
      {"admission_wait", JsonNumber(interactive ? admission_ms : 0)},
      {"connect", JsonNumber(connect_ms - ipc_encode - ipc_decode)},
      {"ipc_encode", JsonNumber(ipc_encode)},
      {"ipc_decode", JsonNumber(ipc_decode)},
      {"parse", JsonNumber(parse)},
      {"analyze", JsonNumber(analyze)},
      {"verify", JsonNumber(verify)},
      {"optimize", JsonNumber(optimize)},
      {"storage", JsonNumber(storage_ms)},
      {"policy_kernel", JsonNumber(policy_ms)},
      {"execute_other", JsonNumber(execute - storage_ms - policy_ms)},
  };
  report->emplace_back("self_ms", JsonObject(self_times));
  report->emplace_back("e2e_reference_ms", JsonNumber(reference_ms));
  report->emplace_back("engine_call_ms", JsonNumber(med(&LayerSample::engine)));
  report->emplace_back("traced_reads", std::to_string(samples.size()));
  // Contention figures: only the concurrent interactive workload queues or
  // publishes epochs, so they stay out of the per-layer metrics (which every
  // workload emits) and land here.
  const Report contention = {
      {"connect.admission_wait_us",
       JsonNumber(Sum(Column(samples, &LayerSample::connect_wait_us)) / n)},
      {"connect.queued_fraction", JsonNumber(queued_ops / n)},
      {"serverless.admission_wait_us", JsonNumber(admission_wait_us)},
      {"serverless.queued_fraction", JsonNumber(admission_queued)},
      {"catalog.epochs_published", JsonNumber(epochs_published)},
  };
  report->emplace_back("contention", JsonObject(contention));
  // Execute time per query kind (the engine.execute_ms breakdown).
  std::map<std::string, std::vector<double>> by_kind;
  for (const LayerSample& s : samples) {
    by_kind[OpKindName(s.kind)].push_back(s.execute);
  }
  Report kinds;
  for (const auto& [kind, times] : by_kind) {
    kinds.emplace_back(kind, JsonNumber(Median(times)));
  }
  report->emplace_back("execute_ms_by_kind", JsonObject(kinds));

  return {
      {"sql.parse_us", {parse * 1000, "us"}},
      {"engine.analyze_us", {analyze * 1000, "us"}},
      {"engine.verify_us", {verify * 1000, "us"}},
      {"engine.optimize_us", {optimize * 1000, "us"}},
      {"engine.execute_ms", {execute, "ms"}},
      {"engine.rows_scanned_per_query", {rows_scanned, "rows"}},
      {"engine.peak_bytes", {med(&LayerSample::peak_bytes), "bytes"}},
      {"engine.spill_runs",
       {static_cast<double>(tracer.spill_runs()), "count"}},
      {"engine.stale_plan_retries",
       {static_cast<double>(env.stale_plan_retries.load() - retries_before),
        "count"}},
      {"storage.read_part_ms", {Median(read_part_ms), "ms"}},
      {"storage.bytes_read_per_query", {bytes_per_query, "bytes"}},
      {"expr.policy_kernel_ms", {Median(kernel_ms), "ms"}},
      {"expr.policy_cache_hit_rate",
       {Ratio(cache_lookups - cache_compiles, cache_lookups), "ratio"}},
      {"expr.policy_compiles_per_write", {compiles_per_write, "count"}},
      {"sandbox.dispatches_per_query",
       {Sum(Column(samples, &LayerSample::sandbox_batches)) / n, "count"}},
      {"sandbox.reuse_fraction", {Ratio(reuses, reuses + cold), "ratio"}},
      {"udf.verifier_cache_hit_rate",
       {Ratio(cert_hits, cert_hits + cert_misses), "ratio"}},
      {"columnar.ipc_encode_ms", {ipc_encode, "ms"}},
      {"columnar.ipc_decode_ms", {ipc_decode, "ms"}},
      {"columnar.ipc_mb_per_s",
       {Ratio(total_frame_bytes / 1e6, total_ipc_ms / 1000), "MB/s"}},
      {"columnar.frame_bytes_per_row",
       {Ratio(total_frame_bytes, Sum(Column(samples, &LayerSample::rows))),
        "bytes"}},
      {"connect.overhead_ms", {connect_ms, "ms"}},
      {"connect.fetches_per_query",
       {Sum(Column(samples, &LayerSample::fetches)) / n, "count"}},
      {"serverless.gateway_overhead_us", {gateway_ms * 1000, "us"}},
      {"catalog.mutation_us", {Median(mutation_us), "us"}},
      {"unattributed_ms", {unattributed_ms, "ms"}},
  };
}

}  // namespace e2e
