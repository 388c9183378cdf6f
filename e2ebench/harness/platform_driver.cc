#include "platform_driver.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "sql/parser.h"
#include "udf/builder.h"

namespace e2e {

using lakeguard::ClusterHandle;
using lakeguard::ColumnMaskPolicy;
using lakeguard::LakeguardPlatform;
using lakeguard::RowFilterPolicy;
using lakeguard::Status;
using lakeguard::Table;
using lakeguard::TypeKind;

namespace {

constexpr size_t kRowsPerInsert = 2000;

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

std::string TokenOf(const std::string& user) { return "tok-" + user; }

void AddPrincipal(LakeguardPlatform* platform, const std::string& user) {
  Must(platform->AddUser(user), "add user " + user);
  platform->RegisterToken(TokenOf(user), user);
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// A read prepared under one policy version and verified after another was
/// published is refused fail-closed (PV001/PV002). A Connect client
/// resubmits it; the retry's latency stays in the op's latency.
constexpr int kMaxStalePlanRetries = 2;

bool IsStalePlanRefusal(const Status& status) {
  const std::string& m = status.message();
  return status.code() == lakeguard::StatusCode::kFailedPrecondition &&
         (m.find("PV001") != std::string::npos ||
          m.find("PV002") != std::string::npos);
}

}  // namespace

PlainResult ToPlain(const Table& table) {
  PlainResult out;
  for (const auto& field : table.schema().fields()) {
    out.columns.push_back(field.name);
  }
  for (const auto& batch : table.batches()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      PlainRow row;
      row.reserve(batch.num_columns());
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        const lakeguard::Column& col = batch.column(c);
        Cell cell;
        if (col.IsNull(r)) {
          row.push_back(cell);
          continue;
        }
        switch (col.kind()) {
          case TypeKind::kInt64:
            cell = Cell::Int(col.IntAt(r));
            break;
          case TypeKind::kFloat64:
            cell.kind = Cell::Kind::kDouble;
            cell.d = col.DoubleAt(r);
            break;
          case TypeKind::kString:
          case TypeKind::kBinary:
            cell = Cell::Str(col.StringAt(r));
            break;
          case TypeKind::kBool:
            cell = Cell::Int(col.BoolAt(r) ? 1 : 0);
            break;
          case TypeKind::kNull:
            break;
        }
        row.push_back(std::move(cell));
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Table WorkloadEnv::MustSql(const std::string& sql) {
  auto result = cluster->engine->ExecuteSql(sql, admin_ctx);
  if (!result.ok()) {
    throw std::runtime_error("set-up SQL failed: " +
                             result.status().ToString() + "\n  " +
                             sql.substr(0, 200));
  }
  return std::move(*result);
}

std::unique_ptr<WorkloadEnv> WorkloadEnv::SetUp(const RunConfig& config) {
  auto env = std::make_unique<WorkloadEnv>();
  env->config = config;
  const bool interactive = config.workload == "interactive";

  LakeguardPlatform::Options options;
  options.use_simulated_clock = false;  // wall-clock benchmark
  options.sandbox_cold_start_micros = 0;
  options.engine_config.exec.fuse_policies = config.fuse_policies;
  options.gateway_config.backend_cold_start_micros = 0;
  options.gateway_config.max_sessions_per_backend = kSessions / 2;
  if (interactive) {
    options.gateway_config.admission.max_concurrent = config.admission_slots;
  }
  env->platform = std::make_unique<LakeguardPlatform>(options);
  LakeguardPlatform& p = *env->platform;

  AddPrincipal(&p, kAdmin);
  p.AddMetastoreAdmin(kAdmin);
  Must(p.catalog().CreateCatalog(kAdmin, "main"), "create catalog");
  env->cluster = p.CreateStandardCluster();
  auto admin_ctx = p.DirectContext(env->cluster, kAdmin);
  Must(admin_ctx.status(), "admin context");
  env->admin_ctx = *admin_ctx;

  if (!interactive) {
    env->data = GenerateFactData(config.seed, kFactRows, kDimRows);
    AddPrincipal(&p, kAnalyst);
    Must(p.catalog().CreateSchema(kAdmin, "main.b"), "create schema");
    env->MustSql("CREATE TABLE main.b.fact (a BIGINT, b BIGINT, s STRING)");
    env->MustSql("CREATE TABLE main.b.dim (k BIGINT, name STRING)");
    const auto& fact = env->data.fact;
    for (size_t start = 0; start < fact.size(); start += kRowsPerInsert) {
      std::string sql = "INSERT INTO main.b.fact VALUES ";
      const size_t end = std::min(fact.size(), start + kRowsPerInsert);
      for (size_t i = start; i < end; ++i) {
        if (i > start) sql += ", ";
        sql.append("(").append(std::to_string(fact[i].a)).append(", ");
        sql.append(std::to_string(fact[i].b)).append(", ");
        sql.append(Quote(fact[i].s)).append(")");
      }
      env->MustSql(sql);
    }
    std::string dim_sql = "INSERT INTO main.b.dim VALUES ";
    for (size_t i = 0; i < env->data.dim.size(); ++i) {
      if (i > 0) dim_sql += ", ";
      dim_sql += "(" + std::to_string(env->data.dim[i].k) + ", " +
                 Quote(env->data.dim[i].name) + ")";
    }
    env->MustSql(dim_sql);
    env->MustSql(std::string("ALTER TABLE main.b.fact SET ROW FILTER (") +
                 kFactRowFilterSql + ")");
    env->MustSql(
        std::string("ALTER TABLE main.b.fact ALTER COLUMN s SET MASK (") +
        kFactMaskSql + ")");
    lakeguard::FunctionInfo udf;
    udf.full_name = "main.b.u0";
    udf.num_args = 2;
    udf.return_type = TypeKind::kInt64;
    udf.body = lakeguard::canned::SumUdf();
    Must(p.catalog().CreateFunction(kAdmin, udf), "create UDF");
    for (const char* grant :
         {"GRANT USE CATALOG ON main TO analyst",
          "GRANT USE SCHEMA ON main.b TO analyst",
          "GRANT SELECT ON main.b.fact TO analyst",
          "GRANT SELECT ON main.b.dim TO analyst",
          "GRANT EXECUTE ON main.b.u0 TO analyst"}) {
      env->MustSql(grant);
    }
    auto client = p.Connect(env->cluster, TokenOf(kAnalyst));
    Must(client.status(), "analyst connect");
    env->analyst.emplace(std::move(*client));
  } else {
    env->accounts = GenerateAccounts(config.seed, kAccountRows, kTenants);
    Must(p.catalog().CreateSchema(kAdmin, "main.i"), "create schema");
    env->MustSql("CREATE TABLE main.i.accounts "
                 "(id BIGINT, owner STRING, ssn STRING, bal BIGINT)");
    std::string sql = "INSERT INTO main.i.accounts VALUES ";
    for (size_t i = 0; i < env->accounts.size(); ++i) {
      const AccountRow& row = env->accounts[i];
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(row.id) + ", " + Quote(row.owner) + ", " +
             Quote(row.ssn) + ", " + std::to_string(row.bal) + ")";
    }
    env->MustSql(sql);
    Must(env->PublishPolicy(0), "publish policy version 0");
    for (size_t t = 0; t < kTenants; ++t) {
      const std::string tenant = TenantName(t);
      AddPrincipal(&p, tenant);
      env->MustSql("GRANT USE CATALOG ON main TO " + tenant);
      env->MustSql("GRANT USE SCHEMA ON main.i TO " + tenant);
      env->MustSql("GRANT SELECT ON main.i.accounts TO " + tenant);
      env->MustSql("CREATE TABLE " + EventsTable(tenant) +
                   " (id BIGINT, who STRING, v BIGINT)");
      env->MustSql("GRANT MODIFY ON " + EventsTable(tenant) + " TO " + tenant);
    }
    for (size_t g = 0; g < kSessions; ++g) {
      auto session =
          p.gateway().OpenSession(TokenOf(TenantName(TenantOfSession(g))));
      Must(session.status(), "open gateway session");
      env->sessions.push_back(*session);
    }
    auto admin_session = p.gateway().OpenSession(TokenOf(kAdmin));
    Must(admin_session.status(), "open admin gateway session");
    env->admin_session = *admin_session;
  }

  // Warm-up: every operation kind once per client (interactive: a read on
  // every session too), so policy programs, verifier certificates and
  // sandboxes are ready before timing starts.
  for (size_t client = 0; client < env->clients(); ++client) {
    OpStream warm(config.workload, SubSeed(config.seed, 0xa11ce), client);
    bool seen[kOpKinds] = {};
    size_t needed = interactive ? (client == 0 ? 6 : 3) : 4;
    if (config.workload == "export") needed = 1;
    for (size_t i = 0; needed > 0 && i < 100'000; ++i) {
      Op op = warm.Next();
      OpOutcome outcome = env->Run(op, client);
      if (!outcome.ok) {
        throw std::runtime_error(std::string("warm-up ") + OpKindName(op.kind) +
                                 " failed: " + outcome.error);
      }
      if (!seen[static_cast<size_t>(op.kind)]) {
        seen[static_cast<size_t>(op.kind)] = true;
        --needed;
      }
    }
  }
  if (interactive) {
    const size_t per_client = kSessions / kInteractiveClients;
    for (size_t g = 0; g < kSessions; ++g) {
      Op op{OpKind::kSmallAgg};
      op.session = g % per_client;
      OpOutcome outcome = env->Run(op, g / per_client);
      if (!outcome.ok) {
        throw std::runtime_error("warm-up read failed: " + outcome.error);
      }
    }
  }
  return env;
}

const std::string& WorkloadEnv::SessionOf(const Op& op, size_t client) const {
  if (op.kind == OpKind::kGrant || op.kind == OpKind::kRevoke) {
    return admin_session;
  }
  return sessions[GlobalSession(client, op.session)];
}

std::string WorkloadEnv::UserOf(const Op& op, size_t client) const {
  if (config.workload != "interactive") return kAnalyst;
  if (op.kind == OpKind::kPolicy || op.kind == OpKind::kGrant ||
      op.kind == OpKind::kRevoke) {
    return kAdmin;
  }
  return TenantName(TenantOfSession(GlobalSession(client, op.session)));
}

Status WorkloadEnv::PublishPolicy(int64_t version) {
  auto filter = lakeguard::ParseSqlExpr(PolicyRowFilterSql(version));
  LG_RETURN_IF_ERROR(filter.status());
  auto mask = lakeguard::ParseSqlExpr(PolicyMaskSql(version));
  LG_RETURN_IF_ERROR(mask.status());
  // Announce the rule before it can be observed, so a read that sees it
  // checks against it.
  if (MaskRuleOfSql(PolicyMaskSql(version)) == MaskRule::kRedact) {
    redact_published = true;
  }
  RowFilterPolicy row_filter;
  row_filter.predicate = *filter;
  ColumnMaskPolicy column_mask;
  column_mask.column = "ssn";
  column_mask.mask_expr = *mask;
  return platform->catalog().SetTablePolicies(kAdmin, "main.i.accounts",
                                              std::move(row_filter),
                                              {std::move(column_mask)});
}

std::string WorkloadEnv::Check(const Op& op, const std::string& user,
                               const PlainResult& result) const {
  switch (op.kind) {
    case OpKind::kAgg: return CheckAgg(data, op.param, result);
    case OpKind::kJoin: return CheckJoin(data, op.param, result);
    case OpKind::kTopK: return CheckTopK(data, op.param, result);
    case OpKind::kUdf: return CheckUdf(data, op.param, result);
    case OpKind::kExport: return CheckExport(data, op.param, result);
    case OpKind::kPoint: {
      std::vector<MaskRule> published = {MaskRule::kLast4};
      if (redact_published) published.push_back(MaskRule::kRedact);
      return CheckPoint(accounts, user, op.param, published, result);
    }
    case OpKind::kSmallAgg: return CheckSmallAgg(accounts, user, result);
    default: return "";  // writes: acknowledged or failed
  }
}

OpOutcome WorkloadEnv::Run(const Op& op, size_t client) {
  OpOutcome outcome;
  const std::string user = UserOf(op, client);
  lakeguard::Result<Table> result = Table();
  const auto start = std::chrono::steady_clock::now();
  if (op.kind == OpKind::kPolicy) {
    Status status = PublishPolicy(op.param);
    if (!status.ok()) result = status;
  } else {
    const std::string sql = OpSql(op, user);
    for (int attempt = 0;; ++attempt) {
      result = config.workload == "interactive"
                   ? platform->gateway().ExecuteSql(SessionOf(op, client), sql)
                   : analyst->Sql(sql);
      if (result.ok() || attempt == kMaxStalePlanRetries ||
          !IsStalePlanRefusal(result.status())) {
        break;
      }
      ++stale_plan_retries;
    }
  }
  outcome.latency_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  if (!result.ok()) {
    outcome.error = std::string(OpKindName(op.kind)) + ": " +
                    result.status().ToString();
    return outcome;
  }
  outcome.rows = result->num_rows();
  if (op.kind == OpKind::kInsert) {
    ++inserts_acked[TenantOfSession(GlobalSession(client, op.session))];
  }
  outcome.error = Check(op, user, ToPlain(*result));
  outcome.ok = outcome.error.empty();
  outcome.check_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count() -
                     outcome.latency_ms;
  return outcome;
}

std::string WorkloadEnv::FinalCheck(uint64_t* failed_ops) {
  *failed_ops = 0;
  if (config.workload != "interactive") return "";
  std::string first_error;
  for (size_t t = 0; t < kTenants; ++t) {
    const std::string table = EventsTable(TenantName(t));
    auto result = cluster->engine->ExecuteSql(
        "SELECT COUNT(*) AS n FROM " + table, admin_ctx);
    if (!result.ok()) {
      ++*failed_ops;
      if (first_error.empty()) {
        first_error = table + ": " + result.status().ToString();
      }
      continue;
    }
    const PlainResult plain = ToPlain(*result);
    const uint64_t acked = inserts_acked[t].load();
    std::string error = CheckEventCount(acked, plain);
    if (error.empty()) continue;
    // Each acknowledged INSERT whose row is missing is one failed op.
    const int64_t got = plain.rows.size() == 1 && plain.rows[0].size() == 1
                            ? plain.rows[0][0].i
                            : 0;
    *failed_ops += static_cast<uint64_t>(
        std::max<int64_t>(1, static_cast<int64_t>(acked) - got));
    if (first_error.empty()) first_error = table + ": " + error;
  }
  return first_error;
}

}  // namespace e2e
