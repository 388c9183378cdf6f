#include "workloads.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace e2e {

uint64_t SubSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  Rng rng(seed ^ (purpose * 0xd1b54a32d192ed03ull) ^
          (index * 0x8cb92ba72f3d8dd7ull));
  return rng.Next();
}

namespace {
enum Purpose : uint64_t { kFactSeed = 1, kAccountSeed = 2, kOpSeed = 3 };
}  // namespace

FactData GenerateFactData(uint64_t seed, size_t fact_rows, size_t dim_rows) {
  Rng rng(SubSeed(seed, kFactSeed));
  FactData data;
  data.fact.reserve(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    FactRow row;
    row.a = static_cast<int64_t>(i);
    row.b = static_cast<int64_t>(rng.Below(dim_rows));
    row.s = std::string("c").append(std::to_string(rng.Below(10'000'000)));
    data.fact.push_back(std::move(row));
  }
  data.dim.reserve(dim_rows);
  for (size_t k = 0; k < dim_rows; ++k) {
    data.dim.push_back({static_cast<int64_t>(k), "dim-" + std::to_string(k)});
  }
  return data;
}

std::string TenantName(size_t tenant) {
  return "tenant" + std::to_string(tenant);
}

std::vector<AccountRow> GenerateAccounts(uint64_t seed, size_t rows,
                                         size_t tenants) {
  Rng rng(SubSeed(seed, kAccountSeed));
  std::vector<AccountRow> accounts;
  accounts.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    AccountRow row;
    row.id = static_cast<int64_t>(i);
    row.owner = TenantName(i % tenants);  // id ≡ tenant (mod tenants)
    char ssn[16];
    std::snprintf(ssn, sizeof(ssn), "%03u-%02u-%04u",
                  static_cast<unsigned>(rng.Below(1000)),
                  static_cast<unsigned>(rng.Below(100)),
                  static_cast<unsigned>(rng.Below(10000)));
    row.ssn = ssn;
    row.bal = static_cast<int64_t>(rng.Below(100'000));
    accounts.push_back(std::move(row));
  }
  return accounts;
}

size_t GlobalSession(size_t client, size_t session) {
  return client * (kSessions / kInteractiveClients) + session;
}

size_t TenantOfSession(size_t global_session) {
  return global_session % kTenants;
}

std::string EventsTable(const std::string& tenant) {
  return "main.i.events_" + tenant;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAgg: return "agg";
    case OpKind::kJoin: return "join";
    case OpKind::kTopK: return "topk";
    case OpKind::kUdf: return "udf";
    case OpKind::kExport: return "export";
    case OpKind::kPoint: return "point";
    case OpKind::kSmallAgg: return "small_agg";
    case OpKind::kInsert: return "insert";
    case OpKind::kPolicy: return "policy";
    case OpKind::kGrant: return "grant";
    case OpKind::kRevoke: return "revoke";
  }
  return "?";
}

bool IsWrite(OpKind kind) {
  return kind == OpKind::kInsert || kind == OpKind::kPolicy ||
         kind == OpKind::kGrant || kind == OpKind::kRevoke;
}

OpStream::OpStream(const std::string& workload, uint64_t seed, size_t client)
    : workload_(workload), client_(client),
      rng_(SubSeed(seed, kOpSeed, client)) {
  if (workload != "analytics" && workload != "export" &&
      workload != "interactive") {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
}

Op OpStream::Next() {
  Op op;
  if (workload_ == "analytics") {
    if (pending_.empty()) {
      pending_ = {Op{OpKind::kAgg, rng_.Range(0, 1000)},
                  Op{OpKind::kJoin, rng_.Range(0, 1000)},
                  Op{OpKind::kTopK, rng_.Range(kFactFilterMinB, 1000)},
                  Op{OpKind::kUdf, rng_.Range(20'000, 22'000)}};
      for (size_t i = pending_.size() - 1; i > 0; --i) {
        std::swap(pending_[i], pending_[rng_.Below(i + 1)]);
      }
    }
    op = pending_.back();
    pending_.pop_back();
    return op;
  }
  if (workload_ == "export") {
    op.kind = OpKind::kExport;
    op.param = rng_.Range(0, static_cast<int64_t>(kFactRows) - kExportWindow);
    return op;
  }
  op.session = rng_.Below(kSessions / kInteractiveClients);
  const size_t tenant = TenantOfSession(GlobalSession(client_, op.session));
  const uint64_t roll = rng_.Below(100);
  if (roll < 65) {
    op.kind = OpKind::kPoint;
    // Half the lookups target the caller's own accounts, half any account.
    const uint64_t own_slot = rng_.Below(kAccountRows / kTenants);
    op.param = rng_.Below(2) == 0
                   ? static_cast<int64_t>(tenant + kTenants * own_slot)
                   : static_cast<int64_t>(rng_.Below(kAccountRows));
  } else if (roll < 90) {
    op.kind = OpKind::kSmallAgg;
  } else if (client_ == 0 && (writes_++ % 2) == 1) {
    // Client 0's every other write changes the catalog: policy, grant,
    // policy, revoke (the revoke undoes the preceding grant).
    const int64_t ddl = (writes_ - 1) / 2;
    switch (ddl % 4) {
      case 0:
      case 2:
        op.kind = OpKind::kPolicy;
        op.param = ddl / 2 + 1;  // version 0 is published at set-up
        break;
      case 1:
        op.kind = OpKind::kGrant;
        op.param2 = (ddl / 4) % static_cast<int64_t>(kTenants);
        break;
      default:
        op.kind = OpKind::kRevoke;
        op.param2 = (ddl / 4) % static_cast<int64_t>(kTenants);
        break;
    }
  } else {
    op.kind = OpKind::kInsert;
    op.param = static_cast<int64_t>(client_) * 1'000'000'000'000 + inserts_++;
    op.param2 = rng_.Range(0, 1000);
  }
  return op;
}

std::string OpSql(const Op& op, const std::string& user) {
  const std::string p = std::to_string(op.param);
  switch (op.kind) {
    case OpKind::kAgg:
      return "SELECT b, COUNT(*) AS n, SUM(a) AS sa FROM main.b.fact "
             "WHERE a >= " + p + " GROUP BY b";
    case OpKind::kJoin:
      return "SELECT d.name, COUNT(*) AS n FROM main.b.fact f "
             "JOIN main.b.dim d ON f.b = d.k WHERE f.a >= " + p +
             " GROUP BY d.name";
    case OpKind::kTopK:
      return "SELECT a, b, s FROM main.b.fact WHERE b <> " + p +
             " ORDER BY b DESC, a ASC LIMIT " + std::to_string(kTopK);
    case OpKind::kUdf:
      return "SELECT SUM(main.b.u0(a, b)) AS t, COUNT(*) AS n "
             "FROM main.b.fact WHERE a < " + p;
    case OpKind::kExport:
      return "SELECT a, b, s FROM main.b.fact WHERE a >= " + p +
             " AND a < " + std::to_string(op.param + kExportWindow);
    case OpKind::kPoint:
      return "SELECT id, owner, ssn, bal FROM main.i.accounts WHERE id = " + p;
    case OpKind::kSmallAgg:
      return "SELECT COUNT(*) AS n, SUM(bal) AS t FROM main.i.accounts";
    case OpKind::kInsert:
      return "INSERT INTO " + EventsTable(user) + " VALUES (" +
             p + ", '" + user + "', " + std::to_string(op.param2) + ")";
    case OpKind::kGrant:  // read access to the next tenant's events
      return "GRANT SELECT ON " +
             EventsTable(TenantName((op.param2 + 1) % kTenants)) + " TO " +
             TenantName(op.param2);
    case OpKind::kRevoke:
      return "REVOKE SELECT ON " +
             EventsTable(TenantName((op.param2 + 1) % kTenants)) +
             " FROM " + TenantName(op.param2);
    case OpKind::kPolicy:
      return "";
  }
  return "";
}

std::string PolicyRowFilterSql(int64_t version) {
  return version % 2 == 0 ? "owner = CURRENT_USER()"
                          : "owner = CURRENT_USER() AND bal >= 0";
}

std::string PolicyMaskSql(int64_t version) {
  return (version / 2) % 2 == 0 ? "MASK(ssn)" : "REDACT(ssn)";
}

}  // namespace e2e
