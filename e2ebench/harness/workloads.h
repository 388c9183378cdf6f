#ifndef E2EBENCH_HARNESS_WORKLOADS_H_
#define E2EBENCH_HARNESS_WORKLOADS_H_

// Inputs of the three workloads, generated from the workload seed alone:
// table contents and each client's operation stream. Plain C++ — nothing
// here touches the library, so the oracle that checks results against these
// rows shares no code with the engine it checks.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// ---- sizes -------------------------------------------------------------
constexpr size_t kFactRows = 200'000;
constexpr size_t kDimRows = 1'000;
constexpr size_t kAccountRows = 256;
constexpr size_t kTenants = 8;
constexpr size_t kSessions = 256;
constexpr size_t kInteractiveClients = 4;
/// Export window over `a`: ~37k ids, ~33k after the row filter.
constexpr int64_t kExportWindow = 37'000;
constexpr int64_t kTopK = 100;

// ---- policies (the oracle applies the same rules) -----------------------
/// Fact row filter for the analyst: `b >= kFactFilterMinB`.
constexpr int64_t kFactFilterMinB = 100;
constexpr const char* kFactRowFilterSql = "b >= 100";
constexpr const char* kFactMaskSql = "MASK(s)";

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  int64_t Range(int64_t lo, int64_t hi) {  // [lo, hi)
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo)));
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed for (seed, purpose, index).
uint64_t SubSeed(uint64_t seed, uint64_t purpose, uint64_t index = 0);

struct FactRow {
  int64_t a = 0;  // unique id, 0..rows-1
  int64_t b = 0;  // 0..999, join key into dim
  std::string s;  // masked for the analyst
};

struct DimRow {
  int64_t k = 0;
  std::string name;
};

struct AccountRow {
  int64_t id = 0;
  std::string owner;  // one of the tenants
  std::string ssn;    // masked for everyone
  int64_t bal = 0;
};

struct FactData {
  std::vector<FactRow> fact;
  std::vector<DimRow> dim;
};

FactData GenerateFactData(uint64_t seed, size_t fact_rows, size_t dim_rows);
std::vector<AccountRow> GenerateAccounts(uint64_t seed, size_t rows,
                                         size_t tenants);
std::string TenantName(size_t tenant);

/// Interactive sessions: client c owns the global sessions
/// [c * kSessions / kInteractiveClients, (c + 1) * ...), and global session
/// g belongs to tenant g % kTenants, so every client serves every tenant.
size_t GlobalSession(size_t client, size_t session);
size_t TenantOfSession(size_t global_session);

// ---- operations --------------------------------------------------------
enum class OpKind {
  kAgg,       // analytics: GROUP BY aggregate
  kJoin,      // analytics: dim join + aggregate
  kTopK,      // analytics: ORDER BY ... LIMIT
  kUdf,       // analytics: sandboxed SUM-UDF over a filtered subset
  kExport,    // export: filter + project, tens of thousands of rows
  kPoint,     // interactive read: point lookup
  kSmallAgg,  // interactive read: small aggregate
  kInsert,    // interactive write: INSERT into a tenant's events table
  kPolicy,    // interactive write: replace row filter + mask (new epoch)
  kGrant,     // interactive write: GRANT
  kRevoke,    // interactive write: REVOKE
};
constexpr size_t kOpKinds = 11;

const char* OpKindName(OpKind kind);
bool IsWrite(OpKind kind);

struct Op {
  OpKind kind = OpKind::kAgg;
  int64_t param = 0;   // query parameter / policy version / event id
  int64_t param2 = 0;  // event value / grantee tenant
  size_t session = 0;  // interactive: index into the client's sessions

  bool operator==(const Op& other) const {
    return kind == other.kind && param == other.param &&
           param2 == other.param2 && session == other.session;
  }
};

/// One client's deterministic operation stream. `analytics` cycles through
/// its four query kinds, once each, in a seeded order per cycle;
/// `export` issues one window query per op; `interactive` mixes ~90% reads
/// with ~10% writes, and only client 0 publishes policy and grant changes.
class OpStream {
 public:
  OpStream(const std::string& workload, uint64_t seed, size_t client);
  Op Next();
  /// Ops per cycle: a closed-loop run stops on a cycle boundary so every
  /// run sees each query kind equally often.
  size_t cycle() const { return workload_ == "analytics" ? 4 : 1; }

 private:
  std::string workload_;
  size_t client_;
  Rng rng_;
  std::vector<Op> pending_;
  int64_t writes_ = 0;
  int64_t inserts_ = 0;
};

/// The events table of `tenant`. Every client serves every tenant, so
/// INSERTs into one events table come from several clients at once.
std::string EventsTable(const std::string& tenant);

/// SQL text of an op; `user` is the issuing principal (an INSERT appends to
/// the user's own events table). Policy ops have no SQL: they are published
/// through the catalog API.
std::string OpSql(const Op& op, const std::string& user);

/// Interactive policy version `v`: which row filter and mask it publishes.
/// Every version keeps the filter `owner = CURRENT_USER()` in effect and
/// masks `ssn`, so the oracle's expectations hold under all of them.
std::string PolicyRowFilterSql(int64_t version);
std::string PolicyMaskSql(int64_t version);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_WORKLOADS_H_
