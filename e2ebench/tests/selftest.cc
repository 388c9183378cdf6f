// Self-test of the benchmark harness: the tail-percentile rule, the result
// oracle on a hand-built dataset, and seed determinism of the generated
// inputs. Exits non-zero on the first failed check; `run.py` runs it after
// every build, before any measurement.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "oracle.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  EXPECT(Percentile(OneTo(100), 0.5) == 50);
  EXPECT(Percentile(OneTo(100), 0.9) == 90);
  EXPECT(Percentile(OneTo(100), 0.99) == 99);
  EXPECT(Percentile(OneTo(7), 0.5) == 4);
  EXPECT(Percentile({}, 0.5) == 0);
  EXPECT(SamplesBeyond(100, 0.9) == 10);
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  // The highest percentile with at least ten samples beyond it.
  EXPECT(TailPercentile(19) == 0);
  EXPECT(TailPercentile(20) == 0.5);
  EXPECT(TailPercentile(99) == 0.5);
  EXPECT(TailPercentile(100) == 0.9);
  EXPECT(TailPercentile(999) == 0.9);
  EXPECT(TailPercentile(1000) == 0.99);
  EXPECT(TailPercentile(10'000) == 0.999);
  EXPECT(TailPercentile(100'000) == 0.9999);
}

PlainResult Rows(std::vector<std::string> columns,
                 std::vector<PlainRow> rows) {
  return PlainResult{std::move(columns), std::move(rows)};
}

void TestAnalyticsOracle() {
  // b < 100 rows are hidden by the row filter; s is masked (last 4 kept).
  FactData data;
  data.fact = {{0, 150, "c1234567"}, {1, 150, "c42"},  {2, 50, "c999999"},
               {3, 700, "c7654321"}, {4, 700, "c1111"}, {5, 99, "c5"}};
  data.dim = {{50, "dim-50"}, {99, "dim-99"}, {150, "dim-150"},
              {700, "dim-700"}};
  using C = Cell;

  PlainResult agg =
      Rows({"b", "n", "sa"}, {{C::Int(150), C::Int(2), C::Int(1)},
                              {C::Int(700), C::Int(2), C::Int(7)}});
  EXPECT(CheckAgg(data, 0, agg).empty());
  PlainResult leaked = agg;  // a filtered-out group showing up
  leaked.rows.push_back({C::Int(50), C::Int(1), C::Int(2)});
  EXPECT(!CheckAgg(data, 0, leaked).empty());
  PlainResult agg_from_1 =
      Rows({"b", "n", "sa"}, {{C::Int(150), C::Int(1), C::Int(1)},
                              {C::Int(700), C::Int(2), C::Int(7)}});
  EXPECT(CheckAgg(data, 1, agg_from_1).empty());
  EXPECT(!CheckAgg(data, 0, agg_from_1).empty());

  PlainResult join = Rows({"name", "n"}, {{C::Str("dim-700"), C::Int(2)},
                                          {C::Str("dim-150"), C::Int(2)}});
  EXPECT(CheckJoin(data, 0, join).empty());
  join.rows[0][1] = C::Int(3);
  EXPECT(!CheckJoin(data, 0, join).empty());

  // ORDER BY b DESC, a ASC over visible rows with b <> 150.
  PlainResult topk = Rows({"a", "b", "s"},
                          {{C::Int(3), C::Int(700), C::Str("****4321")},
                           {C::Int(4), C::Int(700), C::Str("*1111")}});
  EXPECT(CheckTopK(data, 150, topk).empty());
  PlainResult unmasked = topk;
  unmasked.rows[0][2] = C::Str("c7654321");
  EXPECT(!CheckTopK(data, 150, unmasked).empty());

  // SUM(a + b) over visible rows with a < 4: rows 0, 1, 3.
  PlainResult udf = Rows({"t", "n"}, {{C::Int(0 + 150 + 1 + 150 + 3 + 700),
                                       C::Int(3)}});
  EXPECT(CheckUdf(data, 4, udf).empty());
  udf.rows[0][1] = C::Int(4);
  EXPECT(!CheckUdf(data, 4, udf).empty());

  // Export window [lo, lo + kExportWindow) covers every visible row, in any
  // order; "***" masks a three-character value entirely.
  PlainResult exported = Rows({"a", "b", "s"},
                              {{C::Int(4), C::Int(700), C::Str("*1111")},
                               {C::Int(0), C::Int(150), C::Str("****4567")},
                               {C::Int(1), C::Int(150), C::Str("***")},
                               {C::Int(3), C::Int(700), C::Str("****4321")}});
  EXPECT(MaskLast4("c42") == "***");
  EXPECT(CheckExport(data, 0, exported).empty());
  exported.rows[1][2] = C::Str("c1234567");  // raw value instead of masked
  EXPECT(!CheckExport(data, 0, exported).empty());
  exported.rows.pop_back();
  EXPECT(!CheckExport(data, 0, exported).empty());
}

void TestInteractiveOracle() {
  std::vector<AccountRow> accounts = {{0, "tenant0", "123-45-6789", 10},
                                      {1, "tenant1", "987-65-4321", 20},
                                      {2, "tenant0", "555-55-5555", 30}};
  using C = Cell;
  const std::vector<MaskRule> masked = {MaskRule::kLast4};
  const std::vector<MaskRule> both = {MaskRule::kLast4, MaskRule::kRedact};
  auto row = [](int64_t id, const char* owner, const char* ssn, int64_t bal) {
    return PlainRow{C::Int(id), C::Str(owner), C::Str(ssn), C::Int(bal)};
  };
  const std::vector<std::string> cols = {"id", "owner", "ssn", "bal"};

  EXPECT(CheckPoint(accounts, "tenant0", 0, masked,
                    Rows(cols, {row(0, "tenant0", "*******6789", 10)}))
             .empty());
  // Another tenant's row must not come back.
  EXPECT(CheckPoint(accounts, "tenant1", 0, masked, Rows(cols, {})).empty());
  EXPECT(!CheckPoint(accounts, "tenant1", 0, masked,
                     Rows(cols, {row(0, "tenant0", "*******6789", 10)}))
              .empty());
  // The raw ssn never passes while every published version masks it.
  EXPECT(!CheckPoint(accounts, "tenant0", 0, both,
                     Rows(cols, {row(0, "tenant0", "123-45-6789", 10)}))
              .empty());
  // Redacted only passes once a redacting version was published.
  EXPECT(!CheckPoint(accounts, "tenant0", 0, masked,
                     Rows(cols, {row(0, "tenant0", "[REDACTED]", 10)}))
              .empty());
  EXPECT(CheckPoint(accounts, "tenant0", 0, both,
                    Rows(cols, {row(0, "tenant0", "[REDACTED]", 10)}))
             .empty());
  // With no masking version at all, the raw value is the only answer.
  EXPECT(AllowedValues("123-45-6789", {MaskRule::kRaw}) ==
         std::vector<std::string>{"123-45-6789"});

  EXPECT(CheckSmallAgg(accounts, "tenant0",
                       Rows({"n", "t"}, {{C::Int(2), C::Int(40)}}))
             .empty());
  EXPECT(!CheckSmallAgg(accounts, "tenant0",
                        Rows({"n", "t"}, {{C::Int(3), C::Int(60)}}))
              .empty());
  EXPECT(CheckEventCount(7, Rows({"n"}, {{C::Int(7)}})).empty());
  EXPECT(!CheckEventCount(7, Rows({"n"}, {{C::Int(6)}})).empty());
}

std::vector<Op> Take(const std::string& workload, uint64_t seed,
                     size_t client, size_t n) {
  OpStream stream(workload, seed, client);
  std::vector<Op> ops;
  for (size_t i = 0; i < n; ++i) ops.push_back(stream.Next());
  return ops;
}

void TestSeedDeterminism() {
  for (const char* workload : {"analytics", "export", "interactive"}) {
    for (size_t client = 0; client < 2; ++client) {
      const std::vector<Op> ops = Take(workload, 7, client, 2000);
      EXPECT(ops == Take(workload, 7, client, 2000));
      EXPECT(ops != Take(workload, 8, client, 2000));
    }
  }
  const FactData a = GenerateFactData(7, 1000, 10);
  const FactData b = GenerateFactData(7, 1000, 10);
  const FactData c = GenerateFactData(8, 1000, 10);
  bool same = true;
  bool differs = false;
  for (size_t i = 0; i < a.fact.size(); ++i) {
    same = same && a.fact[i].b == b.fact[i].b && a.fact[i].s == b.fact[i].s;
    differs = differs || a.fact[i].s != c.fact[i].s;
  }
  EXPECT(same);
  EXPECT(differs);
  EXPECT(GenerateAccounts(7, 64, 8)[5].ssn ==
         GenerateAccounts(7, 64, 8)[5].ssn);

  // Analytics: each cycle of four holds every query kind once.
  const std::vector<Op> cycle = Take("analytics", 7, 0, 500);
  for (size_t start = 0; start < cycle.size(); start += 4) {
    int counts[kOpKinds] = {};
    for (size_t i = start; i < start + 4; ++i) {
      ++counts[static_cast<int>(cycle[i].kind)];
    }
    EXPECT(counts[static_cast<int>(OpKind::kAgg)] == 1);
    EXPECT(counts[static_cast<int>(OpKind::kJoin)] == 1);
    EXPECT(counts[static_cast<int>(OpKind::kTopK)] == 1);
    EXPECT(counts[static_cast<int>(OpKind::kUdf)] == 1);
  }
  // Interactive: ~10% writes; only client 0 changes the catalog.
  for (size_t client = 0; client < kInteractiveClients; ++client) {
    size_t writes = 0;
    size_t ddl = 0;
    bool tenants[kTenants] = {};
    for (const Op& op : Take("interactive", 7, client, 10'000)) {
      writes += IsWrite(op.kind) ? 1 : 0;
      ddl += (IsWrite(op.kind) && op.kind != OpKind::kInsert) ? 1 : 0;
      EXPECT(op.session < kSessions / kInteractiveClients);
      tenants[TenantOfSession(GlobalSession(client, op.session))] = true;
    }
    EXPECT(writes > 800 && writes < 1200);
    EXPECT(client == 0 ? ddl > 0 : ddl == 0);
    // Every client writes for every tenant, so appends to one tenant's
    // events table come from several clients at once.
    for (bool seen : tenants) EXPECT(seen);
  }
}

}  // namespace
}  // namespace e2e

int main() {
  e2e::TestPercentileRule();
  e2e::TestAnalyticsOracle();
  e2e::TestInteractiveOracle();
  e2e::TestSeedDeterminism();
  if (e2e::failures > 0) {
    std::fprintf(stderr, "e2e_selftest: %d check(s) failed\n", e2e::failures);
    return 1;
  }
  std::fprintf(stderr, "e2e_selftest: all checks passed\n");
  return 0;
}
